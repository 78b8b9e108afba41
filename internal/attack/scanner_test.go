package attack

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/sfi"
)

// appendingDecodesTo is the gadget window decoder as it was before
// decodesTo stopped allocating for failing windows: it appends each
// instruction to a fresh slice as it goes.
func appendingDecodesTo(b []byte) ([]isa.Instr, bool) {
	var ins []isa.Instr
	off := 0
	for off < len(b) {
		in, n, ok := isa.TryDecode(b[off:])
		if !ok {
			return nil, false
		}
		ins = append(ins, in)
		off += n
		if in.Op == isa.RET {
			return ins, off == len(b)
		}
		if in.IsTerminator() || in.Op == isa.INT3 {
			return nil, false
		}
	}
	return nil, false
}

// appendingScan is the sequential scan over appendingDecodesTo.
func appendingScan(code []byte, base uint64) []Gadget {
	var out []Gadget
	for i := range code {
		if code[i] != 0xC3 {
			continue
		}
		for back := 1; back <= maxGadgetBack && back <= i; back++ {
			start := i - back
			if ins, ok := appendingDecodesTo(code[start : i+1]); ok {
				out = append(out, Gadget{Addr: base + uint64(start), Ins: ins})
			}
		}
	}
	return out
}

// TestScanGadgetsMatchesAppendingDecoder: ScanGadgets must find exactly
// the gadgets the appending decoder found — same addresses, same decoded
// instructions, same order — on a Vanilla and a diversified image.
func TestScanGadgetsMatchesAppendingDecoder(t *testing.T) {
	for _, cfg := range []core.Config{
		core.Vanilla,
		{Diversify: true, RAProt: diversify.RAEncrypt, Seed: 101},
	} {
		k := boot(t, cfg)
		code, base := k.Img.Text, k.Sym("_text")
		want := appendingScan(code, base)
		got := ScanGadgets(code, base)
		if len(got) != len(want) {
			t.Fatalf("%s: %d gadgets, the appending decoder found %d", cfg.Name(), len(got), len(want))
		}
		for i := range want {
			if got[i].Addr != want[i].Addr || !reflect.DeepEqual(got[i].Ins, want[i].Ins) {
				t.Fatalf("%s: gadget %d is %#x %q, the appending decoder's is %#x %q",
					cfg.Name(), i, got[i].Addr, got[i], want[i].Addr, want[i])
			}
		}
	}
}

// TestFirstPopRetMatchesFullScan: DirectROP's encoding search returns the
// gadget FindPopRet picks from the full scan, for every register and one
// out of range, on the reference image of every krxattack ladder target at
// seeds 101..132 (Vanilla ignores the seed, so it runs once).
func TestFirstPopRetMatchesFullScan(t *testing.T) {
	prog, err := kernel.BuildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	refs := []core.Config{core.Vanilla}
	for seed := int64(101); seed < 133; seed++ {
		for _, cfg := range []core.Config{
			{Diversify: true, RAProt: diversify.RAEncrypt},
			{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true},
			{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt},
			{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RADecoy},
			{XOM: core.XOMMPX, Diversify: true, RAProt: diversify.RAEncrypt},
		} {
			cfg.Seed = seed + 7919 // DirectROP's reference: the target's seed + 7919
			refs = append(refs, cfg)
		}
	}
	for _, cfg := range refs {
		b, err := core.Build(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		text, base := b.Image.Text, b.Image.Symbols["_text"]
		gs := ScanGadgets(text, base)
		for reg := isa.Reg(0); reg <= isa.NumGPR; reg++ {
			want, wok := FindPopRet(gs, reg)
			got, ok := FirstPopRet(text, base, reg)
			if ok != wok || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d reg %d: encoding search %v (%v), full scan %v (%v)",
					cfg.Name(), cfg.Seed, reg, got, ok, want, wok)
			}
		}
	}
}

// encode concatenates the encodings of ins.
func encode(t testing.TB, ins ...isa.Instr) []byte {
	var b []byte
	for _, in := range ins {
		var err error
		if b, err = in.Encode(b); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// FuzzFirstPopRet checks the encoding search against the full scan on
// arbitrary bytes and register numbers, valid or not.
func FuzzFirstPopRet(f *testing.F) {
	rdi := byte(isa.RDI)
	for _, s := range []struct {
		data []byte
		reg  byte
	}{
		{nil, rdi},
		{encode(f, isa.Ret()), rdi},
		{encode(f, isa.Pop(isa.RDI), isa.Ret(), isa.Nop(), isa.Ret()), rdi},                   // at offset 0
		{encode(f, isa.Nop(), isa.Ret(), isa.Nop(), isa.Pop(isa.RDI), isa.Ret()), rdi},        // at the very end
		{encode(f, isa.Pop(isa.RDI), isa.Ret(), isa.Ret(), isa.Pop(isa.RDI), isa.Ret()), rdi}, // both: the first wins
		{encode(f, isa.Pop(isa.RDI)), rdi},                                                    // truncated, no ret
		{encode(f, isa.Pop(isa.RSI), isa.Ret()), rdi},                                         // another register
		{encode(f, isa.Pop(isa.RDI), isa.Pop(isa.RDI), isa.Ret()), rdi},
		{[]byte{byte(isa.POP), isa.NumGPR, byte(isa.RET)}, isa.NumGPR}, // invalid register byte
		// nop ; pop ; ret starts first but comes after pop ; ret in scan
		// order, which tries a ret's shorter windows first.
		{encode(f, isa.Nop(), isa.Pop(isa.RDI), isa.Ret()), rdi},
	} {
		f.Add(s.data, s.reg)
	}
	const base = 0xffffffff81000000
	f.Fuzz(func(t *testing.T, data []byte, reg byte) {
		want, wok := FindPopRet(ScanGadgets(data, base), isa.Reg(reg))
		got, ok := FirstPopRet(data, base, isa.Reg(reg))
		if ok != wok || !reflect.DeepEqual(got, want) {
			t.Fatalf("% x reg %d: encoding search %v at %#x (%v), full scan %v at %#x (%v)",
				data, reg, got, got.Addr, ok, want, want.Addr, wok)
		}
	})
}
