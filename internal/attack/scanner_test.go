package attack

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/isa"
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
