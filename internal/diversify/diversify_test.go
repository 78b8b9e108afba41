package diversify

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kas"
	"repro/internal/link"
	"repro/internal/testkit"
)

// sumFunc computes rax = rdi + rsi + 100 via a small CFG with a call.
func sumFunc(t *testing.T) *ir.Program {
	t.Helper()
	helper, err := ir.NewBuilder("helper").
		I(isa.AddRI(isa.RDI, 100), isa.MovRR(isa.RAX, isa.RDI), isa.Ret()).
		Func()
	if err != nil {
		t.Fatal(err)
	}
	main, err := ir.NewBuilder("kmain").
		I(
			isa.AddRR(isa.RDI, isa.RSI),
			isa.CmpRI(isa.RDI, 1000),
			isa.Jcc(isa.CondA, "big"),
		).
		Label("small").
		I(isa.Call("helper"), isa.Jmp("out")).
		Label("big").
		I(isa.MovRI(isa.RAX, 0)).
		Label("out").
		I(isa.Ret()).
		Func()
	if err != nil {
		t.Fatal(err)
	}
	return &ir.Program{Funcs: []*ir.Function{main, helper}}
}

func runKmain(t *testing.T, prog *ir.Program, a, b uint64) uint64 {
	t.Helper()
	env := testkit.Build(t, prog, kas.KRX)
	env.FillKeys(t, 0xdeadbeef)
	res := env.Call(t, "kmain", a, b)
	if res.Reason != cpu.StopReturn {
		t.Fatalf("run failed: %v trap=%v", res.Reason, res.Trap)
	}
	return env.CPU.Reg(isa.RAX)
}

func TestSemanticPreservationPlain(t *testing.T) {
	for _, cfg := range []Config{
		{K: 30, RAProt: RANone},
		{K: 30, RAProt: RAEncrypt},
		{K: 30, RAProt: RADecoy},
		{K: 10, RAProt: RADecoy},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			prog := sumFunc(t)
			c := cfg
			c.Rand = rand.New(rand.NewSource(seed))
			if _, err := DiversifyProgram(prog, c); err != nil {
				t.Fatal(err)
			}
			if got := runKmain(t, prog, 3, 4); got != 107 {
				t.Fatalf("cfg=%+v seed=%d: kmain(3,4) = %d, want 107", cfg, seed, got)
			}
			if got := runKmain(t, prog, 900, 200); got != 0 {
				t.Fatalf("cfg=%+v seed=%d: kmain(900,200) = %d, want 0", cfg, seed, got)
			}
		}
	}
}

func TestVanillaBaselineWorks(t *testing.T) {
	if got := runKmain(t, sumFunc(t), 3, 4); got != 107 {
		t.Fatalf("undiversified kmain(3,4) = %d", got)
	}
}

func TestEntryPhantomBlock(t *testing.T) {
	prog := sumFunc(t)
	if _, err := DiversifyProgram(prog, Config{K: 30, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
	for _, f := range prog.Funcs {
		if f.Blocks[0].Label != EntryLabel {
			t.Fatalf("%s: first block is %q, want entry phantom", f.Name, f.Blocks[0].Label)
		}
		if len(f.Blocks[0].Ins) != 1 || f.Blocks[0].Ins[0].Op != isa.JMP {
			t.Fatalf("%s: entry phantom must be a single jmp, got %v", f.Name, f.Blocks[0].Ins)
		}
	}
}

func TestEntropyTarget(t *testing.T) {
	for _, k := range []int{10, 20, 30, 40} {
		prog := sumFunc(t)
		st, err := DiversifyProgram(prog, Config{K: k, Rand: rand.New(rand.NewSource(3))})
		if err != nil {
			t.Fatal(err)
		}
		if st.MinEntropyBits < float64(k) {
			t.Errorf("k=%d: achieved entropy %.1f bits", k, st.MinEntropyBits)
		}
	}
}

func TestChunksNeeded(t *testing.T) {
	// lg(13!) ≈ 32.5 >= 30 > lg(12!) ≈ 28.8.
	if n := chunksNeeded(30); n != 13 {
		t.Errorf("chunksNeeded(30) = %d, want 13", n)
	}
	if n := chunksNeeded(0); n != 1 {
		t.Errorf("chunksNeeded(0) = %d, want 1", n)
	}
}

func TestSingleBlockFunctionGetsPhantoms(t *testing.T) {
	f, err := ir.NewBuilder("leaf").
		I(isa.MovRI(isa.RAX, 7), isa.Ret()).Func()
	if err != nil {
		t.Fatal(err)
	}
	st, err := Diversify(f, Config{K: 30, Rand: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	if st.SingleBlockFuncs != 1 || st.Padded != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.PhantomBlocks < 11 {
		t.Errorf("phantom blocks = %d, expected >= 11 for k=30", st.PhantomBlocks)
	}
	// And the function still behaves.
	prog := &ir.Program{Funcs: []*ir.Function{f}}
	env := testkit.Build(t, prog, kas.KRX)
	res := env.Call(t, "leaf")
	if res.Reason != cpu.StopReturn || env.CPU.Reg(isa.RAX) != 7 {
		t.Fatalf("leaf: %v rax=%d", res.Reason, env.CPU.Reg(isa.RAX))
	}
}

func TestLayoutsDifferAcrossSeeds(t *testing.T) {
	var images [][]byte
	for seed := int64(1); seed <= 3; seed++ {
		prog := sumFunc(t)
		if _, err := DiversifyProgram(prog, Config{K: 30, Rand: rand.New(rand.NewSource(seed))}); err != nil {
			t.Fatal(err)
		}
		img, err := link.Link(prog, link.Options{Layout: kas.KRX})
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, img.Text)
	}
	if bytes.Equal(images[0], images[1]) && bytes.Equal(images[1], images[2]) {
		t.Fatal("three seeds produced identical text layouts")
	}
}

func TestFunctionPermutation(t *testing.T) {
	// With many functions, at least one seed must reorder them.
	mk := func() *ir.Program {
		p := &ir.Program{}
		for i := 0; i < 8; i++ {
			f, err := ir.NewBuilder(string(rune('a'+i))).
				I(isa.MovRI(isa.RAX, int64(i)), isa.Ret()).Func()
			if err != nil {
				t.Fatal(err)
			}
			p.Funcs = append(p.Funcs, f)
		}
		return p
	}
	prog := mk()
	if _, err := DiversifyProgram(prog, Config{K: 1, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
	moved := false
	for i, f := range prog.Funcs {
		if f.Name != string(rune('a'+i)) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("function permutation left all functions in place")
	}
}

func TestNoDiversifyExemption(t *testing.T) {
	f, err := ir.NewBuilder("stub").I(isa.Sysret()).Func()
	if err != nil {
		t.Fatal(err)
	}
	f.NoDiversify = true
	st, err := Diversify(f, Config{K: 30})
	if err != nil {
		t.Fatal(err)
	}
	if st.Funcs != 0 || len(f.Blocks) != 1 {
		t.Fatalf("NoDiversify function must stay untouched: %+v", st)
	}
}

func TestDoubleDiversifyRejected(t *testing.T) {
	prog := sumFunc(t)
	f := prog.Funcs[0]
	if _, err := Diversify(f, Config{K: 10, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if _, err := Diversify(f, Config{K: 10}); err == nil {
		t.Fatal("re-diversification must be rejected")
	}
}

// spyProg builds caller/callee where the callee copies its two top-of-stack
// words into globals — simulating an attacker-visible stack snapshot while
// the callee runs.
func spyProg(t *testing.T) *ir.Program {
	t.Helper()
	callee, err := ir.NewBuilder("callee").
		I(
			isa.Load(isa.RAX, isa.Mem(isa.RSP, 0)),
			isa.Store(isa.MemAbs("slot0", 0), isa.RAX),
			isa.Load(isa.RAX, isa.Mem(isa.RSP, 8)),
			isa.Store(isa.MemAbs("slot1", 0), isa.RAX),
			isa.MovRI(isa.RAX, 1),
			isa.Ret(),
		).Func()
	if err != nil {
		t.Fatal(err)
	}
	caller, err := ir.NewBuilder("caller").
		I(
			isa.Call("callee"),
			isa.MovRR(isa.RBX, isa.RAX),
			isa.Ret(),
		).Func()
	if err != nil {
		t.Fatal(err)
	}
	return &ir.Program{
		Funcs: []*ir.Function{caller, callee},
		Data: []ir.DataSym{
			{Name: "slot0", Bytes: make([]byte, 8)},
			{Name: "slot1", Bytes: make([]byte, 8)},
		},
	}
}

func peek64(t *testing.T, env *testkit.Env, sym string) uint64 {
	t.Helper()
	b, err := env.Space.AS.Peek(env.Img.Symbols[sym], 8)
	if err != nil {
		t.Fatal(err)
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func TestEncryptionHidesReturnAddress(t *testing.T) {
	prog := spyProg(t)
	if _, err := DiversifyProgram(prog, Config{K: 10, RAProt: RAEncrypt, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
	env := testkit.Build(t, prog, kas.KRX)
	env.FillKeys(t, 0x1122334455667788)
	res := env.Call(t, "caller")
	if res.Reason != cpu.StopReturn || env.CPU.Reg(isa.RBX) != 1 {
		t.Fatalf("run: %v rbx=%d trap=%v", res.Reason, env.CPU.Reg(isa.RBX), res.Trap)
	}
	// The value the callee saw at (%rsp) must NOT be a code address: it is
	// RA^xkey. The real return site lies inside caller's body.
	seen := peek64(t, env, "slot0")
	textStart, textEnd := env.Img.Symbols["_text"], env.Img.Symbols["_etext"]
	if seen >= textStart && seen < textEnd {
		t.Fatalf("encrypted return address %#x still looks like a code pointer", seen)
	}
	// Decrypting with the key recovers a text address.
	keyAddr := env.Img.KeyAddrs[KeySym("callee")]
	kb, err := env.Space.AS.Peek(keyAddr, 8)
	if err != nil {
		t.Fatal(err)
	}
	var key uint64
	for i := 0; i < 8; i++ {
		key |= uint64(kb[i]) << (8 * i)
	}
	if ra := seen ^ key; ra < textStart || ra >= textEnd {
		t.Fatalf("decrypted RA %#x not in text", ra)
	}
}

func TestEncryptionZapsReturnSite(t *testing.T) {
	// After the call returns, the stale decrypted RA below %rsp must have
	// been zapped.
	callee, err := ir.NewBuilder("callee").
		I(isa.MovRI(isa.RAX, 1), isa.Ret()).Func()
	if err != nil {
		t.Fatal(err)
	}
	caller, err := ir.NewBuilder("caller").
		I(
			isa.Call("callee"),
			isa.Load(isa.RBX, isa.Mem(isa.RSP, -8)), // stale RA slot
			isa.Ret(),
		).Func()
	if err != nil {
		t.Fatal(err)
	}
	prog := &ir.Program{Funcs: []*ir.Function{caller, callee}}
	if _, err := DiversifyProgram(prog, Config{K: 5, RAProt: RAEncrypt, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
	env := testkit.Build(t, prog, kas.KRX)
	env.FillKeys(t, 0xabc)
	res := env.Call(t, "caller")
	if res.Reason != cpu.StopReturn {
		t.Fatalf("run: %v %v", res.Reason, res.Trap)
	}
	if env.CPU.Reg(isa.RBX) != 0 {
		t.Fatalf("stale return address not zapped: %#x", env.CPU.Reg(isa.RBX))
	}
}

func TestDecoysPlantTripwirePair(t *testing.T) {
	foundTrip, foundReal := false, false
	for seed := int64(1); seed <= 8 && !(foundTrip && foundReal); seed++ {
		prog := spyProg(t)
		if _, err := DiversifyProgram(prog, Config{K: 10, RAProt: RADecoy, Rand: rand.New(rand.NewSource(seed))}); err != nil {
			t.Fatal(err)
		}
		env := testkit.Build(t, prog, kas.KRX)
		res := env.Call(t, "caller")
		if res.Reason != cpu.StopReturn || env.CPU.Reg(isa.RBX) != 1 {
			t.Fatalf("seed %d: %v rbx=%d trap=%v", seed, res.Reason, env.CPU.Reg(isa.RBX), res.Trap)
		}
		// The two adjacent stack words are the decoy/real pair (order
		// random per compile). One must point at an int3 tripwire, the
		// other at the true return site.
		textStart := env.Img.Symbols["_text"]
		for _, sym := range []string{"slot0", "slot1"} {
			v := peek64(t, env, sym)
			off := v - textStart
			if off >= uint64(len(env.Img.Text)) {
				t.Fatalf("seed %d: %s=%#x outside text", seed, sym, v)
			}
			if env.Img.Text[off] == 0xCC {
				foundTrip = true
			} else {
				foundReal = true
			}
		}
	}
	if !foundTrip || !foundReal {
		t.Fatalf("decoy pair not found (trip=%v real=%v)", foundTrip, foundReal)
	}
}

func TestDecoyGuessingTrapsHalfTheTime(t *testing.T) {
	// Simulate the §7.3 analysis: jumping to the decoy must hit int3.
	prog := spyProg(t)
	if _, err := DiversifyProgram(prog, Config{K: 10, RAProt: RADecoy, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
	env := testkit.Build(t, prog, kas.KRX)
	res := env.Call(t, "caller")
	if res.Reason != cpu.StopReturn {
		t.Fatalf("%v %v", res.Reason, res.Trap)
	}
	v0, v1 := peek64(t, env, "slot0"), peek64(t, env, "slot1")
	textStart := env.Img.Symbols["_text"]
	trapped := 0
	for _, target := range []uint64{v0, v1} {
		if env.Img.Text[target-textStart] != 0xCC {
			continue
		}
		// Divert execution to the candidate (the attacker's guess).
		env.CPU.Mode = cpu.Kernel
		env.CPU.RIP = target
		r := env.CPU.Run(10)
		if r.Reason == cpu.StopTrap && r.Trap.Kind == cpu.TrapBreakpoint {
			trapped++
		}
	}
	if trapped != 1 {
		t.Fatalf("exactly one of the pair must be a trapping tripwire, got %d", trapped)
	}
}

func TestDiversifiedProgramStillLinksEverywhere(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		prog := sumFunc(t)
		cfg := Config{K: 30, RAProt: RAProt(seed % 3), Rand: rand.New(rand.NewSource(seed))}
		if _, err := DiversifyProgram(prog, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := link.Link(prog, link.Options{Layout: kas.KRX}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestLgFactorial(t *testing.T) {
	if LgFactorial(1) != 0 || LgFactorial(0) != 0 {
		t.Error("lg(0!)=lg(1!)=0")
	}
	if v := LgFactorial(13); v < 32 || v > 33 {
		t.Errorf("lg(13!) = %f", v)
	}
}

// TestPhantomPadBlocksExactSize: the jmp that terminates each phantom pad
// block fills the block's spare slot instead of reallocating it, so a
// diversified program retained by the build cache holds no doubled arrays.
func TestPhantomPadBlocksExactSize(t *testing.T) {
	prog := sumFunc(t)
	leaf, err := ir.NewBuilder("leaf").I(isa.MovRI(isa.RAX, 7), isa.Ret()).Func()
	if err != nil {
		t.Fatal(err)
	}
	prog.Funcs = append(prog.Funcs, leaf)
	st, err := DiversifyProgram(prog, Config{K: 30, Rand: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	if st.PhantomBlocks == 0 {
		t.Fatal("no phantom pad blocks generated")
	}
	pads := 0
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			if !strings.HasPrefix(b.Label, "krx.pad.") {
				continue
			}
			pads++
			if last := b.Ins[len(b.Ins)-1]; last.Op != isa.JMP {
				t.Errorf("%s/%s: pad block ends in %v, want jmp", f.Name, b.Label, last.Op)
			}
			if cap(b.Ins) != len(b.Ins) {
				t.Errorf("%s/%s: cap %d, len %d", f.Name, b.Label, cap(b.Ins), len(b.Ins))
			}
		}
	}
	if pads != st.PhantomBlocks {
		t.Errorf("found %d pad blocks, stats report %d", pads, st.PhantomBlocks)
	}
}
