package core

import (
	"testing"

	"repro/internal/diversify"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kas"
	"repro/internal/sfi"
)

func TestConfigNames(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{}, "Vanilla"},
		{Config{XOM: XOMSFI, SFILevel: sfi.O0}, "SFI(-O0)"},
		{Config{XOM: XOMSFI, SFILevel: sfi.O3}, "SFI"},
		{Config{XOM: XOMMPX}, "MPX"},
		{Config{XOM: XOMEPT}, "EPT"},
		{Config{Diversify: true}, "FG"},
		{Config{Diversify: true, RAProt: diversify.RAEncrypt}, "X"},
		{Config{Diversify: true, RAProt: diversify.RADecoy}, "D"},
		{Config{XOM: XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt}, "SFI+X"},
		{Config{XOM: XOMMPX, Diversify: true, RAProt: diversify.RADecoy}, "MPX+D"},
	}
	for _, c := range cases {
		if got := c.cfg.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestConfigLayoutSelection(t *testing.T) {
	if (Config{}).Layout() != kas.Vanilla {
		t.Error("vanilla config must use the vanilla layout")
	}
	for _, cfg := range []Config{
		{XOM: XOMSFI}, {XOM: XOMMPX}, {XOM: XOMEPT}, {XOM: XOMHideM}, {Diversify: true},
	} {
		if cfg.Layout() != kas.KRX {
			t.Errorf("%s must use kR^X-KAS", cfg.Name())
		}
	}
}

func TestPresetsCoverTheEvaluation(t *testing.T) {
	names := map[string]bool{}
	for _, p := range Presets() {
		names[p.Name()] = true
	}
	for _, want := range []string{
		"Vanilla", "SFI(-O0)", "SFI(-O1)", "SFI(-O2)", "SFI", "MPX",
		"D", "X", "SFI+D", "SFI+X", "MPX+D", "MPX+X",
	} {
		if !names[want] {
			t.Errorf("preset %q missing", want)
		}
	}
}

func miniProg(t *testing.T) *ir.Program {
	t.Helper()
	handler, err := ir.NewBuilder("krx_handler").I(isa.Hlt()).Func()
	if err != nil {
		t.Fatal(err)
	}
	handler.NoInstrument, handler.NoDiversify = true, true
	f, err := ir.NewBuilder("f").
		I(isa.Load(isa.RAX, isa.Mem(isa.RSI, 8)), isa.Ret()).
		Func()
	if err != nil {
		t.Fatal(err)
	}
	return &ir.Program{Funcs: []*ir.Function{f, handler}}
}

func TestBuildDoesNotMutateSource(t *testing.T) {
	src := miniProg(t)
	before := src.Funcs[0].String()
	if _, err := Build(src, Config{XOM: XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if src.Funcs[0].String() != before {
		t.Fatal("Build must operate on a clone")
	}
}

func TestBuildFullCoverageLiftsStubExemption(t *testing.T) {
	src := miniProg(t)
	stub, err := ir.NewBuilder("entry_stub").
		I(isa.Load(isa.RAX, isa.Mem(isa.RBX, 0)), isa.Ret()).Func()
	if err != nil {
		t.Fatal(err)
	}
	stub.NoInstrument = true
	clone, err := ir.NewBuilder("memcpy_krx").
		I(isa.Load(isa.RAX, isa.Mem(isa.RDI, 0)), isa.Ret()).Func()
	if err != nil {
		t.Fatal(err)
	}
	clone.NoInstrument, clone.AccessorClone = true, true
	src.Funcs = append(src.Funcs, stub, clone)

	plain, err := Instrument(src, Config{XOM: XOMSFI, SFILevel: sfi.O3})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Instrument(src, Config{XOM: XOMSFI, SFILevel: sfi.O3, FullCoverage: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.SFIStats.ReadsTotal != plain.SFIStats.ReadsTotal+1 {
		t.Fatalf("full coverage must pick up exactly the stub's read: %d vs %d",
			full.SFIStats.ReadsTotal, plain.SFIStats.ReadsTotal)
	}
	// The clone stays exempt in both.
	if cf := full.Prog.Func("memcpy_krx"); cf.NumInstrs() != 2 {
		t.Fatal("accessor clone must stay uninstrumented under full coverage")
	}
}

func TestKASLRSlideDeterministicPerSeed(t *testing.T) {
	a1, err := Build(miniProg(t), Config{KASLR: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Build(miniProg(t), Config{KASLR: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(miniProg(t), Config{KASLR: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Image.Symbols["_text"] != a2.Image.Symbols["_text"] {
		t.Error("same seed must give the same slide")
	}
	if a1.Image.Symbols["_text"] == b.Image.Symbols["_text"] {
		t.Error("different seeds should slide differently (w.h.p.)")
	}
	slide := a1.Image.Symbols["_sdata"] - kas.KernelBase
	if slide >= kas.MaxSlide || slide%4096 != 0 {
		t.Errorf("slide %#x out of spec", slide)
	}
}
