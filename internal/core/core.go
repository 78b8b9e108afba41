// Package core is the top-level kR^X facade: it assembles the compiler
// pipeline (the krx and kaslr plugin equivalents), producing hardened
// kernel images from IR programs under a declarative configuration.
//
// The pass order mirrors the paper's GCC plugin chaining (§6): krx (R^X
// range checks) runs first, kaslr (return-address protection, then code
// block slicing and permutation) runs after it, and linking/layout is last.
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/diversify"
	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/kas"
	"repro/internal/link"
	"repro/internal/sfi"
)

// XOM selects how (and whether) execute-only memory is enforced.
type XOM int

// XOM enforcement mechanisms.
const (
	XOMNone  XOM = iota // no R^X (vanilla or diversification-only kernels)
	XOMSFI              // kR^X-SFI: software range checks (§5.1.2)
	XOMMPX              // kR^X-MPX: hardware-assisted bound checks (§5.1.3)
	XOMEPT              // hypervisor baseline: native X-only via EPT semantics
	XOMHideM            // split-TLB baseline: data reads of code see shadows (§2)
)

func (x XOM) String() string {
	switch x {
	case XOMSFI:
		return "SFI"
	case XOMMPX:
		return "MPX"
	case XOMEPT:
		return "EPT"
	case XOMHideM:
		return "HideM"
	}
	return "none"
}

// Config is a complete kR^X protection configuration.
type Config struct {
	XOM      XOM
	SFILevel sfi.Level // optimization level for XOMSFI

	// Diversify enables fine-grained KASLR (function + code block
	// permutation with phantom blocks).
	Diversify bool
	// K is the per-function entropy target in bits (0 = 30).
	K int
	// RAProt selects the return-address protection scheme (requires
	// Diversify).
	RAProt diversify.RAProt

	// RegRand enables the register-randomization complement suggested in
	// §5.3 for foiling call-preceded gadget chaining (requires Diversify).
	RegRand bool

	// FullCoverage extends R^X instrumentation to the hand-written
	// assembly stubs that the RTL-level plugins cannot normally see — the
	// assembler-level implementation §6 describes as work in progress for
	// "achieving 100% code coverage". The accessor clones stay exempt by
	// definition (they exist to read code legitimately).
	FullCoverage bool

	// Seed drives the diversification randomness. A real deployment draws
	// it from a CSPRNG at build time; the evaluation varies it to measure
	// across layouts.
	//
	// Convention: the unprotected Vanilla baseline keeps Seed 0 (no
	// randomness is consumed), every named protected configuration —
	// Presets(), the Table 1/2 columns, the root benchmarks — uses Seed 1
	// unless a sweep deliberately varies it. Seed participates in the
	// build-cache key, so two consumers asking for the same preset share
	// one compiled image.
	Seed int64

	// GuardSize overrides the .krx_phantom guard (0 = default).
	GuardSize uint64

	// KASLR enables coarse base randomization: the whole kernel image is
	// slid by a seed-derived page-aligned delta. This is the standard
	// KASLR the paper assumes deployed (§3) — and, unlike fine-grained
	// KASLR, it falls to a single pointer leak.
	KASLR bool

	// WatchdogBudget bounds the instructions one syscall round trip may
	// execute before the watchdog fires (0 = kernel default). Exhaustion
	// surfaces as a structured *cpu.BudgetError on the syscall result, so
	// a runaway emulator loop is a reportable finding, never a hang.
	WatchdogBudget uint64

	// FaultPlan, when non-nil, arms the deterministic fault injector on
	// the booted kernel (see internal/inject): the robustness harness'
	// seeded byte flips, permission flips, bound/xkey corruption, and
	// spurious traps.
	FaultPlan *inject.Plan
}

// Name renders the configuration in the paper's column naming: Vanilla,
// SFI(-O0..-O3), MPX, D, X, SFI+D, SFI+X, MPX+D, MPX+X, EPT...
func (c Config) Name() string {
	xom := ""
	switch c.XOM {
	case XOMSFI:
		xom = "SFI"
		if c.SFILevel < sfi.O3 {
			xom = fmt.Sprintf("SFI(-%s)", c.SFILevel)
		}
	case XOMMPX:
		xom = "MPX"
	case XOMEPT:
		xom = "EPT"
	case XOMHideM:
		xom = "HideM"
	}
	div := ""
	if c.Diversify {
		switch c.RAProt {
		case diversify.RAEncrypt:
			div = "X"
		case diversify.RADecoy:
			div = "D"
		default:
			div = "FG" // fine-grained KASLR without RA protection
		}
	}
	switch {
	case xom == "" && div == "":
		return "Vanilla"
	case xom == "":
		return div
	case div == "":
		return xom
	default:
		return xom + "+" + div
	}
}

// Layout returns the address-space layout the configuration requires:
// kR^X-KAS whenever any kR^X mechanism is active.
func (c Config) Layout() kas.Kind {
	if c.XOM != XOMNone || c.Diversify {
		return kas.KRX
	}
	return kas.Vanilla
}

// Vanilla is the unprotected baseline configuration.
var Vanilla = Config{}

// Presets returns the named configurations used across the evaluation
// (Table 1 columns plus the vanilla baseline). Protected presets follow
// the Seed-1 convention documented on Config.Seed.
func Presets() []Config {
	return []Config{
		Vanilla,
		{XOM: XOMSFI, SFILevel: sfi.O0, Seed: 1},
		{XOM: XOMSFI, SFILevel: sfi.O1, Seed: 1},
		{XOM: XOMSFI, SFILevel: sfi.O2, Seed: 1},
		{XOM: XOMSFI, SFILevel: sfi.O3, Seed: 1},
		{XOM: XOMMPX, Seed: 1},
		{Diversify: true, RAProt: diversify.RADecoy, Seed: 1},
		{Diversify: true, RAProt: diversify.RAEncrypt, Seed: 1},
		{XOM: XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RADecoy, Seed: 1},
		{XOM: XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 1},
		{XOM: XOMMPX, Diversify: true, RAProt: diversify.RADecoy, Seed: 1},
		{XOM: XOMMPX, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 1},
	}
}

// BuildResult is a hardened, linked kernel image plus pass statistics.
// It holds nothing of the compiler's IR: what boots is the image.
type BuildResult struct {
	Config   Config
	Image    *link.Image
	SFIStats sfi.Stats
	DivStats diversify.Stats
	// NoDiversify[i] reports whether fine-grained KASLR exempted
	// Image.Funcs[i] (hand-written stubs carry no entry phantom).
	NoDiversify []bool
}

// Instrumented is the output of the pass stage: the post-pass program
// and what the passes did to it.
type Instrumented struct {
	Prog     *ir.Program
	SFIStats sfi.Stats
	DivStats diversify.Stats
}

// Instrument runs the kR^X passes over a copy of prog: krx
// instrumentation, then kaslr diversification. It is Build without the
// link, for callers that read the post-pass IR (krxcc, the module loader).
func Instrument(prog *ir.Program, cfg Config) (*Instrumented, error) {
	p := prog.Clone()
	res := &Instrumented{Prog: p}

	if cfg.FullCoverage {
		// Assembler-level coverage: lift the RTL-pass exemption from the
		// hand-written stubs; the accessor clones remain exempt.
		for _, f := range p.Funcs {
			if f.NoInstrument && !f.AccessorClone {
				f.NoInstrument = false
			}
		}
	}

	switch cfg.XOM {
	case XOMSFI:
		st, err := sfi.InstrumentProgram(p, sfi.Config{Mode: sfi.ModeSFI, Level: cfg.SFILevel})
		if err != nil {
			return nil, fmt.Errorf("core: krx pass: %w", err)
		}
		res.SFIStats = st
	case XOMMPX:
		st, err := sfi.InstrumentProgram(p, sfi.Config{Mode: sfi.ModeMPX})
		if err != nil {
			return nil, fmt.Errorf("core: krx pass: %w", err)
		}
		res.SFIStats = st
	}

	if cfg.Diversify {
		st, err := diversify.DiversifyProgram(p, diversify.Config{
			K:       cfg.K,
			RAProt:  cfg.RAProt,
			RegRand: cfg.RegRand,
			Rand:    rand.New(rand.NewSource(cfg.Seed)),
		})
		if err != nil {
			return nil, fmt.Errorf("core: kaslr pass: %w", err)
		}
		res.DivStats = st
	}
	return res, nil
}

// Build runs the kR^X pipeline over a copy of prog: the pass stage
// (Instrument), then linking under the configured layout. The post-pass
// program is dropped once linked.
func Build(prog *ir.Program, cfg Config) (*BuildResult, error) {
	ins, err := Instrument(prog, cfg)
	if err != nil {
		return nil, err
	}
	var slide uint64
	if cfg.KASLR {
		slide = uint64(rand.New(rand.NewSource(cfg.Seed^0x4b41534c)).Intn(int(kas.MaxSlide>>12))) << 12
	}
	img, err := link.Link(ins.Prog, link.Options{Layout: cfg.Layout(), GuardSize: cfg.GuardSize, Slide: slide})
	if err != nil {
		return nil, fmt.Errorf("core: link: %w", err)
	}
	// Image.Funcs lists ins.Prog.Funcs in order.
	noDiv := make([]bool, len(ins.Prog.Funcs))
	for i, f := range ins.Prog.Funcs {
		noDiv[i] = f.NoDiversify
	}
	return &BuildResult{
		Config:      cfg,
		Image:       img,
		SFIStats:    ins.SFIStats,
		DivStats:    ins.DivStats,
		NoDiversify: noDiv,
	}, nil
}
