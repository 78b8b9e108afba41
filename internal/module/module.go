// Package module implements the kR^X-KAS-aware module loader-linker
// (§5.1.1 "Kernel Modules" and §6): module objects are compiled through the
// same krx/kaslr pipeline as the kernel, their .text is sliced into the
// modules_text region (execute-only, physmap synonym closed) while all
// other allocatable sections land in modules_data, relocation and symbol
// binding are eager, per-module xkeys are replenished at load time, and
// unloading zaps the text frames before the physmap synonym is restored.
package module

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/kas"
	"repro/internal/kernel"
	"repro/internal/link"
	"repro/internal/mem"
	"repro/internal/pgtable"
)

// Object is an on-disk module: its IR program (the ELF sections before
// load-time slicing).
type Object struct {
	Name string
	Prog *ir.Program

	// Unprotected requests that the module skip the krx/kaslr passes.
	// kR^X supports mixed code — protected and unprotected modules side
	// by side — for incremental deployment and selective hardening (§6);
	// the cost is that the unprotected module's own reads can reach the
	// code region.
	Unprotected bool
}

// Loaded describes a live module.
type Loaded struct {
	Name     string
	TextAddr uint64
	TextSize uint64
	DataAddr uint64
	DataSize uint64
	Symbols  map[string]uint64

	frames  []*mem.Frame
	pfn     int
	dataVA  uint64
	dataPgs int
}

// Loader places modules into a booted kernel's address space.
type Loader struct {
	K *kernel.Kernel

	nextText uint64
	nextData uint64
	loaded   map[string]*Loaded
}

// NewLoader creates a loader for the kernel.
func NewLoader(k *kernel.Kernel) *Loader {
	l := &Loader{K: k, loaded: make(map[string]*Loaded)}
	if k.Img.Layout.Kind == kas.KRX {
		l.nextText = k.Sym("__start_modules_text")
		l.nextData = k.Sym("__start_modules_data")
	} else {
		// Vanilla: text and data interleave in the single modules area.
		l.nextText = kas.ModulesBase
		l.nextData = kas.ModulesBase + 256<<20
	}
	return l
}

// Load compiles obj under the kernel's protection configuration, links it
// against the kernel's exported symbols, maps text and data into their
// regions, and replenishes the module's xkeys.
func (l *Loader) Load(obj *Object) (*Loaded, error) {
	if _, dup := l.loaded[obj.Name]; dup {
		return nil, fmt.Errorf("module: %s already loaded", obj.Name)
	}
	cfg := l.K.Cfg
	if obj.Unprotected {
		// Mixed-code support (§6): load without the plugin passes.
		cfg = core.Config{Seed: cfg.Seed}
	}
	// The same plugin pipeline the kernel image went through, under a
	// module-derived diversification seed.
	pass := cfg
	pass.Seed = cfg.Seed ^ int64(len(obj.Name))<<32 ^ int64(l.nextText)
	ins, err := core.Instrument(obj.Prog, pass)
	if err != nil {
		return nil, err
	}

	img, err := link.LinkObject(ins.Prog, l.nextText, l.nextData, l.K.Img.Symbols)
	if err != nil {
		return nil, err
	}

	// The module_alloc() sanity check (with the Appendix A fix).
	if !pgtable.ModuleFits(img.TotalTextSize() + uint64(len(img.Data)) + img.BssSize) {
		return nil, fmt.Errorf("module: %s exceeds the modules region", obj.Name)
	}

	// Slice: .text (plus trailing xkeys) into modules_text.
	textBytes := make([]byte, img.TotalTextSize())
	copy(textBytes, img.Text)
	frames, pfn, err := l.K.Space.MapModuleText(l.nextText, textBytes)
	if err != nil {
		return nil, err
	}
	// Replenish the module xkeys (load-time key installation; Poke models
	// the loader writing through its privileged mapping before the
	// synonym is closed — MapModuleText already unmapped it, so write via
	// the text mapping directly).
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x6d6f64)) // "mod"
	for _, addr := range img.KeyAddrs {
		var b [8]byte
		v := rng.Uint64() | 1
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		if err := l.K.Space.AS.Poke(addr, b[:]); err != nil {
			return nil, err
		}
	}

	// All other allocatable sections into modules_data.
	dataSize := uint64(len(img.Data)) + img.BssSize
	dataPgs := mem.PagesFor(dataSize)
	if dataPgs == 0 {
		dataPgs = 1
	}
	if _, err := l.K.Space.AS.Map(l.nextData, dataPgs, mem.PermRW); err != nil {
		return nil, err
	}
	if len(img.Data) > 0 {
		if err := l.K.Space.AS.Poke(l.nextData, img.Data); err != nil {
			return nil, err
		}
	}

	m := &Loaded{
		Name:     obj.Name,
		TextAddr: l.nextText,
		TextSize: img.TotalTextSize(),
		DataAddr: l.nextData,
		DataSize: dataSize,
		Symbols:  img.Symbols,
		frames:   frames,
		pfn:      pfn,
		dataVA:   l.nextData,
		dataPgs:  dataPgs,
	}
	l.loaded[obj.Name] = m
	l.nextText += uint64(len(frames)) << mem.PageShift
	l.nextData += uint64(dataPgs) << mem.PageShift
	return m, nil
}

// Unload removes a module: text frames are zapped (preventing code-layout
// inference through recycled pages — §5.1.1), the text mapping is removed,
// the physmap synonym is restored, and the data mapping is dropped.
func (l *Loader) Unload(name string) error {
	m, ok := l.loaded[name]
	if !ok {
		return fmt.Errorf("module: %s not loaded", name)
	}
	if err := l.K.Space.UnmapModuleText(m.TextAddr, m.frames, m.pfn); err != nil {
		return err
	}
	if err := l.K.Space.AS.Unmap(m.dataVA, m.dataPgs); err != nil {
		return err
	}
	delete(l.loaded, name)
	return nil
}

// Loaded reports whether the named module is currently loaded.
func (l *Loader) IsLoaded(name string) bool {
	_, ok := l.loaded[name]
	return ok
}
