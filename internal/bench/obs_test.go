// The profiler's conservation invariant, verified over the Table 1 suite,
// the paper's three attack scenarios, and a seeded fuzz campaign — under
// the decode cache on and off, at -workers 1 and 4. That tracing and
// profiling change nothing they observe is the oracle's observers axis
// (internal/oracle).
package bench

import (
	"context"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/inject"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// equivConfigs: the unprotected baseline and the most protected preset
// column (diversification, RA protection, the works).
func equivConfigs() []core.Config {
	presets := core.Presets()
	return []core.Config{core.Vanilla, presets[len(presets)-1]}
}

// bootEquiv boots a fork of cfg's golden kernel with the decode cache on
// or off.
func bootEquiv(t *testing.T, cfg core.Config, cacheOn bool) *kernel.Kernel {
	t.Helper()
	k, err := kernel.Boot(cfg, kernel.WithCache())
	if err != nil {
		t.Fatal(err)
	}
	k.CPU.SetDecodeCache(cacheOn)
	return k
}

// TestProfilerConservationTable1Suite: over the full micro-op suite, every
// cycle the CPU counts is attributed exactly once — with the decode cache on
// and off.
func TestProfilerConservationTable1Suite(t *testing.T) {
	for _, cfg := range equivConfigs() {
		for _, cacheOn := range []bool{true, false} {
			k, err := kernel.Boot(cfg, kernel.WithCache())
			if err != nil {
				t.Fatal(err)
			}
			k.CPU.SetDecodeCache(cacheOn)
			p := obs.NewProfiler(k.Img)
			p.Attach(k.CPU)
			if _, err := RunTable1Suite(k); err != nil {
				t.Fatalf("%s: %v", cfg.Name(), err)
			}
			if err := p.CheckConservation(); err != nil {
				t.Errorf("%s cache=%v: %v", cfg.Name(), cacheOn, err)
			}
		}
	}
}

// TestProfilerConservationAttacks: conservation holds across the paper's
// three attack scenarios — ROP chains and JIT-ROP harvesting are exactly the
// adversarial control flow the attribution rules must survive.
func TestProfilerConservationAttacks(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(target, ref *kernel.Kernel) attack.Result
	}{
		{"DirectROP", func(target, ref *kernel.Kernel) attack.Result { return attack.DirectROP(target, ref) }},
		{"JITROP", func(target, _ *kernel.Kernel) attack.Result { return attack.JITROP(target) }},
		{"IndirectJITROP", func(target, _ *kernel.Kernel) attack.Result { return attack.IndirectJITROP(target) }},
	}
	for _, cfg := range equivConfigs() {
		for _, sc := range scenarios {
			target := bootEquiv(t, cfg, true)
			ref := bootEquiv(t, cfg, true)
			p := obs.NewProfiler(target.Img)
			p.Attach(target.CPU)
			sc.run(target, ref)
			if err := p.CheckConservation(); err != nil {
				t.Errorf("%s/%s: %v", cfg.Name(), sc.name, err)
			}
		}
	}
}

// TestProfilerConservationFuzz: one profiler per worker kernel, a seeded
// campaign with fault injection at -workers 1 and 4 — conservation holds on
// every worker CPU, and the campaign report stays byte-identical to an
// unprofiled run.
func TestProfilerConservationFuzz(t *testing.T) {
	plan := inject.DefaultPlan(17)
	opts := fuzz.Options{Iters: 64, Seed: 17, Config: core.Vanilla, Plan: &plan}
	baseline := ""
	for _, workers := range []int{1, 4} {
		o := opts
		o.Workers = workers
		f, err := fuzz.New(o)
		if err != nil {
			t.Fatal(err)
		}
		ks, err := f.Kernels()
		if err != nil {
			t.Fatal(err)
		}
		profs := make([]*obs.Profiler, 0, workers)
		for _, k := range ks {
			p := obs.NewProfiler(k.Img)
			p.Attach(k.CPU)
			profs = append(profs, p)
		}
		rep, err := f.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for wi, p := range profs {
			if err := p.CheckConservation(); err != nil {
				t.Errorf("workers=%d worker %d: %v", workers, wi, err)
			}
		}
		if baseline == "" {
			baseline = rep.String()
		} else if rep.String() != baseline {
			t.Errorf("workers=%d: profiled report diverges from workers=1", workers)
		}
	}
	// The profiled report must match an entirely unobserved campaign.
	o := opts
	o.Workers = 1
	f, err := fuzz.New(o)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.String() != baseline {
		t.Error("profiled campaign report diverges from unprofiled campaign")
	}
}
