// Command krxbench runs the evaluation harness: Table 1 (LMBench-style
// micro-benchmarks across all eleven protection configurations), Table 2
// (Phoronix-style macro workloads across the six full-protection columns),
// and the DESIGN.md ablation sweeps.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sfi"
	"repro/internal/store"
)

func main() {
	var (
		t1       = flag.Bool("table1", false, "run the Table 1 micro-benchmarks")
		t2       = flag.Bool("table2", false, "run the Table 2 macro workloads")
		ablation = flag.Bool("ablation", false, "run the ablation sweeps (k, XOM mechanisms, guard)")
		compare  = flag.Bool("compare", false, "interleave the paper's numbers (measured / paper)")
		profile  = flag.Bool("profile", false, "cycle-attribution profile (overhead decomposition)")
		jsonOut  = flag.Bool("json", false, "emulator host-performance benchmark, machine-readable JSON (host ns/op + emulated cycles, decode cache on/off)")
		traceOut = flag.String("trace", "", "run the Table 1 suite under the fully protected preset with event tracing; write Chrome trace-event JSON to this file")
		funcs    = flag.Bool("funcs", false, "cycle-attributed per-function profile of the Table 1 suite (conservation-checked)")
		stats    = flag.Bool("stats", false, "print the observability metric registry after the traced/profiled run")
		iters    = flag.Int("iters", 10, "measured iterations per data point")
		cacheDir = flag.String("cache-dir", "", "persistent artifact store directory: kernel images are reused across invocations instead of re-linked")
		quota    = flag.String("cache-quota", "1G", "artifact store byte quota, LRU-evicted (accepts K/M/G suffixes; 0 = unlimited)")
		cpuProf  = flag.String("cpuprofile", "", "write a host pprof CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a host pprof heap profile (collected after the run) to this file")
	)
	flag.Parse()
	observe := *traceOut != "" || *funcs || *stats
	if !*t1 && !*t2 && !*ablation && !*profile && !*jsonOut && !observe {
		*t1, *t2, *ablation = true, true, true
	}
	stopProf, err := obs.StartPprof(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "krxbench:", err)
		os.Exit(1)
	}
	defer stopProf()
	fail := func(err error) {
		stopProf()
		fmt.Fprintln(os.Stderr, "krxbench:", err)
		os.Exit(1)
	}
	if *cacheDir != "" {
		artifacts, err := store.Open(*cacheDir, *quota)
		if err != nil {
			fail(err)
		}
		kernel.SetBuildCache(core.NewImageCache(artifacts))
	}

	if *jsonOut {
		rep, err := bench.EmuBench(*iters)
		if err != nil {
			fail(err)
		}
		b, err := rep.JSON()
		if err != nil {
			fail(err)
		}
		fmt.Println(string(b))
		return
	}

	if observe {
		if err := runObserved(*traceOut, *funcs, *stats); err != nil {
			fail(err)
		}
		return
	}

	if *t1 {
		tbl, err := bench.RunTable1(*iters)
		if err != nil {
			fail(err)
		}
		if *compare {
			fmt.Println(bench.FormatComparison(tbl, nil, true))
			printAgreement(bench.ShapeAgreement(tbl, nil, true))
		} else {
			fmt.Println(tbl.Format())
		}
	}
	if *t2 {
		tbl, err := bench.RunTable2(*iters)
		if err != nil {
			fail(err)
		}
		if *compare {
			fmt.Println(bench.FormatComparison(tbl, bench.PaperTable2, false))
			printAgreement(bench.ShapeAgreement(tbl, bench.PaperTable2, false))
		} else {
			fmt.Println(tbl.Format())
		}
	}
	if *profile {
		for _, cfg := range []core.Config{
			core.Vanilla,
			{XOM: core.XOMSFI, SFILevel: sfi.O0, Seed: 9},
			{XOM: core.XOMSFI, SFILevel: sfi.O3, Seed: 9},
			{XOM: core.XOMMPX, Seed: 9},
			{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 9},
			{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RADecoy, Seed: 9},
		} {
			p, err := bench.RunProfile(cfg)
			if err != nil {
				fail(err)
			}
			fmt.Println(p.Format(6))
		}
	}
	if *ablation {
		ks, err := bench.KSweep(nil, *iters)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatKSweep(ks))
		xs, err := bench.XOMCompare(*iters)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatXOMCompare(xs))
		gc, err := bench.GuardCheck()
		if err != nil {
			fail(err)
		}
		fmt.Println(gc)
	}
}

// runObserved executes the Table 1 suite once under the fully protected
// preset with the observability layer armed: an event tracer (exported as
// Chrome trace-event JSON), the cycle-attributed function profiler, and the
// metric registry. Tracing and profiling never perturb the emulated
// machine, so the suite's cycle totals match an unobserved run exactly.
func runObserved(traceOut string, funcs, stats bool) error {
	presets := core.Presets()
	cfg := presets[len(presets)-1]
	tr := obs.NewTracer(1 << 16)
	k, err := kernel.Boot(cfg, kernel.WithCache(), kernel.WithTracer(tr))
	if err != nil {
		return err
	}
	var prof *obs.Profiler
	if funcs {
		prof = obs.NewProfiler(k.Img)
		prof.Attach(k.CPU)
	}
	cycles, err := bench.RunTable1Suite(k)
	if err != nil {
		return err
	}
	fmt.Printf("table1-suite/%s: %d emulated cycles, %d trace events\n", cfg.Name(), cycles, tr.Len())
	if prof != nil {
		if err := prof.CheckConservation(); err != nil {
			return fmt.Errorf("profiler conservation: %w", err)
		}
		fmt.Println(prof.Report().Format(12, func(nr int64) string {
			return kernel.SyscallName(uint64(nr))
		}))
	}
	if traceOut != "" {
		b, err := obs.ChromeTrace(tr.Events())
		if err != nil {
			return err
		}
		if err := os.WriteFile(traceOut, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d trace events to %s (load in about://tracing or Perfetto)\n", tr.Len(), traceOut)
	}
	if stats {
		reg := obs.NewRegistry()
		obs.RegisterCPU(reg, "cpu", k.CPU)
		obs.RegisterDecodeCache(reg, "decode_cache", k.CPU)
		obs.RegisterBlockEngine(reg, "block_engine", k.CPU)
		obs.RegisterDataTLB(reg, "dtlb", k.CPU.AS)
		obs.RegisterRollback(reg, "rollback", k.CPU.AS)
		obs.RegisterPhysmap(reg, "physmap", k.CPU.AS)
		obs.RegisterStore(reg, "store", kernel.BuildCache())
		obs.RegisterBoot(reg, "boot", kernel.FreshBoots, kernel.ForkedBoots)
		obs.RegisterTracer(reg, "trace", tr)
		fmt.Print(reg.Format())
	}
	return nil
}

func printAgreement(agree map[string]float64) {
	cfgs := make([]string, 0, len(agree))
	for cfg := range agree {
		cfgs = append(cfgs, cfg)
	}
	sort.Strings(cfgs)
	fmt.Print("rank agreement with the paper:")
	for _, cfg := range cfgs {
		fmt.Printf("  %s=%.0f%%", cfg, 100*agree[cfg])
	}
	fmt.Println()
	fmt.Println()
}
