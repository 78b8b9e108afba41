// Command krxfuzz runs the syscall fuzzer with fault injection against the
// simulated kernel: seeded program generation, corpus-guided mutation,
// deterministic fault injection, crash triage with deduplication, and
// reproducer minimization. The same -seed always yields a byte-identical
// report.
//
// The campaign runs on fuzz.Fuzzer's batch scheduler; -workers spreads each
// batch over in-process workers without changing the report. SIGINT/SIGTERM
// cancel it gracefully: the in-flight batch drains and the report of every
// completed iteration is emitted with "partial": true. -corpus-dir
// checkpoints at batch boundaries so a cancelled campaign can resume.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/fuzz"
	"repro/internal/inject"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sfi"
	"repro/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "krxfuzz:", err)
		os.Exit(1)
	}
}

func run() error {
	iters := flag.Int("iters", 1000, "programs to execute")
	seed := flag.Int64("seed", 42, "master seed (generation, mutation, injection)")
	noInject := flag.Bool("no-inject", false, "disable fault injection")
	vanilla := flag.Bool("vanilla", false, "fuzz the unprotected kernel instead of SFI+X")
	budget := flag.Uint64("budget", 0, "per-syscall instruction watchdog budget (0 = default)")
	workers := flag.Int("workers", 1, "parallel execution workers (report is byte-identical for any count)")
	jsonOut := flag.Bool("json", false, "emit the report as machine-readable JSON (schema_version marks the format)")
	traceOut := flag.String("trace", "", "record the campaign event stream (byte-identical for any -workers count); write Chrome trace-event JSON to this file")
	stats := flag.Bool("stats", false, "print the observability metric registry after the campaign")
	cacheDir := flag.String("cache-dir", "", "persistent artifact store directory: kernel images are reused across invocations; a warm run performs zero link builds")
	cacheQuota := flag.String("cache-quota", "1G", "artifact store byte quota, LRU-evicted (accepts K/M/G suffixes; 0 = unlimited)")
	corpusDir := flag.String("corpus-dir", "", "campaign checkpoint store directory: the corpus, coverage, and crash ledger persist at batch boundaries and the campaign resumes from its last checkpoint (incompatible with -trace)")
	cpuProf := flag.String("cpuprofile", "", "write a host pprof CPU profile of the campaign to this file")
	memProf := flag.String("memprofile", "", "write a host pprof heap profile (collected after the campaign) to this file")
	flag.Parse()

	stopProf, err := obs.StartPprof(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	// Graceful shutdown: first SIGINT/SIGTERM cancels the campaign; the
	// in-flight batch drains and a partial report is emitted. A second
	// signal kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := core.Config{
		XOM: core.XOMSFI, SFILevel: sfi.O3,
		Diversify: true, RAProt: diversify.RAEncrypt,
		Seed:           *seed,
		WatchdogBudget: *budget,
	}
	if *vanilla {
		cfg = core.Config{Seed: *seed, WatchdogBudget: *budget}
	}
	opts := fuzz.Options{
		Iters: *iters, Seed: *seed, Config: cfg, Workers: *workers,
		Trace: *traceOut != "",
	}
	if !*noInject {
		plan := inject.DefaultPlan(*seed)
		opts.Plan = &plan
	}

	// Persistent artifact store: every Boot(WithCache) in this process
	// builds through it, so a populated store serves the image with zero
	// link builds.
	if *cacheDir != "" {
		artifacts, err := store.Open(*cacheDir, *cacheQuota)
		if err != nil {
			return err
		}
		kernel.SetBuildCache(core.NewImageCache(artifacts))
	}
	if *corpusDir != "" {
		cs, err := store.Open(*corpusDir, "0")
		if err != nil {
			return err
		}
		opts.Checkpoint = cs
	}

	f, err := fuzz.New(opts)
	if err != nil {
		return err
	}
	rep, err := f.RunContext(ctx)
	if err != nil {
		return err
	}
	if *jsonOut {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	} else {
		fmt.Print(rep.String())
	}
	if *traceOut != "" {
		b, err := obs.ChromeTrace(rep.Trace)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceOut, b, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "krxfuzz: wrote %d trace events to %s\n", len(rep.Trace), *traceOut)
	}
	if *stats {
		reg, err := statsRegistry(f)
		if err != nil {
			return err
		}
		fmt.Print(reg.Format())
	}
	return nil
}

// statsRegistry builds the -stats registry of a finished campaign. cpu.instrs
// and cpu.cycles are campaign-cumulative, summed over workers; the decode-
// cache, block-engine and address-space gauges describe the first worker's
// kernel.
func statsRegistry(f *fuzz.Fuzzer) (*obs.Registry, error) {
	k, err := f.Kernel()
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	reg.Gauge("cpu.instrs", func() uint64 { n, _ := f.Retired(); return n })
	reg.Gauge("cpu.cycles", func() uint64 { _, n := f.Retired(); return n })
	obs.RegisterDecodeCache(reg, "decode_cache", k.CPU)
	obs.RegisterBlockEngine(reg, "block_engine", k.CPU)
	obs.RegisterDataTLB(reg, "dtlb", k.CPU.AS)
	obs.RegisterRollback(reg, "rollback", k.CPU.AS)
	obs.RegisterPhysmap(reg, "physmap", k.CPU.AS)
	obs.RegisterStore(reg, "store", kernel.BuildCache())
	obs.RegisterBoot(reg, "boot", kernel.FreshBoots, kernel.ForkedBoots)
	return reg, nil
}
