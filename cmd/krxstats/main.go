// Command krxstats reports the §7.2 instrumentation and diversification
// statistics (pushfq/popfq elimination rate, lea elimination rate,
// coalescing rate, safe-read fraction, single-basic-block fraction,
// per-function entropy) and demonstrates the Appendix A page-table bug.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/audit"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/pgtable"
	"repro/internal/sfi"
	"repro/internal/store"
)

func main() {
	appendixA := flag.Bool("appendix-a", false, "demonstrate the Appendix A XD-bit bug")
	runAudit := flag.Bool("audit", false, "audit the security invariants of every preset")
	metrics := flag.Bool("metrics", false, "print the observability metric registry (CPU, decode cache, artifact store) for every preset")
	cacheDir := flag.String("cache-dir", "", "persistent artifact store directory: kernel images are reused across invocations instead of re-linked")
	quota := flag.String("cache-quota", "1G", "artifact store byte quota, LRU-evicted (accepts K/M/G suffixes; 0 = unlimited)")
	flag.Parse()

	if *cacheDir != "" {
		artifacts, err := store.Open(*cacheDir, *quota)
		if err != nil {
			fmt.Fprintln(os.Stderr, "krxstats:", err)
			os.Exit(1)
		}
		defer artifacts.Close()
		kernel.SetBuildCache(core.NewImageCache(artifacts))
	}

	if *appendixA {
		demoAppendixA()
		return
	}
	if *metrics {
		if err := printMetrics(); err != nil {
			fmt.Fprintln(os.Stderr, "krxstats:", err)
			os.Exit(1)
		}
		return
	}
	if *runAudit {
		for _, cfg := range core.Presets() {
			cfg.Seed = 7
			k, err := kernel.Boot(cfg, kernel.WithCache())
			if err != nil {
				fmt.Fprintln(os.Stderr, "krxstats:", err)
				os.Exit(1)
			}
			rep := audit.Audit(k)
			fmt.Printf("=== %s ===\n%s\n", cfg.Name(), rep)
			if !rep.OK() {
				fmt.Fprintf(os.Stderr, "krxstats: audit failed for %s\n", cfg.Name())
				os.Exit(1)
			}
			// Exercise the kernel so the decode-cache counters reflect real
			// execution under this configuration (the audit itself is a
			// static inspection and runs no instructions).
			for i := 0; i < 8; i++ {
				k.Syscall(kernel.SysNull)
				if err := k.WriteUser(0, append([]byte("testfile"), 0)); err == nil {
					if r := k.Syscall(kernel.SysOpen, kernel.UserBuf); !r.Failed {
						k.Syscall(kernel.SysClose, r.Ret)
					}
				}
			}
			fmt.Println(bench.DecodeCacheReport(k))
			fmt.Println(bench.BlockEngineReport(k))
			fmt.Println(bench.DataTLBReport(k))
			fmt.Println()
		}
		return
	}

	for _, cfg := range []core.Config{
		{XOM: core.XOMSFI, SFILevel: sfi.O1, Seed: 5},
		{XOM: core.XOMSFI, SFILevel: sfi.O3, Seed: 5},
		{XOM: core.XOMMPX, Seed: 5},
		{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 5},
		{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RADecoy, Seed: 5},
	} {
		k, err := kernel.Boot(cfg, kernel.WithCache())
		if err != nil {
			fmt.Fprintln(os.Stderr, "krxstats:", err)
			os.Exit(1)
		}
		fmt.Println(bench.StatsReport(k))
	}
}

// printMetrics boots every preset from the shared build cache, exercises a
// few syscalls so the execution counters reflect real work, and prints the
// unified metric registry — the one-stop view of the stats previously
// scattered across DecodeCacheReport and the build-cache counters.
func printMetrics() error {
	for _, cfg := range core.Presets() {
		cfg.Seed = 7
		k, err := kernel.Boot(cfg, kernel.WithCache())
		if err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			k.Syscall(kernel.SysNull)
			k.Syscall(kernel.SysGetpid)
		}
		// Fork the exercised kernel and run the same mix in the child: the
		// fork.* gauges then show real sharing (the frames the child still
		// shares with the parent) and real CoW traffic (the pages the
		// child's syscalls wrote, each now a private copy).
		child, err := k.Fork()
		if err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			child.Syscall(kernel.SysNull)
			child.Syscall(kernel.SysGetpid)
		}
		reg := obs.NewRegistry()
		obs.RegisterCPU(reg, "cpu", k.CPU)
		obs.RegisterDecodeCache(reg, "decode_cache", k.CPU)
		obs.RegisterBlockEngine(reg, "block_engine", k.CPU)
		obs.RegisterDataTLB(reg, "dtlb", k.CPU.AS)
		obs.RegisterStore(reg, "store", kernel.BuildCache())
		obs.RegisterFork(reg, "fork", kernel.Forks, child.Space.AS)
		fmt.Printf("=== %s ===\n%s\n", cfg.Name(), reg.Format())
	}
	return nil
}

func demoAppendixA() {
	fmt.Println("Appendix A: the pgprot_large_2_4k() XD-truncation bug")
	flags := pgtable.FlagPresent | pgtable.FlagWrite | pgtable.FlagPSE | pgtable.FlagXD
	fmt.Printf("  2MB entry flags:        %#016x (W=1, XD=1: writable, non-executable)\n", flags)
	fmt.Printf("  buggy 32-bit conversion: %#016x (XD silently cleared -> W+X violation!)\n",
		pgtable.BuggyLarge2_4k(flags))
	fmt.Printf("  fixed 64-bit conversion: %#016x (XD preserved)\n", pgtable.Large2_4k(flags))
	fmt.Println()
	fmt.Println("Appendix A: the MODULES_LEN sanity-check bug")
	huge := pgtable.ModulesLen * 2
	fmt.Printf("  module of %d bytes: buggy check accepts=%v, fixed check accepts=%v\n",
		huge, pgtable.BuggyModuleFits(huge), pgtable.ModuleFits(huge))
}
