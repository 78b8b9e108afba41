// Command krxattack runs the §7.3 security evaluation: the direct ROP,
// direct JIT-ROP, indirect JIT-ROP, and substitution attack scenarios
// against a matrix of kernel protection configurations, reporting which
// attacks succeed where.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/kernel"
	"repro/internal/sfi"
	"repro/internal/store"
)

func main() {
	var (
		direct   = flag.Bool("direct", false, "direct ROP with precomputed addresses")
		jitrop   = flag.Bool("jitrop", false, "direct JIT-ROP (leak-driven code harvest)")
		indirect = flag.Bool("indirect", false, "indirect JIT-ROP (return-address harvest)")
		subst    = flag.Bool("substitution", false, "the §5.3 substitution attack")
		race     = flag.Bool("race", false, "the §5.3 race-hazard window probe")
		ret2usr  = flag.Bool("ret2usr", false, "legacy ret2usr with and without SMEP")
		survival = flag.Bool("survival", false, "gadget survival analysis across seeds")
		seed     = flag.Int64("seed", 101, "target kernel diversification seed")
		cacheDir = flag.String("cache-dir", "", "persistent artifact store directory: kernel images are reused across invocations instead of re-linked")
		quota    = flag.String("cache-quota", "1G", "artifact store byte quota, LRU-evicted (accepts K/M/G suffixes; 0 = unlimited)")
	)
	flag.Parse()
	if *cacheDir != "" {
		artifacts, err := store.Open(*cacheDir, *quota)
		if err != nil {
			fmt.Fprintln(os.Stderr, "krxattack:", err)
			os.Exit(1)
		}
		kernel.SetBuildCache(core.NewImageCache(artifacts))
	}
	sel := scenarios{*direct, *jitrop, *indirect, *subst, *race, *ret2usr, *survival}
	if sel == (scenarios{}) {
		sel = allScenarios
	}
	if err := ladder(os.Stdout, *seed, sel); err != nil {
		fmt.Fprintln(os.Stderr, "krxattack:", err)
		os.Exit(1)
	}
}

// scenarios selects which parts of the ladder run.
type scenarios struct {
	direct, jitrop, indirect, subst, race, ret2usr, survival bool
}

var allScenarios = scenarios{true, true, true, true, true, true, true}

// bootFailure carries a boot error out of the ladder's scenario calls.
type bootFailure struct{ err error }

// ladder runs the selected scenarios against every target configuration
// and writes the report to w. Every kernel is booted through the build
// cache, so each configuration is built and constructed once and every
// further boot of it is a fork of its golden kernel.
func ladder(w io.Writer, seed int64, sel scenarios) (err error) {
	defer func() {
		if p := recover(); p != nil {
			bf, ok := p.(bootFailure)
			if !ok {
				panic(p)
			}
			err = bf.err
		}
	}()
	targets := []core.Config{
		core.Vanilla,
		{Diversify: true, RAProt: diversify.RAEncrypt, Seed: seed},
		{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, Seed: seed},
		{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: seed},
		{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RADecoy, Seed: seed},
		{XOM: core.XOMMPX, Diversify: true, RAProt: diversify.RAEncrypt, Seed: seed},
	}

	boot := func(cfg core.Config) *kernel.Kernel {
		k, err := kernel.Boot(cfg, kernel.WithCache())
		if err != nil {
			panic(bootFailure{err})
		}
		return k
	}

	for _, cfg := range targets {
		fmt.Fprintf(w, "=== target: %s ===\n", cfg.Name())
		if sel.direct {
			ref := boot(core.Config{XOM: cfg.XOM, SFILevel: cfg.SFILevel,
				Diversify: cfg.Diversify, RAProt: cfg.RAProt, Seed: seed + 7919})
			fmt.Fprintln(w, " ", attack.DirectROP(boot(cfg), ref))
		}
		if sel.jitrop {
			fmt.Fprintln(w, " ", attack.JITROP(boot(cfg)))
		}
		if sel.indirect {
			fmt.Fprintln(w, " ", attack.IndirectJITROP(boot(cfg)))
		}
		if sel.subst && cfg.RAProt == diversify.RAEncrypt && cfg.Diversify {
			fmt.Fprintln(w, " ", attack.Substitution(boot(cfg)))
		}
		if sel.race && cfg.RAProt == diversify.RAEncrypt && cfg.Diversify {
			fmt.Fprintln(w, " ", attack.RaceHazard(boot(cfg)))
		}
		fmt.Fprintln(w)
	}

	if sel.ret2usr {
		fmt.Fprintln(w, "=== ret2usr (the §3 baseline kR^X builds upon) ===")
		legacy := boot(core.Vanilla)
		legacy.CPU.SMEP = false
		fmt.Fprintln(w, "  no SMEP: ", attack.Ret2usr(legacy))
		fmt.Fprintln(w, "  SMEP:    ", attack.Ret2usr(boot(core.Vanilla)))
		fmt.Fprintln(w)
	}

	if sel.survival {
		fmt.Fprintln(w, "=== gadget survival across seeds (§7.3 byte-for-byte comparison) ===")
		a := boot(core.Config{Diversify: true, Seed: seed})
		b := boot(core.Config{Diversify: true, Seed: seed + 1})
		total, surviving := attack.GadgetSurvival(a, b)
		fmt.Fprintf(w, "  diversified: %d/%d gadgets at their original location (%.2f%%)\n",
			surviving, total, 100*float64(surviving)/float64(total))
		v1, v2 := boot(core.Vanilla), boot(core.Vanilla)
		total, surviving = attack.GadgetSurvival(v1, v2)
		fmt.Fprintf(w, "  vanilla:     %d/%d gadgets at their original location (%.2f%%)\n",
			surviving, total, 100*float64(surviving)/float64(total))
	}
	return nil
}
