package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/kernel"
	"repro/internal/sfi"
)

// ladderWarmups is the number of untimed ladders after set-up.
const ladderWarmups = 1

// ladderTargets are krxattack's target configurations for -seed seed.
func ladderTargets(seed int64) []core.Config {
	return []core.Config{
		core.Vanilla,
		{Diversify: true, RAProt: diversify.RAEncrypt, Seed: seed},
		{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, Seed: seed},
		{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: seed},
		{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RADecoy, Seed: seed},
		{XOM: core.XOMMPX, Diversify: true, RAProt: diversify.RAEncrypt, Seed: seed},
	}
}

// directRef is the attacker's reference build for the direct-ROP scenario:
// the target's configuration under another seed.
func directRef(cfg core.Config, seed int64) core.Config {
	return core.Config{XOM: cfg.XOM, SFILevel: cfg.SFILevel,
		Diversify: cfg.Diversify, RAProt: cfg.RAProt, Seed: seed + 7919}
}

// survivalPair are the two diversified builds the gadget-survival scenario
// compares.
func survivalPair(seed int64) [2]core.Config {
	return [2]core.Config{{Diversify: true, Seed: seed}, {Diversify: true, Seed: seed + 1}}
}

// ladderConfigs lists every configuration one ladder boots.
func ladderConfigs(seed int64) []core.Config {
	var cfgs []core.Config
	for _, cfg := range ladderTargets(seed) {
		cfgs = append(cfgs, cfg, directRef(cfg, seed))
	}
	sp := survivalPair(seed)
	return append(cfgs, sp[0], sp[1])
}

func runLadder(rc runConfig) *outcome {
	out := newOutcome(rc)
	for i := 0; i < rc.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := coldBoot(ladderConfigs(rc.seed)); err != nil {
			out.attempted++
			out.fail(1, fmt.Errorf("set-up: %w", err))
			return out
		}
		out.setups = append(out.setups, time.Since(t0))
	}
	var want string
	for i := 0; i < ladderWarmups; i++ {
		text, outcomes, err := ladder(rc.seed, nil, nil)
		if err == nil && want == "" {
			want, err = text, checkLadder(rc.atDefault, text, outcomes)
		}
		if err != nil {
			out.attempted++
			out.fail(1, fmt.Errorf("warm-up ladder: %w", err))
			return out
		}
	}
	start := time.Now()
	for n := 0; rc.more(start, n); n++ {
		out.attempted++
		t0 := time.Now()
		text, _, err := ladder(rc.seed, nil, nil)
		elapsed := time.Since(t0)
		out.ops = append(out.ops, elapsed)
		if err == nil && text != want {
			err = errors.New("ladder output differs from the first ladder's")
		}
		if err == nil && rc.trace {
			l := out.tr.lane(noSpan)
			l.setUnit(len(out.ops) - 1)
			stats0 := kernel.BuildCache().Stats()
			t1 := time.Now()
			var traced string
			traced, _, err = ladder(rc.seed, l, out.ctr)
			out.ctr.pair(elapsed, time.Since(t1))
			out.ctr.addBuilds(stats0, kernel.BuildCache().Stats())
			if err == nil && traced != want {
				err = errors.New("traced ladder output differs from the untraced one")
			}
		}
		if err != nil {
			out.fail(1, err)
		}
	}
	out.op = median(seconds(out.ops))
	return out
}

// ladder runs krxattack's default ladder (every scenario against every
// target) and returns the text krxattack prints plus each scenario's
// outcome as "target/scenario: VERDICT at stage". With a lane it records
// a span around every boot and scenario and adds each kernel's counters
// to ctr; the nil lane of the untimed path records nothing.
func ladder(seed int64, l *lane, ctr *counters) (string, []string, error) {
	root := l.begin("attack.ladder")
	defer l.end(root)
	var sb strings.Builder
	var outcomes []string
	var booted []*kernel.Kernel
	var bootErr error
	boot := func(cfg core.Config) *kernel.Kernel {
		s := l.begin("kernel.boot")
		k, err := kernel.Boot(cfg, kernel.WithCache())
		l.end(s)
		if err != nil {
			bootErr = errors.Join(bootErr, err)
			return nil
		}
		booted = append(booted, k)
		return k
	}
	// scenario runs one attack under its span, then folds the counters of
	// the kernels it used.
	scenario := func(name, label string, run func() attack.Result) string {
		if bootErr != nil {
			return ""
		}
		s := l.begin("attack." + name)
		r := run()
		l.end(s)
		outcomes = append(outcomes, fmt.Sprintf("%s/%s: %s", label, r.Name, verdict(r)))
		if ctr != nil {
			for _, k := range booted {
				ctr.addKernel(k)
				ctr.addInstrs(k)
			}
		}
		booted = booted[:0]
		return r.String()
	}

	for _, cfg := range ladderTargets(seed) {
		fmt.Fprintf(&sb, "=== target: %s ===\n", cfg.Name())
		name := cfg.Name()
		ref, tgt := boot(directRef(cfg, seed)), boot(cfg)
		fmt.Fprintln(&sb, " ", scenario("direct_rop", name, func() attack.Result { return attack.DirectROP(tgt, ref) }))
		tgt = boot(cfg)
		fmt.Fprintln(&sb, " ", scenario("jit_rop", name, func() attack.Result { return attack.JITROP(tgt) }))
		tgt = boot(cfg)
		fmt.Fprintln(&sb, " ", scenario("indirect_jit_rop", name, func() attack.Result { return attack.IndirectJITROP(tgt) }))
		if cfg.RAProt == diversify.RAEncrypt && cfg.Diversify {
			tgt = boot(cfg)
			fmt.Fprintln(&sb, " ", scenario("substitution", name, func() attack.Result { return attack.Substitution(tgt) }))
			tgt = boot(cfg)
			fmt.Fprintln(&sb, " ", scenario("race_hazard", name, func() attack.Result { return attack.RaceHazard(tgt) }))
		}
		fmt.Fprintln(&sb)
	}

	fmt.Fprintln(&sb, "=== ret2usr (the §3 baseline kR^X builds upon) ===")
	legacy := boot(core.Vanilla)
	fmt.Fprintln(&sb, "  no SMEP: ", scenario("ret2usr", "no-SMEP", func() attack.Result {
		legacy.CPU.SMEP = false
		return attack.Ret2usr(legacy)
	}))
	smep := boot(core.Vanilla)
	fmt.Fprintln(&sb, "  SMEP:    ", scenario("ret2usr", "SMEP", func() attack.Result { return attack.Ret2usr(smep) }))
	fmt.Fprintln(&sb)

	fmt.Fprintln(&sb, "=== gadget survival across seeds (§7.3 byte-for-byte comparison) ===")
	sp := survivalPair(seed)
	a, b := boot(sp[0]), boot(sp[1])
	v1, v2 := boot(core.Vanilla), boot(core.Vanilla)
	if bootErr != nil {
		return "", nil, bootErr
	}
	s := l.begin("attack.gadget_survival")
	total, surviving := attack.GadgetSurvival(a, b)
	vTotal, vSurviving := attack.GadgetSurvival(v1, v2)
	l.end(s)
	fmt.Fprintf(&sb, "  diversified: %d/%d gadgets at their original location (%.2f%%)\n",
		surviving, total, 100*float64(surviving)/float64(total))
	fmt.Fprintf(&sb, "  vanilla:     %d/%d gadgets at their original location (%.2f%%)\n",
		vSurviving, vTotal, 100*float64(vSurviving)/float64(vTotal))
	outcomes = append(outcomes,
		fmt.Sprintf("survival: diversified %s", survivalClass(surviving, total)),
		fmt.Sprintf("survival: vanilla %s", survivalClass(vSurviving, vTotal)))
	return sb.String(), outcomes, nil
}

func verdict(r attack.Result) string {
	v := "FAILED"
	if r.Success {
		v = "SUCCEEDED"
	}
	return v + " at " + r.Stage
}

// survivalClass buckets a gadget-survival fraction the way §7.3 states it:
// diversification leaves a negligible share in place, vanilla leaves all.
func survivalClass(surviving, total int) string {
	switch {
	case total == 0:
		return "no gadgets"
	case surviving == total:
		return "all"
	case 20*surviving < total:
		return "under 5%"
	default:
		return "over 5%"
	}
}

// checkLadder checks a ladder against the security outcomes the paper
// reports, which hold for any diversification seed, and at the default
// seed against the stored reference text.
func checkLadder(atDefault bool, text string, outcomes []string) error {
	if !slices.Equal(outcomes, ladderOutcomes) {
		return fmt.Errorf("attack outcomes differ from the expected ladder:\n%s", strings.Join(outcomes, "\n"))
	}
	if atDefault {
		return checkReference("attack-ladder", text)
	}
	return nil
}
