// Block-engine bit-identity enforcement at system scale: the superblock
// engine, which compiles every block to per-opcode thunks, must not change
// any architecturally visible outcome of the Table 1 suite, the paper's
// attack scenarios, or a fuzzing campaign — and the fuzz report must stay
// byte-identical across worker counts with the engine on. These runs are
// probe-free (probes disarm the block fast path; the fuzzer's coverage sink
// does not), so the on-side genuinely executes through block dispatch; each
// test asserts so via BlockStats.
package bench

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/fuzz"
	"repro/internal/inject"
	"repro/internal/kernel"
	"repro/internal/sfi"
)

// blockMode names one engine configuration. compiled is the default
// shipping configuration; off is the single-step baseline.
type blockMode struct {
	name     string
	blocksOn bool
}

var blockModes = []blockMode{
	{"compiled", true},
	{"off", false},
}

func bootBlocks(t *testing.T, cfg core.Config, m blockMode) *kernel.Kernel {
	t.Helper()
	k, err := kernel.Boot(cfg, kernel.WithCache())
	if err != nil {
		t.Fatal(err)
	}
	k.CPU.SetBlockEngine(m.blocksOn)
	return k
}

// TestTable1SuiteBlockEquivalence: every micro-op under compiled block
// dispatch must produce the identical cycle and instruction totals as
// single-step, on the unprotected and the fully protected columns.
func TestTable1SuiteBlockEquivalence(t *testing.T) {
	for _, cfg := range equivConfigs() {
		type outcome struct {
			cycles, instrs uint64
		}
		run := func(m blockMode) outcome {
			k := bootBlocks(t, cfg, m)
			instrs0 := k.CPU.Instrs
			cycles, err := RunTable1Suite(k)
			if err != nil {
				t.Fatalf("%s/%s: %v", cfg.Name(), m.name, err)
			}
			bs := k.CPU.BlockStats()
			if m.blocksOn && bs.Dispatches == 0 {
				t.Fatalf("%s/%s: block engine never dispatched", cfg.Name(), m.name)
			} else if !m.blocksOn && bs.Dispatches != 0 {
				t.Fatalf("%s/%s: disabled engine dispatched: %+v", cfg.Name(), m.name, bs)
			}
			return outcome{cycles: cycles, instrs: k.CPU.Instrs - instrs0}
		}
		base := run(blockModes[0])
		for _, m := range blockModes[1:] {
			if got := run(m); got != base {
				t.Errorf("%s: %s diverges from %s: %+v vs %+v",
					cfg.Name(), m.name, blockModes[0].name, got, base)
			}
		}
	}
}

// TestAttackScenariosBlockEquivalence: the paper's three attack scenarios —
// including JIT-ROP gadget harvesting, exactly the adversarial control flow
// and text-reading a block engine could corrupt — end identically in every
// engine mode.
func TestAttackScenariosBlockEquivalence(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(cfg core.Config, m blockMode) (attack.Result, *kernel.Kernel)
	}{
		{"DirectROP", func(cfg core.Config, m blockMode) (attack.Result, *kernel.Kernel) {
			target := bootBlocks(t, cfg, m)
			ref := bootBlocks(t, cfg, m)
			return attack.DirectROP(target, ref), target
		}},
		{"JITROP", func(cfg core.Config, m blockMode) (attack.Result, *kernel.Kernel) {
			target := bootBlocks(t, cfg, m)
			return attack.JITROP(target), target
		}},
		{"IndirectJITROP", func(cfg core.Config, m blockMode) (attack.Result, *kernel.Kernel) {
			target := bootBlocks(t, cfg, m)
			return attack.IndirectJITROP(target), target
		}},
	}
	for _, cfg := range equivConfigs() {
		for _, sc := range scenarios {
			rBase, kBase := sc.run(cfg, blockModes[0])
			// On the unprotected column the attack genuinely executes its
			// payload; there the engine must have been in the loop. Protected
			// columns may fault before a single block dispatches.
			if bs := kBase.CPU.BlockStats(); cfg.Name() == core.Vanilla.Name() && bs.Dispatches == 0 {
				t.Errorf("%s/%s: block engine never dispatched on the target", cfg.Name(), sc.name)
			}
			for _, m := range blockModes[1:] {
				r, k := sc.run(cfg, m)
				if r != rBase {
					t.Errorf("%s/%s: %s result diverges from %s:\n%v\nvs\n%v",
						cfg.Name(), sc.name, m.name, blockModes[0].name, r, rBase)
				}
				if k.CPU.Instrs != kBase.CPU.Instrs || k.CPU.Cycles != kBase.CPU.Cycles {
					t.Errorf("%s/%s: %s counters diverge: instrs %d/%d cycles %d/%d",
						cfg.Name(), sc.name, m.name, k.CPU.Instrs, kBase.CPU.Instrs,
						k.CPU.Cycles, kBase.CPU.Cycles)
				}
			}
		}
	}
}

// TestFuzzReportBlockInvariance: campaign reports must be byte-identical
// across engine modes (compiled, off, and compiled with an eager hotness
// threshold of 1) and across 1 and 4 workers — the worker-count invariance
// the deterministic scheduler guarantees must survive the compiled dispatch
// path. The campaigns are the seed-17 Vanilla campaign, krxfuzz's default
// (-seed 42 -iters 200: SFI+X under inject.DefaultPlan(42)), and the same
// campaign as Vanilla with no injection. Coverage is on in all of them, so
// blocks genuinely dispatch: every block-enabled leg must retire
// instructions through them. The injector is an instruction-count ticker,
// so the injected campaign runs compiled blocks between its fault
// opportunities.
func TestFuzzReportBlockInvariance(t *testing.T) {
	plan := inject.DefaultPlan(42)
	sfix := core.Config{
		XOM: core.XOMSFI, SFILevel: sfi.O3,
		Diversify: true, RAProt: diversify.RAEncrypt,
		Seed: 42,
	}
	campaigns := []struct {
		name string
		opts fuzz.Options
	}{
		{"vanilla-seed17", fuzz.Options{Iters: 96, Seed: 17, Config: core.Vanilla}},
		{"sfix-inject-seed42", fuzz.Options{Iters: 200, Seed: 42, Config: sfix, Plan: &plan}},
		{"vanilla-seed42", fuzz.Options{Iters: 200, Seed: 42, Config: core.Config{Seed: 42}}},
	}
	type leg struct {
		name string
		m    blockMode
		hot  int
	}
	legs := []leg{
		{"compiled", blockModes[0], 0},
		{"off", blockModes[1], 0},
		{"hot1", blockModes[0], 1},
	}
	for _, c := range campaigns {
		t.Run(c.name, func(t *testing.T) {
			run := func(workers int, l leg) string {
				opts := c.opts
				opts.Workers = workers
				f, err := fuzz.New(opts)
				if err != nil {
					t.Fatal(err)
				}
				ks, err := f.Kernels()
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range ks {
					k.CPU.SetBlockEngine(l.m.blocksOn)
					k.CPU.SetBlockHotThreshold(l.hot)
				}
				rep, err := f.Run()
				if err != nil {
					t.Fatal(err)
				}
				var blockInstrs uint64
				for _, k := range ks {
					blockInstrs += k.CPU.BlockStats().Instrs
				}
				if l.m.blocksOn && blockInstrs == 0 {
					t.Errorf("w%d/%s: no instruction ran in a block", workers, l.name)
				} else if !l.m.blocksOn && blockInstrs != 0 {
					t.Errorf("w%d/%s: disabled engine ran %d block instructions", workers, l.name, blockInstrs)
				}
				return rep.String()
			}
			base := run(1, legs[0])
			for _, workers := range []int{1, 4} {
				for _, l := range legs {
					if workers == 1 && l == legs[0] {
						continue
					}
					if got := run(workers, l); got != base {
						t.Errorf("w%d/%s: report diverges from w1/%s:\n%s\nvs\n%s",
							workers, l.name, legs[0].name, got, base)
					}
				}
			}
		})
	}
}
