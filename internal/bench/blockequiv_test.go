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
	"repro/internal/fuzz"
	"repro/internal/kernel"
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
// across engine modes (compiled, off), across -workers 1 and
// 4, with forked workers, and with an eager hotness threshold (-hot 1) —
// the worker-count invariance the deterministic scheduler guarantees must
// survive the compiled dispatch path. The campaign runs with coverage on
// and no injector, so blocks genuinely dispatch: every block-enabled leg
// must retire instructions through them.
func TestFuzzReportBlockInvariance(t *testing.T) {
	type leg struct {
		name    string
		workers int
		fork    bool
		hot     int
	}
	run := func(l leg, m blockMode) string {
		f, err := fuzz.New(fuzz.Options{Iters: 96, Seed: 17, Config: core.Vanilla, Workers: l.workers, Fork: l.fork})
		if err != nil {
			t.Fatal(err)
		}
		ks, err := f.Kernels()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range ks {
			k.CPU.SetBlockEngine(m.blocksOn)
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
		if m.blocksOn && blockInstrs == 0 {
			t.Errorf("%s/%s: no instruction ran in a block", l.name, m.name)
		} else if !m.blocksOn && blockInstrs != 0 {
			t.Errorf("%s/%s: disabled engine ran %d block instructions", l.name, m.name, blockInstrs)
		}
		return rep.String()
	}
	legs := []leg{
		{"w1", 1, false, 0},
		{"w4", 4, false, 0},
		{"w4-fork", 4, true, 0},
		{"w1-hot1", 1, false, 1},
		{"w4-hot1", 4, false, 1},
	}
	base := run(legs[0], blockModes[0])
	for _, l := range legs {
		for _, m := range blockModes {
			if l == legs[0] && m == blockModes[0] {
				continue
			}
			if got := run(l, m); got != base {
				t.Errorf("%s mode=%s: report diverges from %s mode=%s",
					l.name, m.name, legs[0].name, blockModes[0].name)
			}
		}
	}
}
