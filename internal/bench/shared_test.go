// Shared translations at system scale: the forks of one golden kernel adopt
// the blocks their siblings formed over the golden's frozen code (see
// cpu.SharedBlocks). That nothing a fork computes depends on it, forks
// racing to publish included, is the oracle's boot and workers axes
// (internal/oracle).
package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernel"
)

// suiteRun is one Table 1 suite pass on one kernel: its emulated totals and
// the block counters it left.
type suiteRun struct {
	cycles, instrs uint64
	bs             cpu.BlockStats
}

// runSuiteOn runs the Table 1 suite once on k.
func runSuiteOn(t *testing.T, k *kernel.Kernel) suiteRun {
	t.Helper()
	instrs0 := k.CPU.Instrs
	cycles, err := RunTable1Suite(k)
	if err != nil {
		t.Fatal(err)
	}
	return suiteRun{cycles: cycles, instrs: k.CPU.Instrs - instrs0, bs: k.CPU.BlockStats()}
}

// bootFork returns a fork of cfg's golden kernel.
func bootFork(t *testing.T, cfg core.Config) *kernel.Kernel {
	t.Helper()
	k, err := kernel.Boot(cfg, kernel.WithCache())
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestSecondForkAdoptsBlocks: on a fresh golden with two forks besides
// its first (which shares nothing), the fork that runs the Table 1 suite
// first forms its blocks and publishes them, and the other, running the
// same suite, adopts nearly all of them instead of forming its own — with
// identical emulated totals. Measured on both columns: the first forms 58
// blocks and defers 1,031 (Vanilla) and 1,374 (MPX+X) dispatches at the
// hotness gate; the second adopts 54 blocks, forms 8 and defers 230 and
// 326. It forms a few because adopted blocks move where its dispatches
// land, so some entries the first never heated up get hot.
func TestSecondForkAdoptsBlocks(t *testing.T) {
	defer kernel.SetBuildCache(kernel.SetBuildCache(core.NewImageCache(nil)))
	for _, cfg := range equivConfigs() {
		bootFork(t, cfg)
		a, b := bootFork(t, cfg), bootFork(t, cfg)
		first := runSuiteOn(t, a)
		second := runSuiteOn(t, b)
		t.Logf("%s: first fork formed %d adopted %d cold %d; second formed %d adopted %d cold %d",
			cfg.Name(), first.bs.Formed, first.bs.Adopted, first.bs.Cold,
			second.bs.Formed, second.bs.Adopted, second.bs.Cold)
		if first.cycles != second.cycles || first.instrs != second.instrs {
			t.Errorf("%s: second fork's totals %d cycles / %d instrs differ from the first's %d / %d",
				cfg.Name(), second.cycles, second.instrs, first.cycles, first.instrs)
		}
		if first.bs.Formed == 0 || first.bs.Adopted != 0 {
			t.Errorf("%s: the first fork to run on a fresh golden must form every block itself: %+v", cfg.Name(), first.bs)
		}
		if second.bs.Adopted*10 < first.bs.Formed*9 {
			t.Errorf("%s: second fork adopted %d of the first's %d blocks, want at least 90%%",
				cfg.Name(), second.bs.Adopted, first.bs.Formed)
		}
		if second.bs.Formed*4 > first.bs.Formed {
			t.Errorf("%s: second fork formed %d blocks, want at most a quarter of the first's %d",
				cfg.Name(), second.bs.Formed, first.bs.Formed)
		}
		if second.bs.Cold*2 > first.bs.Cold {
			t.Errorf("%s: adoption must skip the hotness gate: cold %d, want at most half the first fork's %d",
				cfg.Name(), second.bs.Cold, first.bs.Cold)
		}
	}
}
