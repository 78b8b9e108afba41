// Shared translations at system scale: the forks of one golden kernel adopt
// the blocks their siblings formed over the golden's frozen code (see
// cpu.SharedBlocks), and nothing a fork computes may depend on it.
package bench

import (
	"sync"
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

// uncachedSuite runs the suite on a fork stepping without a decode cache:
// the reference every shared-translation run must match.
func uncachedSuite(t *testing.T, cfg core.Config) suiteRun {
	t.Helper()
	k := bootFork(t, cfg)
	k.CPU.SetDecodeCache(false)
	return runSuiteOn(t, k)
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

// TestConcurrentForksShareTranslations: four goroutines fork one fresh
// golden and run the Table 1 suite at once, racing to publish and adopt
// each other's translations. Every column must match an uncached fork's
// totals. Under -race this is the publication race check.
func TestConcurrentForksShareTranslations(t *testing.T) {
	defer kernel.SetBuildCache(kernel.SetBuildCache(core.NewImageCache(nil)))
	for _, cfg := range equivConfigs() {
		want := uncachedSuite(t, cfg)
		const workers = 4
		got := make([]suiteRun, workers)
		kernels := make([]*kernel.Kernel, workers)
		for i := range kernels {
			kernels[i] = bootFork(t, cfg)
		}
		var wg sync.WaitGroup
		for i := range kernels {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for pass := 0; pass < 2; pass++ {
					instrs0 := kernels[i].CPU.Instrs
					cycles, err := RunTable1Suite(kernels[i])
					if err != nil {
						t.Error(err)
						return
					}
					got[i].cycles += cycles
					got[i].instrs += kernels[i].CPU.Instrs - instrs0
				}
				got[i].bs = kernels[i].CPU.BlockStats()
			}(i)
		}
		wg.Wait()
		var formed, adopted uint64
		for i, g := range got {
			if g.cycles != 2*want.cycles || g.instrs != 2*want.instrs {
				t.Errorf("%s: worker %d ran two passes in %d cycles / %d instrs, uncached fork %d / %d per pass",
					cfg.Name(), i, g.cycles, g.instrs, want.cycles, want.instrs)
			}
			formed += g.bs.Formed
			adopted += g.bs.Adopted
		}
		if formed == 0 || adopted == 0 {
			t.Errorf("%s: four forks formed %d and adopted %d blocks: nothing was shared", cfg.Name(), formed, adopted)
		}
	}
}
