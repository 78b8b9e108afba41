package main

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
)

// TestLadderBootsAreForks: the default ladder boots 36 kernels over 14
// configurations. Only the first boot of each configuration constructs a
// machine (its golden kernel); the 36 boots themselves are all forks.
func TestLadderBootsAreForks(t *testing.T) {
	defer kernel.SetBuildCache(kernel.SetBuildCache(core.NewImageCache(nil)))
	fresh0, forked0 := kernel.FreshBoots(), kernel.ForkedBoots()
	if err := ladder(io.Discard, 101, allScenarios); err != nil {
		t.Fatal(err)
	}
	fresh, forked := kernel.FreshBoots()-fresh0, kernel.ForkedBoots()-forked0
	t.Logf("boot.fresh %d, boot.forked %d", fresh, forked)
	if forked != 36 {
		t.Errorf("boot.forked = %d, want the ladder's 36 boots", forked)
	}
	if fresh > 14 {
		t.Errorf("boot.fresh = %d, want at most 14 (one per configuration)", fresh)
	}
}
