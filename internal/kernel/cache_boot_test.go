package kernel

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/mem"
	"repro/internal/sfi"
)

// TestBootCachedBuildsOnce: many boots of one configuration — sequential
// and racing — compile exactly once; a different configuration compiles
// exactly once more.
func TestBootCachedBuildsOnce(t *testing.T) {
	// A fresh cache isolates the counters; restore the shared one after.
	defer SetBuildCache(SetBuildCache(core.NewImageCache(nil)))
	cfg := core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 99}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Boot(cfg, WithCache()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := BuildCache().Stats().Builds; got != 1 {
		t.Fatalf("8 racing boots of one config ran %d builds, want 1", got)
	}
	other := cfg
	other.Seed = 100
	if _, err := Boot(other, WithCache()); err != nil {
		t.Fatal(err)
	}
	if got := BuildCache().Stats().Builds; got != 2 {
		t.Fatalf("second config: Stats().Builds = %d, want 2", got)
	}
	// Runtime-only knobs must hit the same entry.
	budgeted := cfg
	budgeted.WatchdogBudget = 1 << 22
	if _, err := Boot(budgeted, WithCache()); err != nil {
		t.Fatal(err)
	}
	if got := BuildCache().Stats().Builds; got != 2 {
		t.Fatalf("watchdog budget fragmented the cache: Stats().Builds = %d, want 2", got)
	}
}

// TestSnapshotRestoreHideM exercises Snapshot/Restore on a shadow-paged
// XOMHideM kernel booted through the cache: rollback must preserve both the
// syscall behavior and the split-TLB property (data reads of code pages see
// the zero-filled shadow while execution keeps running the real bytes).
func TestSnapshotRestoreHideM(t *testing.T) {
	k, err := Boot(core.Config{XOM: core.XOMHideM, Seed: 1}, WithCache())
	if err != nil {
		t.Fatal(err)
	}
	checkShadow := func(when string) {
		t.Helper()
		entry := k.Sym("syscall_entry")
		v, f := k.CPU.AS.Read(entry&^uint64(mem.PageMask), 8)
		if f != nil {
			t.Fatalf("%s: data read of code page faulted: %v", when, f)
		}
		if v != 0 {
			t.Fatalf("%s: data view of code page is %#x, want zero-filled shadow", when, v)
		}
	}
	checkShadow("before snapshot")

	snap := k.Snapshot()
	r1 := k.Syscall(SysGetpid)
	if r1.Failed {
		t.Fatalf("getpid before restore: %v", r1.Run.Reason)
	}
	// Perturb state past the snapshot: open a file (fd table + file data).
	if err := k.WriteUser(0, append([]byte("testfile"), 0)); err != nil {
		t.Fatal(err)
	}
	if r := k.Syscall(SysOpen, UserBuf); r.Failed {
		t.Fatalf("open: %v", r.Run.Reason)
	}

	if err := k.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	checkShadow("after restore")
	r2 := k.Syscall(SysGetpid)
	if r2.Failed {
		t.Fatalf("getpid after restore: %v", r2.Run.Reason)
	}
	if r1.Ret != r2.Ret || r1.Run.Instrs != r2.Run.Instrs || r1.Run.Cycles != r2.Run.Cycles {
		t.Fatalf("replay after restore diverges: ret %d/%d instrs %d/%d cycles %d/%d",
			r1.Ret, r2.Ret, r1.Run.Instrs, r2.Run.Instrs, r1.Run.Cycles, r2.Run.Cycles)
	}
	// Restore is repeatable on the same snapshot.
	if err := k.Restore(snap); err != nil {
		t.Fatalf("second restore: %v", err)
	}
	checkShadow("after second restore")
	exerciseSyscalls(t, k)
}
