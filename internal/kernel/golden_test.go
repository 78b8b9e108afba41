package kernel

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

// goldenOf returns the golden kernel behind Boot(cfg, WithCache()) for the
// image res, or nil if none has been built.
func goldenOf(res *core.BuildResult, cfg core.Config) *Kernel {
	key := goldenKey{res: res, cfg: cfg}
	key.cfg.FaultPlan = nil
	goldenMu.Lock()
	defer goldenMu.Unlock()
	if g := goldens[key]; g != nil {
		return g.k
	}
	return nil
}

// sysOutcome is everything a syscall round trip reports.
type sysOutcome struct {
	Nr      uint64
	Ret     uint64
	Failed  bool
	Reason  string
	Trap    string
	HaltRIP uint64
	Err     string
}

// syscallLadder runs a fixed syscall sequence that writes the user buffer,
// kernel data and the kernel stack, forks and maps memory, and ends with a
// code read that kR^X configurations stop. It returns every outcome.
func syscallLadder(t *testing.T, k *Kernel) []sysOutcome {
	t.Helper()
	var out []sysOutcome
	call := func(nr uint64, args ...uint64) uint64 {
		r := k.Syscall(nr, args...)
		o := sysOutcome{Nr: nr, Ret: r.Ret, Failed: r.Failed, Reason: fmt.Sprint(r.Run.Reason), HaltRIP: r.Run.HaltRIP}
		if r.Run.Trap != nil {
			o.Trap = fmt.Sprint(r.Run.Trap.Kind)
		}
		if r.Err != nil {
			o.Err = r.Err.Error()
		}
		out = append(out, o)
		return r.Ret
	}
	call(SysNull)
	call(SysGetpid)
	if err := k.WriteUser(0, append([]byte("goldenfile"), 0)); err != nil {
		t.Error(err)
	}
	if err := k.WriteUser(512, bytes.Repeat([]byte{0x5a}, 64)); err != nil {
		t.Error(err)
	}
	fd := call(SysOpen, UserBuf)
	call(SysWrite, fd, UserBuf+512, 64)
	fd2 := call(SysOpen, UserBuf)
	call(SysRead, fd2, UserBuf+1024, 64)
	call(SysFstat, fd2, UserBuf+2048)
	call(SysClose, fd2)
	call(SysClose, fd)
	base := call(SysMmap, 3)
	call(SysMunmap, base, 3)
	call(SysFork)
	call(SysPipeWrite, UserBuf+512, 64)
	call(SysPipeRead, UserBuf+4096, 64)
	call(SysUname, UserBuf+2048)
	call(SysGetdents, UserBuf+3072, 256)
	call(SysBrk, 2)
	call(SysYield)
	call(SysLeak, k.Sym("cred"))
	call(SysLeak, k.Sym("_text")+64)
	call(SysGetpid)
	return out
}

// memoryDiff compares the mapped layouts and every mapped byte of two
// address spaces, 64 pages at a time, and describes the first difference
// ("" when equal).
func memoryDiff(a, b *mem.AddressSpace) string {
	ra, rb := a.Ranges(), b.Ranges()
	if !reflect.DeepEqual(ra, rb) {
		return fmt.Sprintf("mapped ranges differ (%d vs %d ranges)", len(ra), len(rb))
	}
	const chunk = 64
	for _, r := range ra {
		pages := (r.End - r.Start) >> mem.PageShift // End may wrap to 0
		for p := uint64(0); p < pages; p += chunk {
			va := r.Start + p<<mem.PageShift
			n := int(min(chunk, pages-p)) * mem.PageSize
			pa, errA := a.Peek(va, n)
			pb, errB := b.Peek(va, n)
			if errA != nil || errB != nil || !bytes.Equal(pa, pb) {
				return fmt.Sprintf("contents differ in the %d bytes at %#x", n, va)
			}
		}
	}
	return ""
}

// TestGoldenBootConcurrent: kernels booted at once from one golden, the
// first of them building it, each write user, kernel-data and kernel-stack
// pages. The golden must stay as it was booted — the same bytes as a fresh
// construction from its image, no instruction run — and the kernels must
// agree with each other. Run it under -race: the forks share every frame
// the golden holds.
func TestGoldenBootConcurrent(t *testing.T) {
	defer SetBuildCache(SetBuildCache(core.NewImageCache(nil)))
	cfg := core.Presets()[len(core.Presets())-1]
	const workers = 8
	var wg sync.WaitGroup
	kernels := make([]*Kernel, workers)
	results := make([][]sysOutcome, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			k, err := Boot(cfg, WithCache())
			if err != nil {
				errs[w] = err
				return
			}
			kernels[w] = k
			snap := k.Snapshot()
			if err := k.Space.AS.Poke(k.Sym("cred"), []byte{byte(w), 1, 2, 3}); err != nil {
				errs[w] = err
				return
			}
			if err := k.Space.AS.Poke(k.KernelStackBase, bytes.Repeat([]byte{byte(w)}, 256)); err != nil {
				errs[w] = err
				return
			}
			if err := k.WriteUser(8192, bytes.Repeat([]byte{byte(w)}, mem.PageSize)); err != nil {
				errs[w] = err
				return
			}
			if err := k.Restore(snap); err != nil {
				errs[w] = err
				return
			}
			results[w] = syscallLadder(t, k)
		}(w)
	}
	close(start)
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w := 1; w < workers; w++ {
		if kernels[w].Build != kernels[0].Build {
			t.Fatalf("worker %d booted a different image", w)
		}
		if !reflect.DeepEqual(results[w], results[0]) || kernels[w].CPU.Instrs != kernels[0].CPU.Instrs {
			t.Errorf("worker %d diverged from worker 0", w)
		}
	}
	g := goldenOf(kernels[0].Build, cfg)
	if g == nil {
		t.Fatal("no golden kernel after cached boots")
	}
	if g.CPU.Instrs != 0 || g.CPU.Cycles != 0 {
		t.Errorf("golden kernel ran: instrs %d, cycles %d", g.CPU.Instrs, g.CPU.Cycles)
	}
	pristine, err := Boot(cfg, WithImage(g.Build))
	if err != nil {
		t.Fatal(err)
	}
	if d := memoryDiff(g.Space.AS, pristine.Space.AS); d != "" {
		t.Errorf("golden kernel changed under its forks: %s", d)
	}
}

// TestGoldenDroppedBySetBuildCache: replacing the build cache drops the
// golden kernels booted from its images; the next cached boot constructs a
// new golden from the new cache's image.
func TestGoldenDroppedBySetBuildCache(t *testing.T) {
	defer SetBuildCache(SetBuildCache(core.NewImageCache(nil)))
	cfg := core.Config{XOM: core.XOMMPX, Seed: 77}
	k1, err := Boot(cfg, WithCache())
	if err != nil {
		t.Fatal(err)
	}
	g := goldenOf(k1.Build, cfg)
	if g == nil {
		t.Fatal("no golden kernel after a cached boot")
	}
	fresh := FreshBoots()
	if _, err := Boot(cfg, WithCache()); err != nil {
		t.Fatal(err)
	}
	if n := FreshBoots() - fresh; n != 0 {
		t.Errorf("second cached boot constructed %d machines, want 0", n)
	}

	SetBuildCache(core.NewImageCache(nil))
	goldenMu.Lock()
	n := len(goldens)
	goldenMu.Unlock()
	if n != 0 {
		t.Fatalf("%d golden kernels survived SetBuildCache", n)
	}
	k2, err := Boot(cfg, WithCache())
	if err != nil {
		t.Fatal(err)
	}
	if k2.Build == k1.Build {
		t.Error("boot after SetBuildCache reused the old cache's image")
	}
	if g2 := goldenOf(k2.Build, cfg); g2 == nil || g2 == g {
		t.Error("boot after SetBuildCache did not build a new golden kernel")
	}
	if n := FreshBoots() - fresh; n != 1 {
		t.Errorf("boot after SetBuildCache constructed %d machines, want 1", n)
	}
}

// TestGoldenBootsAreNotForks: cached boots are counted as forked boots, never
// as kernel forks; Kernel.Fork still counts.
func TestGoldenBootsAreNotForks(t *testing.T) {
	forks, forked := Forks(), ForkedBoots()
	k, err := Boot(core.Vanilla, WithCache())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Boot(core.Vanilla, WithCache()); err != nil {
		t.Fatal(err)
	}
	if n := Forks() - forks; n != 0 {
		t.Errorf("two cached boots counted %d forks, want 0", n)
	}
	if n := ForkedBoots() - forked; n != 2 {
		t.Errorf("two cached boots counted %d forked boots, want 2", n)
	}
	if _, err := k.Fork(); err != nil {
		t.Fatal(err)
	}
	if n := Forks() - forks; n != 1 {
		t.Errorf("one Fork counted %d forks, want 1", n)
	}
}
