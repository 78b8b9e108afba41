// Self-modifying-code scenarios for the decode cache, driven through the
// real kernel surfaces that rewrite text at runtime: patch.TextPoke,
// kprobes, livepatching, module load/unload, and Snapshot/Restore. These
// live in an external test package because they need patch and module,
// which import kernel.
package kernel_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/module"
	"repro/internal/patch"
)

func bootK(t *testing.T) *kernel.Kernel {
	t.Helper()
	k, err := kernel.Boot(core.Vanilla, kernel.WithCache())
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// warm drives a syscall through the kernel so the decode cache holds the
// entry path and the target function before the test rewrites text.
func warm(t *testing.T, k *kernel.Kernel) {
	t.Helper()
	if r := k.Syscall(kernel.SysGetpid); r.Failed || r.Ret != 1 {
		t.Fatalf("warmup syscall: %v ret=%d", r.Run.Reason, r.Ret)
	}
}

// TestKProbeOnWarmCache plants and removes a 0xCC probe on a function the
// decode cache has already decoded. The plant must trap on the next call;
// the removal must restore the original behaviour.
func TestKProbeOnWarmCache(t *testing.T) {
	k := bootK(t)
	warm(t, k)
	if s := k.CPU.DecodeCacheStats(); s.Hits == 0 {
		t.Fatal("warmup must populate the decode cache")
	}

	orig, addr, err := patch.InstallProbe(k, "sys_getpid")
	if err != nil {
		t.Fatal(err)
	}
	r := k.Syscall(kernel.SysGetpid)
	if !r.Failed || r.Run.Trap == nil || r.Run.Trap.Kind != cpu.TrapBreakpoint {
		t.Fatalf("warm cache served stale bytes: probe did not trap: %v %v", r.Run.Reason, r.Run.Trap)
	}
	if err := patch.RemoveProbe(k, addr, orig); err != nil {
		t.Fatal(err)
	}
	if r := k.Syscall(kernel.SysGetpid); r.Failed || r.Ret != 1 {
		t.Fatalf("probe removal not observed: %v ret=%d", r.Run.Reason, r.Ret)
	}
	if s := k.CPU.DecodeCacheStats(); s.Invalidations == 0 {
		t.Error("text pokes must invalidate cached decodes")
	}
}

// TestLivepatchOnWarmCache live-patches a warm function to a module-hosted
// replacement and reverts it; both transitions must be observed.
func TestLivepatchOnWarmCache(t *testing.T) {
	k := bootK(t)
	warm(t, k)

	// A replacement sys_getpid that returns 42.
	v2, err := ir.NewBuilder("sys_getpid_v2").
		I(
			isa.MovRI(isa.RAX, 42),
			isa.Ret(),
		).Func()
	if err != nil {
		t.Fatal(err)
	}
	loader := module.NewLoader(k)
	m, err := loader.Load(&module.Object{
		Name: "getpid-v2",
		Prog: &ir.Program{Funcs: []*ir.Function{v2}},
	})
	if err != nil {
		t.Fatal(err)
	}

	revert, err := patch.Livepatch(k, "sys_getpid", m.Symbols["sys_getpid_v2"])
	if err != nil {
		t.Fatal(err)
	}
	if r := k.Syscall(kernel.SysGetpid); r.Failed || r.Ret != 42 {
		t.Fatalf("livepatch not observed (stale decode?): %v ret=%d", r.Run.Reason, r.Ret)
	}
	if err := patch.Revert(k, "sys_getpid", revert); err != nil {
		t.Fatal(err)
	}
	if r := k.Syscall(kernel.SysGetpid); r.Failed || r.Ret != 1 {
		t.Fatalf("revert not observed: %v ret=%d", r.Run.Reason, r.Ret)
	}
}

// TestModuleReloadOnWarmCache loads a module, executes it (decoding its
// pages), unloads it, and loads a different module over the same region.
// The second module's code must execute, not the first's cached decodes.
func TestModuleReloadOnWarmCache(t *testing.T) {
	k := bootK(t)
	loader := module.NewLoader(k)

	mk := func(name string, ret int64) *module.Object {
		f, err := ir.NewBuilder(name+"_fn").
			I(
				isa.MovRI(isa.RAX, ret),
				isa.Ret(),
			).Func()
		if err != nil {
			t.Fatal(err)
		}
		return &module.Object{Name: name, Prog: &ir.Program{Funcs: []*ir.Function{f}}}
	}
	call := func(addr uint64) uint64 { return callAddr(t, k, addr) }

	m1, err := loader.Load(mk("mod1", 111))
	if err != nil {
		t.Fatal(err)
	}
	addr1 := m1.Symbols["mod1_fn"]
	if got := call(addr1); got != 111 {
		t.Fatalf("mod1 returned %d, want 111", got)
	}
	if err := loader.Unload("mod1"); err != nil {
		t.Fatal(err)
	}
	m2, err := loader.Load(mk("mod2", 222))
	if err != nil {
		t.Fatal(err)
	}
	addr2 := m2.Symbols["mod2_fn"]
	if addr2 != addr1 {
		t.Logf("loader did not reuse the region (%#x -> %#x); reload still exercised", addr1, addr2)
	}
	if got := call(addr2); got != 222 {
		t.Fatalf("mod2 returned %d, want 222 (stale decode from mod1?)", got)
	}
}

// callAddr calls a kernel address directly on the CPU with a sentinel
// return address and returns RAX.
func callAddr(t *testing.T, k *kernel.Kernel, addr uint64) uint64 {
	t.Helper()
	c := k.CPU
	c.Mode = cpu.Kernel
	sp := c.KernelStackTop - 16
	if f := c.AS.Write(sp, cpu.StopMagic, 8); f != nil {
		t.Fatal(f)
	}
	c.Regs[isa.RSP] = sp
	c.RIP = addr
	res := c.Run(10000)
	if res.Reason != cpu.StopReturn {
		t.Fatalf("call to %#x: %v trap=%v", addr, res.Reason, res.Trap)
	}
	return c.Reg(isa.RAX)
}

// TestSnapshotRestoreWarmCache: after Restore, re-running the same syscall
// must cost exactly the same emulated cycles — the decode cache must not
// leak state (or stale decodes) across rollback boundaries. Text poked
// between snapshot and restore must be rolled back both in bytes and in
// observed behaviour.
func TestSnapshotRestoreWarmCache(t *testing.T) {
	k := bootK(t)
	warm(t, k)

	snap := k.Snapshot()
	var cycles []uint64
	for i := 0; i < 3; i++ {
		before := k.CPU.Cycles
		if r := k.Syscall(kernel.SysGetpid); r.Failed || r.Ret != 1 {
			t.Fatalf("iter %d: %v ret=%d", i, r.Run.Reason, r.Ret)
		}
		cycles = append(cycles, k.CPU.Cycles-before)

		// Dirty the text before restoring: plant a probe mid-iteration.
		if _, _, err := patch.InstallProbe(k, "sys_getpid"); err != nil {
			t.Fatal(err)
		}
		if err := k.Restore(snap); err != nil {
			t.Fatal(err)
		}
	}
	if cycles[0] != cycles[1] || cycles[1] != cycles[2] {
		t.Fatalf("restored iterations diverge in cycles: %v", cycles)
	}
	// After the final restore the probe must be gone.
	if r := k.Syscall(kernel.SysGetpid); r.Failed || r.Ret != 1 {
		t.Fatalf("restore did not undo the probe: %v %v", r.Run.Reason, r.Run.Trap)
	}
}

// TestTextPokeBesideSharedTranslation: one fork of a golden forms and
// publishes the sys_getpid path, a second fork text_pokes a probe into that
// page and later removes it, and a third keeps running the shared
// translation of the original bytes in between. The poke breaks
// copy-on-write, so the poking fork runs a private frame with private
// blocks and the table never sees its bytes; a late fork still adopts the
// original. Every fork must match the same sequence on uncached forks.
func TestTextPokeBesideSharedTranslation(t *testing.T) {
	defer kernel.SetBuildCache(kernel.SetBuildCache(core.NewImageCache(nil)))
	type outcome struct {
		rets           []string
		instrs, cycles uint64
	}
	run := func(cached bool) (outs [4]outcome, stats [4]cpu.BlockStats) {
		var ks [4]*kernel.Kernel // publisher, poker, sibling, late
		boot := func(i int) {
			ks[i] = bootK(t)
			ks[i].CPU.SetDecodeCache(cached)
			ks[i].CPU.SetBlockHotThreshold(1)
		}
		call := func(i int) {
			r := ks[i].Syscall(kernel.SysGetpid)
			s := fmt.Sprintf("ret=%d failed=%v", r.Ret, r.Failed)
			if r.Run.Trap != nil {
				s += fmt.Sprintf(" trap=%v", r.Run.Trap.Kind)
			}
			outs[i].rets = append(outs[i].rets, s)
		}
		boot(0)
		boot(1)
		boot(2)
		call(0)
		orig, addr, err := patch.InstallProbe(ks[1], "sys_getpid")
		if err != nil {
			t.Fatal(err)
		}
		call(1)
		call(2)
		if err := patch.RemoveProbe(ks[1], addr, orig); err != nil {
			t.Fatal(err)
		}
		call(1)
		call(2)
		call(0)
		boot(3)
		call(3)
		for i, k := range ks {
			outs[i].instrs, outs[i].cycles = k.CPU.Instrs, k.CPU.Cycles
			stats[i] = k.CPU.BlockStats()
		}
		return outs, stats
	}
	got, stats := run(true)
	want, _ := run(false)
	for i := range want {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Errorf("fork %d: shared %v, uncached %v", i, got[i], want[i])
		}
	}
	if !strings.Contains(got[1].rets[0], "trap=") || got[2].rets[0] != "ret=1 failed=false" {
		t.Errorf("the probe must trap in the poking fork only: poker %q, sibling %q", got[1].rets, got[2].rets)
	}
	if stats[0].Formed == 0 || stats[2].Adopted == 0 || stats[3].Adopted == 0 {
		t.Errorf("the publisher must form and the others adopt: %+v", stats)
	}
	if stats[1].Formed == 0 {
		t.Errorf("the poking fork must form private blocks over its own copy of the page: %+v", stats[1])
	}
}
