package kernel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cpu"
)

// forkCount is the process-wide fork counter behind Forks() — the obs
// gauge's data source. Atomic because independent kernels may fork from
// different goroutines at once (concurrent campaigns or tests in one
// process), and the gauge may read it from yet another.
var forkCount atomic.Uint64

// Forks returns the number of kernel forks performed process-wide. Boots
// served by forking a golden kernel are not forks in this sense; they are
// counted by ForkedBoots.
func Forks() uint64 { return forkCount.Load() }

// freshBoots and forkedBoots count, process-wide, the machines Boot
// constructed from an image (bootImage: uncached and WithImage boots, and
// each golden kernel's own construction) and the ones it handed out as
// forks of a golden kernel. They feed the boot.* gauges.
var freshBoots, forkedBoots atomic.Uint64

// FreshBoots returns the number of kernels constructed from an image.
func FreshBoots() uint64 { return freshBoots.Load() }

// ForkedBoots returns the number of Boot(cfg, WithCache()) calls served by
// forking a golden kernel.
func ForkedBoots() uint64 { return forkedBoots.Load() }

// Fork returns a copy-on-write fork of the kernel: an O(1)-ish child that
// shares every physical frame with this kernel until one side writes it
// (mem.AddressSpace.Fork) and copies the CPU's architectural state by value
// (cpu.CPU.Fork). It is the machine copy behind every golden boot: the
// child starts with a cold decode cache and no superblocks of its own (it
// shares the parent's cpu.SharedBlocks table, if any), and executes
// bit-identically to its parent from the fork point on, because emulated
// semantics cannot observe frame identity or host cache warmth.
//
// The parent should be quiescent at its snapshot point: forking with
// un-rolled-back writes after a checkpoint is an error (the undo log would
// have to restore frames the fork shares). The child carries no snapshot —
// take a new one on the child; the parent's Snapshots stay with the parent
// (Restore rejects them as foreign). Probes and tracers do not transfer
// across a fork. When the parent booted with a Cfg.FaultPlan, the child
// arms its own injector over the same plan, like a fresh boot would.
func (k *Kernel) Fork() (*Kernel, error) {
	nk, err := k.fork()
	if err != nil {
		return nil, err
	}
	nk.armInjector()
	forkCount.Add(1)
	return nk, nil
}

// fork is the machine copy behind Fork and bootGolden: a copy-on-write
// fork of the space, a fork of the CPU over it, and a copy of the keys.
// The child has the parent's Cfg and no observers or injector.
func (k *Kernel) fork() (*Kernel, error) {
	sp, err := k.Space.Fork()
	if err != nil {
		return nil, fmt.Errorf("kernel: fork: %w", err)
	}
	nk := &Kernel{
		Cfg:             k.Cfg,
		Build:           k.Build,
		Img:             k.Img,
		Space:           sp,
		KernelStackBase: k.KernelStackBase,
		Keys:            make(map[string]uint64, len(k.Keys)),
	}
	for s, v := range k.Keys {
		nk.Keys[s] = v
	}
	nk.CPU = k.CPU.Fork(sp.AS)
	return nk, nil
}

// A golden kernel is the pristine machine one cached image boots into
// under one configuration. It is built once, by the first Boot(cfg,
// WithCache()) that asks for it, and frozen before anything else can see
// it; every such Boot, the first included, returns a fork of it. A golden
// never runs an instruction, never takes a snapshot and is never written
// after its freeze, so concurrent boots only read it, and each fork starts
// with the zeroed counters and cold caches of a fresh boot.
//
// The golden's CPU owns the family's cpu.SharedBlocks table, made right
// after the freeze over the executable frames the golden maps then. Every
// fork inherits it, so a block one fork forms over the golden's code is
// adopted by the others instead of being formed again. The table lives
// as long as the golden, which SetBuildCache drops with its cache.
type golden struct {
	once sync.Once
	k    *Kernel
	err  error
}

// goldenKey identifies a golden kernel: the cached image it booted and its
// configuration with FaultPlan cleared, since each child arms its own
// injector. Every other Config field is kept in the key.
type goldenKey struct {
	res *core.BuildResult
	cfg core.Config
}

// bootGolden returns a copy-on-write fork of the golden kernel of (res,
// cfg), booting and freezing the golden first if this is its first use.
func bootGolden(res *core.BuildResult, cfg core.Config) (*Kernel, error) {
	key := goldenKey{res: res, cfg: cfg}
	key.cfg.FaultPlan = nil
	goldenMu.Lock()
	g, ok := goldens[key]
	if !ok {
		g = &golden{}
		goldens[key] = g
	}
	goldenMu.Unlock()
	g.once.Do(func() {
		k, err := bootImage(res, key.cfg)
		if err == nil {
			err = k.Space.AS.Freeze()
		}
		if err == nil {
			k.CPU.ShareBlocks(cpu.NewSharedBlocks(k.Space.AS))
		}
		g.k, g.err = k, err
	})
	if g.err != nil {
		return nil, g.err
	}
	k, err := g.k.fork()
	if err != nil {
		return nil, err
	}
	k.Cfg = cfg
	k.armInjector()
	forkedBoots.Add(1)
	return k, nil
}
