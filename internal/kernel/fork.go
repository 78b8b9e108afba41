package kernel

import (
	"fmt"
	"sync/atomic"

	"repro/internal/inject"
)

// forkCount is the process-wide fork counter behind Forks() — the obs
// gauge's data source. Atomic because independent kernels may fork from
// different goroutines at once (concurrent campaigns or tests in one
// process), and the gauge may read it from yet another.
var forkCount atomic.Uint64

// Forks returns the number of kernel forks performed process-wide.
func Forks() uint64 { return forkCount.Load() }

// Fork returns a copy-on-write fork of the kernel: an O(1)-ish child that
// shares every physical frame with this kernel until one side writes it
// (mem.AddressSpace.Fork), copies the CPU's architectural state by value,
// and clones the warm decode cache and superblocks so the child starts hot
// (cpu.CPU.Fork). Forking a freshly snapshotted, warmed golden kernel is
// the cheap way to stand up a fleet of identical workers: the child
// executes bit-identically to a kernel that booted and warmed up on its
// own, because emulated semantics cannot observe frame identity or host
// cache warmth.
//
// The parent should be quiescent at its snapshot point: forking with
// un-rolled-back writes after a checkpoint is an error (the undo log would
// have to restore frames the fork shares). The child carries no snapshot —
// take a new one on the child; the parent's Snapshots stay with the parent
// (Restore rejects them as foreign).
//
// Options are restricted to observers: WithProbes and WithTracer wire the
// child's per-worker instrumentation (probes and tracers never transfer
// across a fork). Image-selection options are meaningless here and
// rejected. When the parent booted with a Cfg.FaultPlan, the child arms its
// own injector over the same plan, like a fresh boot would.
func (k *Kernel) Fork(opts ...BootOption) (*Kernel, error) {
	var o bootOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.cached || o.prog != nil || o.image != nil {
		return nil, fmt.Errorf("kernel: Fork accepts only WithProbes and WithTracer")
	}
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
	for _, p := range o.probes {
		nk.CPU.AddProbe(p)
	}
	if o.tracer != nil {
		nk.Trace = o.tracer
		o.tracer.Attach(nk.CPU)
	}
	if k.Cfg.FaultPlan != nil {
		nk.Inj = inject.New(*k.Cfg.FaultPlan)
		nk.Inj.Attach(nk.CPU, sp.AS, nk.FaultTargets())
	}
	forkCount.Add(1)
	return nk, nil
}
