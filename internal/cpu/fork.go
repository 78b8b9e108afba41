package cpu

import "repro/internal/mem"

// Fork returns a new CPU over as — a copy-on-write fork of this CPU's
// address space (mem.AddressSpace.Fork) — with identical architectural
// state. The child keeps the parent's decode-cache and block-engine
// settings, hotness threshold and SharedBlocks table, but starts with an
// empty decode cache: the golden kernels that nearly every fork copies
// never run, so their caches are empty anyway. What a child inherits
// instead is the table: the blocks its siblings formed over the frozen
// code they share, which it adopts on first dispatch (bcache.go).
//
// Probes, trap probes, the ticker, and the coverage sink are deliberately
// not carried over, mirroring State/RestoreState: observers are per-worker
// wiring, not machine state. Cumulative decode/block statistics restart at
// zero in the child.
func (c *CPU) Fork(as *mem.AddressSpace) *CPU {
	nc := &CPU{
		AS:             as,
		Regs:           c.Regs,
		RIP:            c.RIP,
		RFlags:         c.RFlags,
		Bnd:            c.Bnd,
		Mode:           c.Mode,
		Cycles:         c.Cycles,
		Instrs:         c.Instrs,
		SyscallEntry:   c.SyscallEntry,
		FaultEntry:     c.FaultEntry,
		KernelStackTop: c.KernelStackTop,
		SMEP:           c.SMEP,
		StopOnSysret:   c.StopOnSysret,
		StopOnIret:     c.StopOnIret,
		MPXKernel:      c.MPXKernel,
		KernelBnd0:     c.KernelBnd0,
		Pending:        c.Pending,
		savedUserRSP:   c.savedUserRSP,
		savedUserBnd0:  c.savedUserBnd0,
		inSyscall:      c.inSyscall,
		blocks:         c.blocks,
		blockHot:       c.blockHot,
		shared:         c.shared,
		MSRs:           make(map[uint64]uint64, len(c.MSRs)),
	}
	for k, v := range c.MSRs {
		nc.MSRs[k] = v
	}
	if c.shared != nil {
		c.shared.forks.Add(1)
	}
	if c.dc != nil {
		nc.dc = newDecodeCache(&nc.dstats, c.shared)
	}
	return nc
}
