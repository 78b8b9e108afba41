package cpu

import "repro/internal/mem"

// Fork returns a new CPU over as — a copy-on-write fork of this CPU's
// address space (mem.AddressSpace.Fork) — with identical architectural
// state and a clone of the warm decode cache and superblocks, so a forked
// worker starts hot instead of re-decoding kernel text.
//
// Cache sharing is safe for the same reason it is safe to share the frames
// themselves: cloned dcPages keep pointing at the parent's frozen frames,
// whose content generation can never change again, so the fgen/mgen
// validation that already guards every dispatch accepts them in the child
// until the child itself patches code (a CoW break swaps the frame behind a
// MapGen bump, which the same validation catches). Entry slices are shared
// with the parent capacity-clamped — the parent appending more decodes
// reallocates rather than touching the shared backing array — and block
// slices are deep-copied because chain links are re-pointed in place as
// they sever and re-form.
//
// Probes, trap probes, the ticker, and the coverage sink are deliberately
// not carried over, mirroring State/RestoreState: observers are per-worker wiring, not
// machine state. Blocks' precomputed coverage words are shared like their
// thunks.
// Cumulative decode/block statistics restart at zero in the child.
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
		MSRs:           make(map[uint64]uint64, len(c.MSRs)),
	}
	for k, v := range c.MSRs {
		nc.MSRs[k] = v
	}
	if c.dc != nil {
		nc.dc = c.dc.clone(&nc.dstats)
	}
	return nc
}

// clone copies the decode cache for a forked CPU, wiring it to the child's
// own cumulative counters (stats; the child restarts at zero — see
// DecodeCacheStats). Page structs are copied by value (the offset-index,
// block-index, heat, and seen-taken arrays come along), entry slices are shared
// capacity-clamped, and block slices are deep-copied with their chain links
// re-pointed at the cloned pages — a link into a page the clone does not
// carry is severed, never followed into the parent's cache. The dcBlock
// value copy shares each block's ents and comp arrays with the parent:
// formation builds both and nothing changes them afterwards, and compiled
// thunks capture only decoded operand constants (never a *CPU), so the
// child executes the parent's thunks against its own state.
func (dc *decodeCache) clone(stats *DecodeCacheStats) *decodeCache {
	nd := newDecodeCache(stats)
	remap := make(map[*dcPage]*dcPage, len(dc.pages))
	for base, p := range dc.pages {
		np := new(dcPage)
		*np = *p
		np.entries = p.entries[:len(p.entries):len(p.entries)]
		if len(p.blocks) > 0 {
			np.blocks = make([]dcBlock, len(p.blocks))
			copy(np.blocks, p.blocks)
		} else {
			np.blocks = nil
		}
		nd.pages[base] = np
		remap[p] = np
	}
	for _, np := range nd.pages {
		for i := range np.blocks {
			remapLink(&np.blocks[i].taken, remap)
			remapLink(&np.blocks[i].fall, remap)
			remapLink(&np.blocks[i].side, remap)
		}
	}
	return nd
}

func remapLink(l *blkLink, remap map[*dcPage]*dcPage) {
	if l.p == nil {
		return
	}
	if np, ok := remap[l.p]; ok {
		l.p = np
		return
	}
	*l = blkLink{}
}
