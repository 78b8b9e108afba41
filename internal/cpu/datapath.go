package cpu

import (
	"encoding/binary"
	"math"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/mem"
)

// The compiled data path.
//
// A compiled load or store used to make three calls that Go does not
// inline — thunk, CPU.load or CPU.store, AddressSpace.Read or Write, and the
// data-TLB probe behind them — and to repeat the permission test and the
// access-size switch on every execution. The thunks below resolve the page
// with one inlined probe instead:
//
//   - Size specialization. Each memory thunk is instantiated for its access
//     width W (word), so the width is a constant and the little-endian
//     load or store is a single machine access with no size switch.
//
//   - The hit path. The user-mode upper-half test (checkDataAccess's) comes
//     first, then the data-TLB hit accessor (mem.AddressSpace.ReadHits,
//     WriteHit), which checks the slot, the map generation, the
//     permission bit cached at fill and, for a store, that the frame is
//     unfrozen and already in the undo log. Anything else — a user access
//     to the upper half, a miss, a page straddle, a fault, a copy-on-write
//     break, a frame still to be logged — falls back to CPU.load or
//     CPU.store, which trap, count and fill exactly as before. The hit
//     accessors count nothing when they decline, so the data-TLB counters
//     read what the stepper's read.
//
//   - Summing load groups (groupLoads). A run of two or more 8-byte adds
//     into one register through one base register, which is not the
//     destination, at constant displacements that fit in one page, becomes
//     one slot: csum_partial's eight unrolled add %rax,8k(%rdi), under
//     every preset. The slot tests the whole span once — mode, one data-TLB
//     hit, read permission — and counts one hit per entry, which is what
//     the entries would have counted one by one: they resolve the same
//     page, so after one hit every one of them hits. On that path no entry
//     can trap and each add's flags die at the next, so the words are
//     summed in a local and only the last add computes flags, when they are
//     live. When the test fails, the slot runs the entries through their
//     own thunks, compiled as they would be without the group, and a trap
//     there ends the run at the trapping entry (stepSplit), so partial
//     progress, the trap's RIP and the batched Instrs/Cycles charge are the
//     stepper's. Other same-base load runs (sys_kill's moves through %r8,
//     say) keep one thunk per entry.

// word is the set of access widths the compiled data path specializes for.
type word interface {
	uint8 | uint16 | uint32 | uint64
}

// wsize is W's width in bytes, a constant in each instantiation.
func wsize[W word]() uint64 { return uint64(bits.Len64(uint64(^W(0)))) / 8 }

// getLE loads the little-endian W at a's offset in page p.
func getLE[W word](p *[mem.PageSize]byte, a uint64) uint64 {
	b := p[a&mem.PageMask:]
	switch wsize[W]() {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	}
	return uint64(b[0])
}

// putLE stores v as a little-endian W at a's offset in page p.
func putLE[W word](p *[mem.PageSize]byte, a, v uint64) {
	b := p[a&mem.PageMask:]
	switch wsize[W]() {
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	default:
		b[0] = byte(v)
	}
}

// rdHit is the hit path of an n-byte load at a: the page's data-read view,
// or nil when the load must take CPU.load.
func (c *CPU) rdHit(a, n uint64) *[mem.PageSize]byte {
	if !c.dataOK(a) {
		return nil
	}
	return c.AS.ReadHits(a, n, 1)
}

// stepSplit is the stop a load group returns with a trap when it ran its
// entries one by one and one of them trapped: runBlock then ends the run at
// the entry at c.RIP, not at the group's last one. It never leaves runBlock.
const stepSplit StopReason = 0xFE

// compileMem builds the size-specialized thunk of a load, store or stack
// entry (see the top of this file), or returns nil for an op it does not
// specialize. dead and the returned bool are compileEnt's.
func compileMem(in *isa.Instr, next uint64, dead bool) (thunk, bool) {
	switch in.Op {
	case isa.PUSH, isa.POP, isa.CALL, isa.CALLR, isa.RET, isa.RETI:
		return stackThunk(in, next), false
	case isa.MOVrm, isa.MOVmr, isa.MOVmi, isa.ADDrm, isa.SUBrm, isa.XORrm, isa.CMPrm, isa.CMPmi:
		switch in.AccessSize() {
		case 1:
			return memThunk[uint8](in, next, dead)
		case 2:
			return memThunk[uint16](in, next, dead)
		case 4:
			return memThunk[uint32](in, next, dead)
		case 8:
			return memThunk[uint64](in, next, dead)
		}
	}
	return nil, false
}

// memThunk builds the W-wide thunk of a memory-source ALU op, a load or a
// store. A memory-source op whose flags are dead keeps its load — the
// access may fault — and drops the flag computation; a dead compare is then
// the load alone.
func memThunk[W word](in *isa.Instr, next uint64, dead bool) (thunk, bool) {
	ea := compileEA(in.M, next)
	d := in.Dst
	imm := uint64(in.Imm)
	switch op := in.Op; {
	case op == isa.MOVmr || op == isa.MOVmi:
		fromReg := op == isa.MOVmr
		return func(c *CPU) (StopReason, *Trap) {
			a, v := ea.addr(c), imm
			if fromReg {
				v = c.Regs[d]
			}
			if c.dataOK(a) {
				if p := c.AS.WriteHit(a, wsize[W]()); p != nil {
					putLE[W](p, a, v)
					c.RIP = next
					return StepContinue, nil
				}
			}
			if t := c.store(a, v, uint8(wsize[W]())); t != nil {
				return StepContinue, t
			}
			c.RIP = next
			return StepContinue, nil
		}, false
	case op == isa.MOVrm:
		return func(c *CPU) (StopReason, *Trap) {
			a, v, t := ea.addr(c), uint64(0), (*Trap)(nil)
			if p := c.rdHit(a, wsize[W]()); p != nil {
				v = getLE[W](p, a)
			} else if v, t = c.load(a, uint8(wsize[W]())); t != nil {
				return StepContinue, t
			}
			c.Regs[d] = v
			c.RIP = next
			return StepContinue, nil
		}, false
	case dead && (op == isa.ADDrm || op == isa.SUBrm || op == isa.XORrm):
		return func(c *CPU) (StopReason, *Trap) {
			a, v, t := ea.addr(c), uint64(0), (*Trap)(nil)
			if p := c.rdHit(a, wsize[W]()); p != nil {
				v = getLE[W](p, a)
			} else if v, t = c.load(a, uint8(wsize[W]())); t != nil {
				return StepContinue, t
			}
			switch op {
			case isa.ADDrm:
				c.Regs[d] += v
			case isa.SUBrm:
				c.Regs[d] -= v
			default:
				c.Regs[d] ^= v
			}
			c.RIP = next
			return StepContinue, nil
		}, true
	case dead && (op == isa.CMPrm || op == isa.CMPmi):
		return func(c *CPU) (StopReason, *Trap) {
			a := ea.addr(c)
			if c.rdHit(a, wsize[W]()) == nil {
				if _, t := c.load(a, uint8(wsize[W]())); t != nil {
					return StepContinue, t
				}
			}
			c.RIP = next
			return StepContinue, nil
		}, true
	case op == isa.ADDrm:
		return func(c *CPU) (StopReason, *Trap) {
			a, b, t := ea.addr(c), uint64(0), (*Trap)(nil)
			if p := c.rdHit(a, wsize[W]()); p != nil {
				b = getLE[W](p, a)
			} else if b, t = c.load(a, uint8(wsize[W]())); t != nil {
				return StepContinue, t
			}
			x := c.Regs[d]
			r := x + b
			c.Regs[d] = r
			c.flagsAdd(x, b, r)
			c.RIP = next
			return StepContinue, nil
		}, false
	case op == isa.SUBrm:
		return func(c *CPU) (StopReason, *Trap) {
			a, b, t := ea.addr(c), uint64(0), (*Trap)(nil)
			if p := c.rdHit(a, wsize[W]()); p != nil {
				b = getLE[W](p, a)
			} else if b, t = c.load(a, uint8(wsize[W]())); t != nil {
				return StepContinue, t
			}
			x := c.Regs[d]
			r := x - b
			c.Regs[d] = r
			c.flagsSub(x, b, r)
			c.RIP = next
			return StepContinue, nil
		}, false
	case op == isa.XORrm:
		return func(c *CPU) (StopReason, *Trap) {
			a, v, t := ea.addr(c), uint64(0), (*Trap)(nil)
			if p := c.rdHit(a, wsize[W]()); p != nil {
				v = getLE[W](p, a)
			} else if v, t = c.load(a, uint8(wsize[W]())); t != nil {
				return StepContinue, t
			}
			c.Regs[d] ^= v
			c.flagsLogic(c.Regs[d])
			c.RIP = next
			return StepContinue, nil
		}, false
	case op == isa.CMPrm || op == isa.CMPmi:
		memFirst := op == isa.CMPmi
		return func(c *CPU) (StopReason, *Trap) {
			a, v, t := ea.addr(c), uint64(0), (*Trap)(nil)
			if p := c.rdHit(a, wsize[W]()); p != nil {
				v = getLE[W](p, a)
			} else if v, t = c.load(a, uint8(wsize[W]())); t != nil {
				return StepContinue, t
			}
			x, y := c.Regs[d], v
			if memFirst {
				x, y = v, imm
			}
			c.flagsSub(x, y, x-y)
			c.RIP = next
			return StepContinue, nil
		}, false
	}
	return nil, false
}

// stackThunk builds the thunk of a push, pop, call or return: an 8-byte
// store below or load at %rsp, with push's pre-decrement kept when the
// store traps, as CPU.push keeps it.
//
// It must not be inlined, and neither must sumThunk: the copy of a closure
// that Go makes when it inlines the function around it does not get the
// closure's own calls inlined, so the hit path would call rdHit, the hit
// accessor and getLE out of line.
//
//go:noinline
func stackThunk(in *isa.Instr, next uint64) thunk {
	d := in.Dst
	imm := uint64(in.Imm)
	switch op := in.Op; op {
	case isa.PUSH, isa.CALL, isa.CALLR:
		target := next + imm
		return func(c *CPU) (StopReason, *Trap) {
			v := next
			if op == isa.PUSH {
				v = c.Regs[d]
			}
			c.Regs[isa.RSP] -= 8
			a := c.Regs[isa.RSP]
			p := (*[mem.PageSize]byte)(nil)
			if c.dataOK(a) {
				p = c.AS.WriteHit(a, 8)
			}
			if p != nil {
				putLE[uint64](p, a, v)
			} else if t := c.store(a, v, 8); t != nil {
				return StepContinue, t
			}
			switch op {
			case isa.PUSH:
				c.RIP = next
			case isa.CALL:
				c.RIP = target
			default:
				c.RIP = c.Regs[d]
			}
			return StepContinue, nil
		}
	}
	// POP, RET, RETI.
	op := in.Op
	return func(c *CPU) (StopReason, *Trap) {
		a, v, t := c.Regs[isa.RSP], uint64(0), (*Trap)(nil)
		if p := c.rdHit(a, 8); p != nil {
			v = getLE[uint64](p, a)
		} else if v, t = c.load(a, 8); t != nil {
			return StepContinue, t
		}
		c.Regs[isa.RSP] += 8
		switch op {
		case isa.POP:
			c.Regs[d] = v
			c.RIP = next
			return StepContinue, nil
		case isa.RETI:
			c.Regs[isa.RSP] += imm
		}
		if v == StopMagic {
			return StopReturn, nil
		}
		c.RIP = v
		return StepContinue, nil
	}
}

// summable reports whether e can join a summing load group into d through
// base: an 8-byte add d,[base+disp], with no index and not %rip-relative,
// where d is not base.
func summable(e *blkEnt, base, d isa.Reg) bool {
	m := e.in.M
	return e.in.Op == isa.ADDrm && e.in.AccessSize() == 8 && e.in.Dst == d && d != base &&
		m.HasBase() && m.Base == base && !m.HasIndex() && !m.RIPRel
}

// groupSpan returns the lowest displacement of ents and the length of the
// address range their 8-byte accesses cover from it.
func groupSpan(ents []blkEnt) (lo, span int64) {
	lo, hi := int64(ents[0].in.M.Disp), int64(math.MinInt64)
	for i := range ents {
		d := int64(ents[i].in.M.Disp)
		lo, hi = min(lo, d), max(hi, d+8)
	}
	return lo, hi - lo
}

// groupLoads folds every summing load group of a lowered block (see the top
// of this file) into the slot of its first entry, which then carries its
// last entry's cyc, ni and flags, as a merged run's slot does. dead has bit
// i set when lowerBlock found entry i's flag results dead. The slots behind
// a group's first stay in place, unvisited. It returns the number of
// entries folded.
func groupLoads(ents []blkEnt, comp []cthunk, dead uint64) (grouped uint64) {
	for i := 0; i < len(ents); {
		base, d := ents[i].in.M.Base, ents[i].in.Dst
		n := 0
		for i+n < len(ents) && summable(&ents[i+n], base, d) {
			if _, span := groupSpan(ents[i : i+n+1]); span > mem.PageSize {
				break
			}
			n++
		}
		if n < 2 {
			i++
			continue
		}
		end := i + n - 1
		solo := make([]thunk, n)
		for k := range solo {
			solo[k] = comp[i+k].fn
		}
		fn := sumThunk(ents[i:i+n], solo, dead&(1<<end) == 0)
		comp[i] = cthunk{fn: fn, cyc: comp[end].cyc, ni: comp[end].ni, flags: comp[end].flags}
		grouped += uint64(n)
		i += n
	}
	return grouped
}

// sumThunk builds the slot of the summing load group ents, whose own thunks
// are solo; live reports that the flags its last add leaves are live. Every
// add but the last writes flags the next one overwrites, and on the no-trap
// path none of them can trap, so the words before the last are summed in a
// local, the register is written once, and only the last add computes its
// flags, when live. Not inlined: see stackThunk.
//
//go:noinline
func sumThunk(ents []blkEnt, solo []thunk, live bool) thunk {
	base := ents[0].in.M.Base & (isa.NumGPR - 1)
	d := ents[0].in.Dst & (isa.NumGPR - 1)
	lo, span := groupSpan(ents)
	disp, size := uint64(lo), uint64(span)
	n := uint64(len(ents))
	offs := make([]uint64, len(ents))
	for k := range ents {
		offs[k] = uint64(int64(ents[k].in.M.Disp) - lo)
	}
	e := &ents[len(ents)-1]
	next := e.rip + uint64(e.ilen)
	last := offs[len(offs)-1]
	offs = offs[:len(offs)-1]
	return func(c *CPU) (StopReason, *Trap) {
		a := c.Regs[base] + disp
		if c.dataOK(a) {
			if p := c.AS.ReadHits(a, size, n); p != nil {
				o := a & mem.PageMask
				var s uint64
				for _, off := range offs {
					s += binary.LittleEndian.Uint64(p[o+off:])
				}
				x := c.Regs[d] + s
				v := binary.LittleEndian.Uint64(p[o+last:])
				c.Regs[d] = x + v
				if live {
					c.flagsAdd(x, v, x+v)
				}
				c.RIP = next
				return StepContinue, nil
			}
		}
		for _, fn := range solo {
			if _, t := fn(c); t != nil {
				return stepSplit, t
			}
		}
		return StepContinue, nil
	}
}
