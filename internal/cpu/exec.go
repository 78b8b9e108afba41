package cpu

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/mem"
)

// srcVal resolves the second operand of reg/imm ALU forms.
func immSx(in *isa.Instr) uint64 { return uint64(in.Imm) }

// exec executes one decoded instruction whose successor address is next.
func (c *CPU) exec(in *isa.Instr, next uint64) (StopReason, *Trap) {
	ea := func() uint64 { return c.effAddr(in.M, next) }
	trapUD := func() (StopReason, *Trap) {
		return StepContinue, &Trap{Kind: TrapUndefined, Addr: c.RIP, RIP: c.RIP, Mode: c.Mode}
	}
	trapGP := func() (StopReason, *Trap) {
		return StepContinue, &Trap{Kind: TrapProtection, Addr: c.RIP, RIP: c.RIP, Mode: c.Mode}
	}

	switch in.Op {
	case isa.NOP, isa.SWAPGS:
		// no effect

	case isa.HLT:
		if c.Mode != Kernel {
			return trapGP()
		}
		return StopHalt, nil

	case isa.INT3:
		return StepContinue, &Trap{Kind: TrapBreakpoint, Addr: c.RIP, RIP: c.RIP, Mode: c.Mode}

	case isa.UD2:
		return trapUD()

	// --- data movement ---
	case isa.MOVri:
		c.Regs[in.Dst] = uint64(in.Imm)
	case isa.MOVrr:
		c.Regs[in.Dst] = c.Regs[in.Src]
	case isa.MOVrm:
		v, t := c.load(ea(), in.AccessSize())
		if t != nil {
			return StepContinue, t
		}
		c.Regs[in.Dst] = v
	case isa.MOVmr:
		if t := c.store(ea(), c.Regs[in.Dst], in.AccessSize()); t != nil {
			return StepContinue, t
		}
	case isa.MOVmi:
		if t := c.store(ea(), uint64(in.Imm), in.AccessSize()); t != nil {
			return StepContinue, t
		}
	case isa.LEA:
		c.Regs[in.Dst] = ea()

	// --- stack ---
	case isa.PUSH:
		if t := c.push(c.Regs[in.Dst]); t != nil {
			return StepContinue, t
		}
	case isa.POP:
		v, t := c.pop()
		if t != nil {
			return StepContinue, t
		}
		c.Regs[in.Dst] = v
	case isa.PUSHFQ:
		if t := c.push(c.RFlags); t != nil {
			return StepContinue, t
		}
	case isa.POPFQ:
		v, t := c.pop()
		if t != nil {
			return StepContinue, t
		}
		c.RFlags = v

	// --- arithmetic ---
	case isa.ADDri, isa.ADDrr, isa.ADDrm:
		a := c.Regs[in.Dst]
		var b uint64
		switch in.Op {
		case isa.ADDri:
			b = immSx(in)
		case isa.ADDrr:
			b = c.Regs[in.Src]
		case isa.ADDrm:
			v, t := c.load(ea(), in.AccessSize())
			if t != nil {
				return StepContinue, t
			}
			b = v
		}
		r := a + b
		c.Regs[in.Dst] = r
		c.flagsAdd(a, b, r)
	case isa.SUBri, isa.SUBrr, isa.SUBrm:
		a := c.Regs[in.Dst]
		var b uint64
		switch in.Op {
		case isa.SUBri:
			b = immSx(in)
		case isa.SUBrr:
			b = c.Regs[in.Src]
		case isa.SUBrm:
			v, t := c.load(ea(), in.AccessSize())
			if t != nil {
				return StepContinue, t
			}
			b = v
		}
		r := a - b
		c.Regs[in.Dst] = r
		c.flagsSub(a, b, r)
	case isa.ANDri:
		c.Regs[in.Dst] &= immSx(in)
		c.flagsLogic(c.Regs[in.Dst])
	case isa.ANDrr:
		c.Regs[in.Dst] &= c.Regs[in.Src]
		c.flagsLogic(c.Regs[in.Dst])
	case isa.ORri:
		c.Regs[in.Dst] |= immSx(in)
		c.flagsLogic(c.Regs[in.Dst])
	case isa.ORrr:
		c.Regs[in.Dst] |= c.Regs[in.Src]
		c.flagsLogic(c.Regs[in.Dst])
	case isa.XORri:
		c.Regs[in.Dst] ^= immSx(in)
		c.flagsLogic(c.Regs[in.Dst])
	case isa.XORrr:
		c.Regs[in.Dst] ^= c.Regs[in.Src]
		c.flagsLogic(c.Regs[in.Dst])
	case isa.XORrm:
		v, t := c.load(ea(), in.AccessSize())
		if t != nil {
			return StepContinue, t
		}
		c.Regs[in.Dst] ^= v
		c.flagsLogic(c.Regs[in.Dst])
	case isa.XORmr:
		// read-modify-write: xor %reg into memory.
		a := ea()
		v, t := c.load(a, in.AccessSize())
		if t != nil {
			return StepContinue, t
		}
		r := v ^ c.Regs[in.Dst]
		if t := c.store(a, r, in.AccessSize()); t != nil {
			return StepContinue, t
		}
		c.flagsLogic(r)
	case isa.SHLri:
		sh := uint(in.Imm) & 63
		v := c.Regs[in.Dst]
		c.RFlags &^= isa.FlagCF | isa.FlagOF
		if sh > 0 && (v>>(64-sh))&1 != 0 {
			c.RFlags |= isa.FlagCF
		}
		c.Regs[in.Dst] = v << sh
		c.setSZP(c.Regs[in.Dst])
	case isa.SHRri:
		sh := uint(in.Imm) & 63
		v := c.Regs[in.Dst]
		c.RFlags &^= isa.FlagCF | isa.FlagOF
		if sh > 0 && (v>>(sh-1))&1 != 0 {
			c.RFlags |= isa.FlagCF
		}
		c.Regs[in.Dst] = v >> sh
		c.setSZP(c.Regs[in.Dst])
	case isa.SARri:
		sh := uint(in.Imm) & 63
		v := int64(c.Regs[in.Dst])
		c.RFlags &^= isa.FlagCF | isa.FlagOF
		if sh > 0 && (v>>(sh-1))&1 != 0 {
			c.RFlags |= isa.FlagCF
		}
		c.Regs[in.Dst] = uint64(v >> sh)
		c.setSZP(c.Regs[in.Dst])
	case isa.NOTr:
		c.Regs[in.Dst] = ^c.Regs[in.Dst]
	case isa.NEGr:
		v := c.Regs[in.Dst]
		c.Regs[in.Dst] = -v
		c.flagsSub(0, v, c.Regs[in.Dst])
	case isa.IMULrr:
		hi, lo := bits.Mul64(c.Regs[in.Dst], c.Regs[in.Src])
		c.Regs[in.Dst] = lo
		c.RFlags &^= isa.FlagCF | isa.FlagOF
		if hi != 0 && hi != ^uint64(0) {
			c.RFlags |= isa.FlagCF | isa.FlagOF
		}
		c.setSZP(lo)
	case isa.IMULri:
		hi, lo := bits.Mul64(c.Regs[in.Dst], immSx(in))
		c.Regs[in.Dst] = lo
		c.RFlags &^= isa.FlagCF | isa.FlagOF
		if hi != 0 && hi != ^uint64(0) {
			c.RFlags |= isa.FlagCF | isa.FlagOF
		}
		c.setSZP(lo)
	case isa.INCr:
		// inc preserves CF (genuine x86 quirk).
		cf := c.RFlags & isa.FlagCF
		a := c.Regs[in.Dst]
		r := a + 1
		c.Regs[in.Dst] = r
		c.flagsAdd(a, 1, r)
		c.RFlags = (c.RFlags &^ isa.FlagCF) | cf
	case isa.DECr:
		cf := c.RFlags & isa.FlagCF
		a := c.Regs[in.Dst]
		r := a - 1
		c.Regs[in.Dst] = r
		c.flagsSub(a, 1, r)
		c.RFlags = (c.RFlags &^ isa.FlagCF) | cf

	// --- comparison ---
	case isa.CMPri:
		a := c.Regs[in.Dst]
		b := immSx(in)
		c.flagsSub(a, b, a-b)
	case isa.CMPrr:
		a, b := c.Regs[in.Dst], c.Regs[in.Src]
		c.flagsSub(a, b, a-b)
	case isa.CMPrm:
		v, t := c.load(ea(), in.AccessSize())
		if t != nil {
			return StepContinue, t
		}
		a := c.Regs[in.Dst]
		c.flagsSub(a, v, a-v)
	case isa.CMPmi:
		v, t := c.load(ea(), in.AccessSize())
		if t != nil {
			return StepContinue, t
		}
		b := immSx(in)
		c.flagsSub(v, b, v-b)
	case isa.TESTrr:
		c.flagsLogic(c.Regs[in.Dst] & c.Regs[in.Src])
	case isa.TESTri:
		c.flagsLogic(c.Regs[in.Dst] & immSx(in))

	// --- control transfer ---
	case isa.JMP:
		c.RIP = next + uint64(in.Imm)
		return StepContinue, nil
	case isa.JMPR:
		c.RIP = c.Regs[in.Dst]
		return StepContinue, nil
	case isa.JMPM:
		v, t := c.load(ea(), 8)
		if t != nil {
			return StepContinue, t
		}
		c.RIP = v
		return StepContinue, nil
	case isa.JCC:
		if in.CC.Eval(c.RFlags) {
			c.RIP = next + uint64(in.Imm)
			return StepContinue, nil
		}
	case isa.CALL:
		if t := c.push(next); t != nil {
			return StepContinue, t
		}
		c.RIP = next + uint64(in.Imm)
		return StepContinue, nil
	case isa.CALLR:
		if t := c.push(next); t != nil {
			return StepContinue, t
		}
		c.RIP = c.Regs[in.Dst]
		return StepContinue, nil
	case isa.CALLM:
		v, t := c.load(ea(), 8)
		if t != nil {
			return StepContinue, t
		}
		if t := c.push(next); t != nil {
			return StepContinue, t
		}
		c.RIP = v
		return StepContinue, nil
	case isa.RET, isa.RETI:
		v, t := c.pop()
		if t != nil {
			return StepContinue, t
		}
		if in.Op == isa.RETI {
			c.Regs[isa.RSP] += uint64(in.Imm)
		}
		if v == StopMagic {
			return StopReturn, nil
		}
		c.RIP = v
		return StepContinue, nil

	// --- string operations ---
	case isa.MOVS, isa.STOS, isa.LODS, isa.CMPS, isa.SCAS:
		if t := c.execString(in); t != nil {
			return StepContinue, t
		}
	case isa.CLD:
		c.RFlags &^= isa.FlagDF
	case isa.STD:
		c.RFlags |= isa.FlagDF

	// --- system ---
	case isa.SYSCALL:
		if c.Mode != User {
			return trapUD()
		}
		if c.SyscallEntry == 0 {
			return trapGP()
		}
		c.EnterKernel(next)
		return StepContinue, nil
	case isa.SYSRET:
		if c.Mode != Kernel || !c.inSyscall {
			return trapUD()
		}
		c.ExitKernel()
		if c.StopOnSysret {
			return StopSysret, nil
		}
		return StepContinue, nil
	case isa.IRET:
		if c.Mode != Kernel {
			return trapGP()
		}
		rip, t := c.pop()
		if t != nil {
			return StepContinue, t
		}
		rsp, t := c.pop()
		if t != nil {
			return StepContinue, t
		}
		rflags, t := c.pop()
		if t != nil {
			return StepContinue, t
		}
		c.RIP, c.RFlags = rip, rflags
		c.Regs[isa.RSP] = rsp
		c.Mode = User
		if c.MPXKernel {
			c.Bnd[0] = c.savedUserBnd0
		}
		if c.StopOnIret {
			return StopIret, nil
		}
		return StepContinue, nil
	case isa.WRMSR:
		if c.Mode != Kernel {
			return trapGP()
		}
		c.MSRs[c.Regs[isa.RCX]] = c.Regs[isa.RDX]<<32 | c.Regs[isa.RAX]&0xFFFFFFFF
	case isa.RDMSR:
		if c.Mode != Kernel {
			return trapGP()
		}
		v := c.MSRs[c.Regs[isa.RCX]]
		c.Regs[isa.RAX] = v & 0xFFFFFFFF
		c.Regs[isa.RDX] = v >> 32

	// --- MPX ---
	case isa.BNDCU:
		if ea() > c.Bnd[in.Bnd].UB {
			return StepContinue, &Trap{Kind: TrapBoundRange, Addr: ea(), RIP: c.RIP, Mode: c.Mode}
		}
	case isa.BNDCL:
		if ea() < c.Bnd[in.Bnd].LB {
			return StepContinue, &Trap{Kind: TrapBoundRange, Addr: ea(), RIP: c.RIP, Mode: c.Mode}
		}
	case isa.BNDMK:
		c.Bnd[in.Bnd] = Bound{LB: 0, UB: ea()}
	case isa.BNDSTX:
		a := ea()
		if t := c.store(a, c.Bnd[in.Bnd].LB, 8); t != nil {
			return StepContinue, t
		}
		if t := c.store(a+8, c.Bnd[in.Bnd].UB, 8); t != nil {
			return StepContinue, t
		}
	case isa.BNDLDX:
		a := ea()
		lb, t := c.load(a, 8)
		if t != nil {
			return StepContinue, t
		}
		ub, t := c.load(a+8, 8)
		if t != nil {
			return StepContinue, t
		}
		c.Bnd[in.Bnd] = Bound{LB: lb, UB: ub}

	default:
		return trapUD()
	}
	c.RIP = next
	return StepContinue, nil
}

// execString executes a (possibly REP-prefixed) string instruction.
func (c *CPU) execString(in *isa.Instr) *Trap {
	w := uint64(in.SF.Width())
	step := int64(w)
	if c.RFlags&isa.FlagDF != 0 {
		step = -step
	}
	one := func() (stop bool, t *Trap) {
		switch in.Op {
		case isa.MOVS:
			v, t := c.load(c.Regs[isa.RSI], uint8(w))
			if t != nil {
				return false, t
			}
			if t := c.store(c.Regs[isa.RDI], v, uint8(w)); t != nil {
				return false, t
			}
			c.Regs[isa.RSI] += uint64(step)
			c.Regs[isa.RDI] += uint64(step)
		case isa.STOS:
			if t := c.store(c.Regs[isa.RDI], c.Regs[isa.RAX], uint8(w)); t != nil {
				return false, t
			}
			c.Regs[isa.RDI] += uint64(step)
		case isa.LODS:
			v, t := c.load(c.Regs[isa.RSI], uint8(w))
			if t != nil {
				return false, t
			}
			c.Regs[isa.RAX] = v
			c.Regs[isa.RSI] += uint64(step)
		case isa.CMPS:
			a, t := c.load(c.Regs[isa.RSI], uint8(w))
			if t != nil {
				return false, t
			}
			b, t := c.load(c.Regs[isa.RDI], uint8(w))
			if t != nil {
				return false, t
			}
			c.flagsSub(a, b, a-b)
			c.Regs[isa.RSI] += uint64(step)
			c.Regs[isa.RDI] += uint64(step)
			return c.RFlags&isa.FlagZF == 0, nil // repe semantics
		case isa.SCAS:
			b, t := c.load(c.Regs[isa.RDI], uint8(w))
			if t != nil {
				return false, t
			}
			a := c.Regs[isa.RAX]
			c.flagsSub(a, b, a-b)
			c.Regs[isa.RDI] += uint64(step)
			return c.RFlags&isa.FlagZF == 0, nil
		}
		return false, nil
	}
	if !in.SF.Rep() {
		_, t := one()
		return t
	}
	if step > 0 && (in.Op == isa.MOVS || in.Op == isa.STOS) {
		return c.execRepBulk(in, w, one)
	}
	// Guard: a hijacked control flow landing mid-stream can execute a rep
	// with a garbage (huge) %rcx; bound the per-instruction work so the
	// emulator cannot hang inside a single Step. Real code never gets
	// near the cap; runaway reps die on #GP like other emulator limits.
	const repCap = 1 << 22
	for n := 0; c.Regs[isa.RCX] != 0; n++ {
		if n >= repCap {
			return &Trap{Kind: TrapProtection, Addr: c.RIP, RIP: c.RIP, Mode: c.Mode}
		}
		stop, t := one()
		if t != nil {
			return t
		}
		c.Regs[isa.RCX]--
		c.Cycles += isa.StrUnitCost
		if stop {
			break
		}
	}
	return nil
}

// execRepBulk executes an ascending REP MOVS/STOS in page-sized runs: one
// translation + permission check (mem.ReadRun/WriteRun) covers every element
// that fits wholly inside the current source and destination pages, instead
// of one per element — kernel memcpy/memset is the emulator's hottest
// instruction by a wide margin. Architected state evolves exactly as the
// per-element loop's: registers, cycles, and the rep cap advance per
// completed element, a faulting run traps with the registers reflecting the
// elements already done, and every case with per-element-visible semantics —
// an element straddling a page boundary (whose partial byte progress the
// byte-loop store defines), a user-mode access at the kernel boundary, or
// overlapping MOVS operands (ascending element copy replicates patterns;
// memmove would not) — falls back to the one() element closure.
func (c *CPU) execRepBulk(in *isa.Instr, w uint64, one func() (bool, *Trap)) *Trap {
	const repCap = 1 << 22 // same runaway-rep guard as the element loop
	for n := uint64(0); c.Regs[isa.RCX] != 0; {
		if n >= repCap {
			return &Trap{Kind: TrapProtection, Addr: c.RIP, RIP: c.RIP, Mode: c.Mode}
		}
		di := c.Regs[isa.RDI]
		k := (mem.PageSize - di&mem.PageMask) / w
		si := uint64(0)
		if in.Op == isa.MOVS {
			si = c.Regs[isa.RSI]
			if ks := (mem.PageSize - si&mem.PageMask) / w; ks < k {
				k = ks
			}
		}
		if rcx := c.Regs[isa.RCX]; rcx < k {
			k = rcx
		}
		if left := repCap - n; left < k {
			k = left
		}
		bytes := k * w
		if k == 0 || // element straddles a page boundary
			!c.dataOK(di) || (in.Op == isa.MOVS && !c.dataOK(si)) ||
			(in.Op == isa.MOVS && si < di+bytes && di < si+bytes) {
			if _, t := one(); t != nil {
				return t
			}
			c.Regs[isa.RCX]--
			c.Cycles += isa.StrUnitCost
			n++
			continue
		}
		if in.Op == isa.MOVS {
			src, f := c.AS.ReadRun(si)
			if f != nil {
				return &Trap{Kind: TrapPageFault, Addr: si, RIP: c.RIP, Mode: c.Mode, Fault: f}
			}
			dst, f := c.AS.WriteRun(di)
			if f != nil {
				return &Trap{Kind: TrapPageFault, Addr: di, RIP: c.RIP, Mode: c.Mode, Fault: f}
			}
			copy(dst[:bytes], src[:bytes])
			c.Regs[isa.RSI] += bytes
		} else { // STOS
			dst, f := c.AS.WriteRun(di)
			if f != nil {
				return &Trap{Kind: TrapPageFault, Addr: di, RIP: c.RIP, Mode: c.Mode, Fault: f}
			}
			fill := dst[:bytes]
			var eb [8]byte
			binary.LittleEndian.PutUint64(eb[:], c.Regs[isa.RAX])
			copy(fill, eb[:w])
			for done := w; done < bytes; done *= 2 {
				copy(fill[done:], fill[:done])
			}
		}
		c.Regs[isa.RDI] += bytes
		c.Regs[isa.RCX] -= k
		c.Cycles += k * isa.StrUnitCost
		n += k
	}
	return nil
}
