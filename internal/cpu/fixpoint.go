package cpu

import "repro/internal/isa"

// Fixpoint fast-forward of lean self-loops (see "Fixpoint fast-forward" at
// the top of bcache.go for the rule and why it is sound).

// fixLoop classifies a fixpoint-eligible self-loop: a register-only block
// whose passes differ only in its induction registers once the rest of its
// registers stop changing. It is built once at formation and, like the rest
// of a blockXlat, never changes afterwards.
type fixLoop struct {
	other  []uint8  // registers the block writes besides the induction ones
	ind    []indVar // induction registers: one ±1 update a pass, read by nothing else but the exit cmp
	ctr    uint8    // the induction register the exit cmp reads
	step   uint64   // ctr's step a pass: 1 or -1
	pre    bool     // ctr's update runs before the cmp in a pass
	inv    uint8    // the cmp's other operand, a register the block never writes (unless useImm)
	imm    uint64   // the cmp's sign-extended immediate (when useImm)
	useImm bool
	cond   isa.Cond // holds on (ctr, other operand) exactly when a pass continues
}

// indVar is an induction register and its step a pass (1 or -1).
type indVar struct {
	reg  uint8
	step uint64
}

// fixpointLoop returns the classification of ents as a fixpoint-eligible
// self-loop, or nil. The block must be one of the self-loop shapes formation
// builds: its only JCC, fed by the CMPrr/CMPri right before it, leaves the
// loop on one outcome, and the block's last entry (that JCC, or a JMP)
// returns to its entry on the other. Every entry must be a trap-free,
// store-free register op from the list in regUse; among them only the JCC
// and INC read flags, and INC's CF read feeds nothing but flags, which the
// cmp overwrites before the JCC reads them.
func fixpointLoop(ents []blkEnt) *fixLoop {
	n := len(ents)
	entry := ents[0].rip
	j := -1
	for i := range ents {
		if ents[i].in.Op == isa.JCC {
			if j >= 0 {
				return nil
			}
			j = i
		}
	}
	if j < 1 {
		return nil
	}
	jc := &ents[j]
	fall := jc.rip + uint64(jc.ilen)
	target := fall + uint64(jc.in.Imm)
	if target == fall {
		return nil
	}
	// contTaken: the JCC outcome on which a pass continues round the loop.
	var contTaken bool
	if j < n-1 {
		// A side exit: the block continues at the fallthrough, and its last
		// entry must jump back to the entry.
		l := &ents[n-1]
		if l.in.Op != isa.JMP || l.rip+uint64(l.ilen)+uint64(l.in.Imm) != entry {
			return nil
		}
	} else {
		switch entry {
		case target:
			contTaken = true
		case fall:
		default:
			return nil
		}
	}
	cmp := &ents[j-1].in
	if cmp.Op != isa.CMPri && cmp.Op != isa.CMPrr {
		return nil
	}
	cond := jc.in.CC
	switch cond {
	case isa.CondB, isa.CondAE, isa.CondE, isa.CondNE, isa.CondBE, isa.CondA,
		isa.CondL, isa.CondGE, isa.CondLE, isa.CondG:
	default:
		return nil
	}
	if !contTaken {
		cond = cond.Negate()
	}

	// Per register: how many entries write it, the last writer, and the
	// entries that read it (a bit per entry: maxBlockEnts is 64).
	var writes [isa.NumGPR]int
	var writer [isa.NumGPR]int
	var readers [isa.NumGPR]uint64
	for i := range ents {
		r, w, ok := regUse(&ents[i].in)
		if !ok {
			return nil
		}
		for x := 0; x < isa.NumGPR; x++ {
			if r&(1<<x) != 0 {
				readers[x] |= 1 << i
			}
			if w&(1<<x) != 0 {
				writes[x]++
				writer[x] = i
			}
		}
	}
	// An induction register has one writer, a ±1 step, and no reader but
	// that step and the cmp; every other register the block writes is
	// compared between passes.
	f := &fixLoop{}
	ind := uint32(0)
	for x := 0; x < isa.NumGPR; x++ {
		if writes[x] == 0 {
			continue
		}
		u := writer[x]
		if step, ok := unitStep(&ents[u].in); ok && writes[x] == 1 && readers[x]&^(1<<u|1<<(j-1)) == 0 {
			f.ind = append(f.ind, indVar{reg: uint8(x), step: step})
			ind |= 1 << x
			continue
		}
		f.other = append(f.other, uint8(x))
	}
	d, s := uint8(cmp.Dst), uint8(cmp.Src)
	switch {
	case cmp.Op == isa.CMPri && ind&(1<<d) != 0:
		f.ctr, f.imm, f.useImm = d, uint64(cmp.Imm), true
	case cmp.Op == isa.CMPrr && d != s && ind&(1<<d) != 0 && writes[s] == 0:
		f.ctr, f.inv = d, s
	case cmp.Op == isa.CMPrr && d != s && ind&(1<<s) != 0 && writes[d] == 0:
		// The counter is the cmp's right operand: mirror the relation.
		f.ctr, f.inv = s, d
		cond = mirrorCond(cond)
	default:
		return nil
	}
	f.step, _ = unitStep(&ents[writer[f.ctr]].in)
	f.pre = writer[f.ctr] < j-1
	f.cond = cond
	return f
}

// regUse returns the GPRs in reads and writes, as bit masks, and whether in
// is one of the ops a fixpoint-eligible loop may contain: register-only,
// trap-free, store-free ops whose thunk writes nothing but Dst, the
// arithmetic flags and RIP.
func regUse(in *isa.Instr) (r, w uint32, ok bool) {
	d, s := uint32(1)<<in.Dst, uint32(1)<<in.Src
	switch in.Op {
	case isa.JMP, isa.JCC:
		return 0, 0, true
	case isa.MOVri:
		return 0, d, true
	case isa.MOVrr:
		return s, d, true
	case isa.ADDri, isa.SUBri, isa.ANDri, isa.ORri, isa.XORri,
		isa.SHLri, isa.SHRri, isa.NOTr, isa.IMULri, isa.INCr:
		return d, d, true
	case isa.ADDrr, isa.ANDrr, isa.ORrr, isa.XORrr:
		return d | s, d, true
	case isa.CMPri:
		return d, 0, true
	case isa.CMPrr, isa.TESTrr:
		return d | s, 0, true
	}
	return 0, 0, false
}

// unitStep reports whether in moves its Dst by exactly ±1, and the step.
func unitStep(in *isa.Instr) (uint64, bool) {
	switch {
	case in.Op == isa.INCr, in.Op == isa.ADDri && in.Imm == 1, in.Op == isa.SUBri && in.Imm == -1:
		return 1, true
	case in.Op == isa.ADDri && in.Imm == -1, in.Op == isa.SUBri && in.Imm == 1:
		return ^uint64(0), true
	}
	return 0, false
}

// mirrorCond turns a relation on (a, b) into the same relation on (b, a).
func mirrorCond(c isa.Cond) isa.Cond {
	switch c {
	case isa.CondB:
		return isa.CondA
	case isa.CondA:
		return isa.CondB
	case isa.CondAE:
		return isa.CondBE
	case isa.CondBE:
		return isa.CondAE
	case isa.CondL:
		return isa.CondG
	case isa.CondG:
		return isa.CondL
	case isa.CondGE:
		return isa.CondLE
	case isa.CondLE:
		return isa.CondGE
	}
	return c // E, NE
}

// repeat reports whether every non-induction register holds what the
// previous call recorded, and records their values for the next call.
// fastForward calls it after each completed pass.
func (f *fixLoop) repeat(c *CPU) bool {
	same := true
	for k, r := range f.other {
		if v := c.Regs[r&(isa.NumGPR-1)]; v != c.loopPrev[k] {
			c.loopPrev[k] = v
			same = false
		}
	}
	return same
}

// span returns how many of the passes starting now, at most max, certainly
// continue the loop: the passes whose cmp sees a counter value that
// satisfies f.cond, counted up to the first that does not or the first at
// which the counter would wrap around in the compare's order.
func (f *fixLoop) span(c *CPU, max uint64) uint64 {
	x := c.Regs[f.ctr&(isa.NumGPR-1)]
	if f.pre {
		x += f.step
	}
	v := f.imm
	if !f.useImm {
		v = c.Regs[f.inv&(isa.NumGPR-1)]
	}
	switch f.cond {
	case isa.CondL, isa.CondGE, isa.CondLE, isa.CondG:
		// Signed order: flipping the sign bit maps it onto unsigned order.
		x ^= 1 << 63
		v ^= 1 << 63
	}
	// [lo, hi]: the run of continuing counter values that holds x.
	var lo, hi uint64
	switch f.cond {
	case isa.CondB, isa.CondL:
		if x >= v {
			return 0
		}
		lo, hi = 0, v-1
	case isa.CondBE, isa.CondLE:
		if x > v {
			return 0
		}
		lo, hi = 0, v
	case isa.CondA, isa.CondG:
		if x <= v {
			return 0
		}
		lo, hi = v+1, ^uint64(0)
	case isa.CondAE, isa.CondGE:
		if x < v {
			return 0
		}
		lo, hi = v, ^uint64(0)
	case isa.CondE:
		if x != v {
			return 0
		}
		lo, hi = v, v
	default: // NE
		switch {
		case x == v:
			return 0
		case x < v:
			lo, hi = 0, v-1
		default:
			lo, hi = v+1, ^uint64(0)
		}
	}
	last := x - lo // passes after this one before the counter leaves [lo, hi]
	if f.step == 1 {
		last = hi - x
	}
	if last >= max {
		return max
	}
	return last + 1
}

// advance applies k skipped passes to the induction registers.
func (f *fixLoop) advance(c *CPU, k uint64) {
	for _, v := range f.ind {
		c.Regs[v.reg&(isa.NumGPR-1)] += k * v.step
	}
}
