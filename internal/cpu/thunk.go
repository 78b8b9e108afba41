package cpu

import (
	"math/bits"
	"slices"

	"repro/internal/isa"
)

// The block compiler: per-opcode dispatch specialization.
//
// The superblock engine (bcache.go) amortizes lookup and validation over
// straight-line regions, but until this layer every instruction inside a
// block still re-entered the ~400-line exec switch: opcode dispatch, operand
// field loads, effective-address shape branches, access-size normalization,
// and the full CF/OF/SF/ZF/PF computation on every ALU op. All of that is
// invariant for a given decoded instruction at a given address, so it can be
// resolved ONCE, at block formation time, into a specialized closure — a
// thunk — that the steady-state dispatch loop calls directly.
//
// Four families of specialization happen here:
//
//   - Operand capture. A thunk closes over the decoded operands as Go
//     locals: register indices, sign-extended immediates, the access size,
//     and — because a block executes at a fixed virtual address — the
//     CONSTANT successor address `next` and any %rip-relative or absolute
//     effective address, folded to a single uint64 at compile time. Branch
//     targets (JMP/JCC/CALL rel32) fold the same way.
//
//   - Effective-address folding. compileEA flattens every operand shape
//     (constant, base+disp, index*scale+disp, base+index*scale+disp) into
//     one branchless three-term expression (eaCap) instead of re-testing
//     HasBase/HasIndex/RIPRel per execution.
//
//   - Flag-dead fusion. compileBlock runs a backward liveness pass over the
//     block: an arithmetic instruction whose CF/OF/SF/ZF/PF results are
//     provably overwritten before ANY observable point gets the fused
//     no-flags thunk variant — a bare register update (or, for CMP/TEST, a
//     pure no-op) with no flagsAdd/flagsSub/setSZP/parity work at all.
//
//   - Run merging. Once fusion has settled every slot, mergeRuns turns
//     each maximal run of two or more trap-free, store-free compiled slots
//     into ONE thunk that calls the run's thunks in order (mergeThunks).
//     The dispatch loop's per-slot work — the indirect call, and the spill
//     and reload of its locals around it — is then paid once per run instead
//     of once per instruction. Only trap-free, store-free slots qualify
//     because those are exactly the ones after which the loop has nothing to
//     check: such a thunk always returns (StepContinue, nil), so no run can
//     end partway through a merged call, and there is no self-modification
//     re-check to make after it. A side exit (a JCC, fused or not) or the
//     block's final terminator may close a run, since its check happens after
//     the merged call exactly as it did after the slot itself. The merged
//     slot carries the LAST entry's cumulative cyc, ni and flags, so the
//     loop's accounting, its next-slot step and its side-exit check read as
//     if it had just run that entry — just as a fused cmp+jcc carries its
//     jcc's. The budget rule is unaffected: a compiled pass starts only when
//     the whole block fits, so a run cut by the limit stops before a merged
//     slot, never inside one.
//
// Soundness of the fusion rests on a conservative definition of "observable
// point". The architectural %rflags must be bit-exact whenever anything can
// legally look at it:
//
//   - a flag READER executes (JCC, PUSHFQ, SYSCALL's %r11 spill, INC/DEC's
//     CF preservation, REPE CMPS/SCAS) — dcFR entries;
//   - an instruction that can TRAP executes (the trap handler and the
//     post-trap stop path both see %rflags; a trapping instruction may fault
//     BEFORE writing its own flags, so it cannot count as an overwriter
//     either) — dcTrap entries;
//   - the block EXITS (fallthrough, terminator, limit stop: the dispatcher,
//     a chained successor, a probe-armed re-entry, or the caller may all
//     read flags next) — liveness starts pessimistic at the block tail, and
//     every side-exit JCC counts as an exit for the entries before it;
//   - the block ABORTS after a self-modifying store (the remaining entries
//     are stale; their liveness promises are void) — every dcStore entry is
//     treated as a block exit for the instruction it follows.
//
// Only an entry followed — with no such point in between — by an
// instruction that unconditionally overwrites ALL arithmetic flags and
// cannot trap (dcFW: the reg/imm ALU, shift, NEG, IMUL, CMP, TEST forms)
// may be fused. Everything the pass is unsure about stays live, and the
// probe-armed path never executes thunks at all (Run falls back to Step,
// exactly like today), so per-instruction observers always see interpreter
// semantics.
//
// Thunks capture NO *CPU and no page state — only immutable decoded
// operands — so compiled blocks are shared freely across COW forks
// (fork.go) and are invalidated by exactly the machinery that already
// drops the blocks that own them.

// thunk executes one compiled instruction against c. It mirrors exec's trap
// behaviour bit for bit and sets c.RIP to the successor on completion.
// Instrs/Cycles accounting is NOT done per thunk: the dispatch loop charges
// a whole (possibly partial) block run in one shot from the cumulative
// cycle sums the compiler stores in cthunk.cyc — two fewer memory
// read-modify-writes on every instruction of the steady state.
type thunk func(c *CPU) (StopReason, *Trap)

// cthunk is one compiled block entry: the specialized thunk, the cumulative
// base cycle cost and instruction count of the block through this entry (so
// the dispatch loop can account a run ending here with one addition each —
// and so a fused cmp+jcc entry, which retires TWO instructions, charges both),
// and the decode flags the loop needs (dcStore for the self-modification
// abort check, dcEnd for the side-exit check). Kept small so the compiled
// dispatch loop walks a dense array. A nil fn marks an entry with no
// specialized form; the dispatch loop runs it through exec from the block's
// entry array at the same index. The array stays index-aligned with the
// entries: ni is also the index of the next entry to run, so a fused cmp+jcc
// thunk (ni two past its own index) skips the jcc's slot, which stays in
// place unused, and a merged run's thunk skips the rest of its run the same
// way.
type cthunk struct {
	fn    thunk
	cyc   uint64
	ni    uint32
	flags uint8
}

// compileBlock lowers a formed block to compiled thunks (lowerBlock) and
// merges their trap-free runs (mergeRuns). It returns the thunk array, the
// number of entries whose flag computation was elided by the liveness pass,
// and the number of entries run merging folded into multi-entry thunks.
func compileBlock(ents []blkEnt) (comp []cthunk, fused, merged uint64) {
	comp, fused = lowerBlock(ents)
	return comp, fused, mergeRuns(comp)
}

// lowerBlock builds one thunk per entry, with flag-dead and cmp+jcc fusion.
// Each entry's successor address (the constant every thunk folds) is its own
// rip plus its length. It returns the thunk array and the number of entries
// whose flag computation was elided by the liveness pass.
//
// The liveness pass walks backwards. dead == true means: the arithmetic
// flags as they stand RIGHT AFTER the current entry are provably
// overwritten before any observable point, so the entry need not compute
// them. See the package comment above for what counts as observable.
func lowerBlock(ents []blkEnt) (comp []cthunk, fused uint64) {
	// Forward pass: the running sum of base cycle costs — the dispatch loop
	// charges a whole run from the last executed entry's cumulative total
	// instead of per instruction.
	comp = make([]cthunk, len(ents))
	var cyc uint64
	for i := range ents {
		cyc += ents[i].cost
		comp[i].cyc = cyc
		comp[i].ni = uint32(i + 1)
	}
	last := len(ents) - 1
	dead := false // block exit: flags live
	for i := last; i >= 0; i-- {
		e := &ents[i]
		d := dead
		if e.flags&dcStore != 0 || (i < last && e.flags&dcEnd != 0) {
			// A store can abort the block right after this entry
			// (self-modification resync), and a side exit leaves it there:
			// treat the position after it as an exit, whatever the rest of
			// the block promised.
			d = false
		}
		fn, elided := compileEnt(&e.in, e.rip+uint64(e.ilen), d)
		comp[i].fn = fn
		comp[i].flags = e.flags
		if elided {
			fused++
		}
		switch {
		case e.flags&(dcFR|dcTrap) != 0:
			// Reads flags, or may trap before (fully) writing them: every
			// earlier flag result must be architectural here.
			dead = false
		case e.flags&dcFW != 0:
			// Unconditionally overwrites all arithmetic flags, trap-free:
			// earlier results die here.
			dead = true
		}
	}
	// Branch fusion: a trap-free register compare/arith feeding a JCC —
	// a side exit or the block's last entry — collapses into one thunk, so
	// the hottest two-entry sequence in loop code and in kR^X range checks
	// (cmp/test/dec ; jcc) pays one dispatch round instead of two. The
	// combined thunk still computes the architectural flags first and
	// branches on them — bit-identical, just one call. The fused entry takes
	// the JCC's cumulative cyc/ni, so accounting charges both instructions
	// and the runner continues after the JCC, and the JCC's flags, so the
	// runner checks for a side exit after it.
	for i := 0; i < last; i++ {
		j := &ents[i+1]
		if j.in.Op != isa.JCC {
			continue
		}
		if fn := compileCmpJcc(&ents[i].in, &j.in, j.rip+uint64(j.ilen)); fn != nil {
			comp[i] = cthunk{fn: fn, cyc: comp[i+1].cyc, ni: comp[i+1].ni, flags: j.flags}
		}
	}
	return comp, fused
}

// mergeRuns is run merging (see the top of this file): it walks the slots
// the dispatch loop visits, following ni past fused jcc slots, and collapses
// each maximal run of two or more trap-free, store-free slots into its first
// slot. A dcEnd slot closes the run it joins. The slots behind a merged one
// stay in place, unvisited, like a fused pair's jcc slot. It returns the
// number of entries merged.
func mergeRuns(comp []cthunk) (merged uint64) {
	var run []thunk
	for i := 0; i < len(comp); {
		k, end := i, i
		run = run[:0]
		for k < len(comp) {
			ct := &comp[k]
			if ct.fn == nil || ct.flags&(dcTrap|dcStore) != 0 {
				break
			}
			run = append(run, ct.fn)
			end, k = k, int(ct.ni)
			if ct.flags&dcEnd != 0 {
				break
			}
		}
		if len(run) >= 2 {
			l := comp[end]
			comp[i] = cthunk{fn: mergeThunks(run), cyc: l.cyc, ni: l.ni, flags: l.flags}
			merged += uint64(l.ni) - uint64(i)
		}
		if k == i {
			k = int(comp[i].ni) // slot i itself does not qualify
		}
		i = k
	}
	return merged
}

// mergeThunks builds the single thunk of a merged run. Every thunk in fns is
// trap-free and stop-free, so each returns (StepContinue, nil) and the
// merged call discards their results and returns the same.
func mergeThunks(fns []thunk) thunk {
	fns = slices.Clone(fns)
	return func(c *CPU) (StopReason, *Trap) {
		for _, fn := range fns {
			fn(c)
		}
		return StepContinue, nil
	}
}

// compileCmpJcc fuses a trap-free register-form flag producer with the
// conditional branch right after it that consumes it. jnext is the
// branch's successor (fallthrough) address. Returns nil for producers that
// can trap (memory forms) or have no fused constructor — the pair then
// dispatches as two ordinary entries.
func compileCmpJcc(p, j *isa.Instr, jnext uint64) thunk {
	d, s := p.Dst, p.Src
	imm := uint64(p.Imm)
	cc := j.CC
	target := jnext + uint64(j.Imm)
	branch := func(c *CPU) {
		if cc.Eval(c.RFlags) {
			c.RIP = target
		} else {
			c.RIP = jnext
		}
	}
	switch p.Op {
	case isa.CMPri:
		return func(c *CPU) (StopReason, *Trap) {
			a := c.Regs[d]
			c.flagsSub(a, imm, a-imm)
			branch(c)
			return StepContinue, nil
		}
	case isa.CMPrr:
		return func(c *CPU) (StopReason, *Trap) {
			a, b := c.Regs[d], c.Regs[s]
			c.flagsSub(a, b, a-b)
			branch(c)
			return StepContinue, nil
		}
	case isa.TESTrr:
		return func(c *CPU) (StopReason, *Trap) {
			c.flagsLogic(c.Regs[d] & c.Regs[s])
			branch(c)
			return StepContinue, nil
		}
	case isa.TESTri:
		return func(c *CPU) (StopReason, *Trap) {
			c.flagsLogic(c.Regs[d] & imm)
			branch(c)
			return StepContinue, nil
		}
	case isa.ADDri:
		return func(c *CPU) (StopReason, *Trap) {
			a := c.Regs[d]
			r := a + imm
			c.Regs[d] = r
			c.flagsAdd(a, imm, r)
			branch(c)
			return StepContinue, nil
		}
	case isa.ADDrr:
		return func(c *CPU) (StopReason, *Trap) {
			a, b := c.Regs[d], c.Regs[s]
			r := a + b
			c.Regs[d] = r
			c.flagsAdd(a, b, r)
			branch(c)
			return StepContinue, nil
		}
	case isa.SUBri:
		return func(c *CPU) (StopReason, *Trap) {
			a := c.Regs[d]
			r := a - imm
			c.Regs[d] = r
			c.flagsSub(a, imm, r)
			branch(c)
			return StepContinue, nil
		}
	case isa.SUBrr:
		return func(c *CPU) (StopReason, *Trap) {
			a, b := c.Regs[d], c.Regs[s]
			r := a - b
			c.Regs[d] = r
			c.flagsSub(a, b, r)
			branch(c)
			return StepContinue, nil
		}
	case isa.INCr:
		return func(c *CPU) (StopReason, *Trap) {
			cf := c.RFlags & isa.FlagCF
			a := c.Regs[d]
			r := a + 1
			c.Regs[d] = r
			c.flagsAdd(a, 1, r)
			c.RFlags = (c.RFlags &^ isa.FlagCF) | cf
			branch(c)
			return StepContinue, nil
		}
	case isa.DECr:
		return func(c *CPU) (StopReason, *Trap) {
			cf := c.RFlags & isa.FlagCF
			a := c.Regs[d]
			r := a - 1
			c.Regs[d] = r
			c.flagsSub(a, 1, r)
			c.RFlags = (c.RFlags &^ isa.FlagCF) | cf
			branch(c)
			return StepContinue, nil
		}
	}
	return nil
}

// eaCap is a captured effective-address computation, branchless:
// addr(c) = Regs[b]*bm + Regs[x]*xs + disp. An absent base or index keeps a
// zero multiplier (its register index then reads %rax, harmlessly), and
// %rip-relative or absolute operands fold entirely into disp — so every
// operand shape evaluates as the same three-term expression, which inlines
// into each memory thunk with no nested call per execution.
type eaCap struct {
	b, x   uint8  // GPR indices (masked on use, so addr stays bounds-check-free)
	bm, xs uint64 // base multiplier (0 or 1) and index scale (0 = no index)
	disp   uint64
}

func (e eaCap) addr(c *CPU) uint64 {
	return c.Regs[e.b&(isa.NumGPR-1)]*e.bm + c.Regs[e.x&(isa.NumGPR-1)]*e.xs + e.disp
}

// compileEA folds a memory operand into an eaCap. next is the instruction's
// successor address (the anchor of %rip-relative references — a compile-time
// constant, so RIP-relative and absolute operands fold to a single uint64).
func compileEA(m isa.MemRef, next uint64) eaCap {
	disp := uint64(int64(m.Disp))
	if m.RIPRel {
		return eaCap{disp: next + disp}
	}
	e := eaCap{disp: disp}
	if m.HasBase() {
		e.b, e.bm = uint8(m.Base), 1
	}
	if m.HasIndex() {
		e.x, e.xs = uint8(m.Index), uint64(m.Scale)
	}
	return e
}

// compileEnt builds the specialized thunk for one decoded instruction with
// constant successor address next. dead reports that the instruction's
// arithmetic-flag results are never observed (see compileBlock); the
// returned bool reports whether flag computation was actually elided on
// that basis. Opcodes with no specialized constructor (string, system, MPX
// spill/fill, trap instructions — all block-rare) return a nil thunk, which
// the dispatch loop runs in place through the exec switch — always
// semantically exact.
func compileEnt(in *isa.Instr, next uint64, dead bool) (thunk, bool) {
	d, s := in.Dst, in.Src
	imm := uint64(in.Imm)

	switch in.Op {
	case isa.NOP, isa.SWAPGS:
		return func(c *CPU) (StopReason, *Trap) {
			c.RIP = next
			return StepContinue, nil
		}, false

	// --- data movement ---
	case isa.MOVri:
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d] = imm
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.MOVrr:
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d] = c.Regs[s]
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.LEA:
		ea := compileEA(in.M, next)
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d] = ea.addr(c)
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.MOVrm:
		ea := compileEA(in.M, next)
		sz := in.AccessSize()
		return func(c *CPU) (StopReason, *Trap) {
			v, t := c.load(ea.addr(c), sz)
			if t != nil {
				return StepContinue, t
			}
			c.Regs[d] = v
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.MOVmr:
		ea := compileEA(in.M, next)
		sz := in.AccessSize()
		return func(c *CPU) (StopReason, *Trap) {
			if t := c.store(ea.addr(c), c.Regs[d], sz); t != nil {
				return StepContinue, t
			}
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.MOVmi:
		ea := compileEA(in.M, next)
		sz := in.AccessSize()
		return func(c *CPU) (StopReason, *Trap) {
			if t := c.store(ea.addr(c), imm, sz); t != nil {
				return StepContinue, t
			}
			c.RIP = next
			return StepContinue, nil
		}, false

	// --- stack ---
	case isa.PUSH:
		return func(c *CPU) (StopReason, *Trap) {
			if t := c.push(c.Regs[d]); t != nil {
				return StepContinue, t
			}
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.POP:
		return func(c *CPU) (StopReason, *Trap) {
			v, t := c.pop()
			if t != nil {
				return StepContinue, t
			}
			c.Regs[d] = v
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.PUSHFQ:
		return func(c *CPU) (StopReason, *Trap) {
			if t := c.push(c.RFlags); t != nil {
				return StepContinue, t
			}
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.POPFQ:
		return func(c *CPU) (StopReason, *Trap) {
			v, t := c.pop()
			if t != nil {
				return StepContinue, t
			}
			c.RFlags = v
			c.RIP = next
			return StepContinue, nil
		}, false

	// --- arithmetic (fused no-flags variants when the result flags are
	// provably dead; the live variants call the shared flag helpers) ---
	case isa.ADDri:
		if dead {
			return func(c *CPU) (StopReason, *Trap) {
				c.Regs[d] += imm
				c.RIP = next
				return StepContinue, nil
			}, true
		}
		return func(c *CPU) (StopReason, *Trap) {
			a := c.Regs[d]
			r := a + imm
			c.Regs[d] = r
			c.flagsAdd(a, imm, r)
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.ADDrr:
		if dead {
			return func(c *CPU) (StopReason, *Trap) {
				c.Regs[d] += c.Regs[s]
				c.RIP = next
				return StepContinue, nil
			}, true
		}
		return func(c *CPU) (StopReason, *Trap) {
			a, b := c.Regs[d], c.Regs[s]
			r := a + b
			c.Regs[d] = r
			c.flagsAdd(a, b, r)
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.ADDrm:
		ea := compileEA(in.M, next)
		sz := in.AccessSize()
		return func(c *CPU) (StopReason, *Trap) {
			b, t := c.load(ea.addr(c), sz)
			if t != nil {
				return StepContinue, t
			}
			a := c.Regs[d]
			r := a + b
			c.Regs[d] = r
			c.flagsAdd(a, b, r)
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.SUBri:
		if dead {
			return func(c *CPU) (StopReason, *Trap) {
				c.Regs[d] -= imm
				c.RIP = next
				return StepContinue, nil
			}, true
		}
		return func(c *CPU) (StopReason, *Trap) {
			a := c.Regs[d]
			r := a - imm
			c.Regs[d] = r
			c.flagsSub(a, imm, r)
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.SUBrr:
		if dead {
			return func(c *CPU) (StopReason, *Trap) {
				c.Regs[d] -= c.Regs[s]
				c.RIP = next
				return StepContinue, nil
			}, true
		}
		return func(c *CPU) (StopReason, *Trap) {
			a, b := c.Regs[d], c.Regs[s]
			r := a - b
			c.Regs[d] = r
			c.flagsSub(a, b, r)
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.SUBrm:
		ea := compileEA(in.M, next)
		sz := in.AccessSize()
		return func(c *CPU) (StopReason, *Trap) {
			b, t := c.load(ea.addr(c), sz)
			if t != nil {
				return StepContinue, t
			}
			a := c.Regs[d]
			r := a - b
			c.Regs[d] = r
			c.flagsSub(a, b, r)
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.ANDri, isa.ORri, isa.XORri:
		op := in.Op
		if dead {
			return func(c *CPU) (StopReason, *Trap) {
				switch op {
				case isa.ANDri:
					c.Regs[d] &= imm
				case isa.ORri:
					c.Regs[d] |= imm
				default:
					c.Regs[d] ^= imm
				}
				c.RIP = next
				return StepContinue, nil
			}, true
		}
		return func(c *CPU) (StopReason, *Trap) {
			switch op {
			case isa.ANDri:
				c.Regs[d] &= imm
			case isa.ORri:
				c.Regs[d] |= imm
			default:
				c.Regs[d] ^= imm
			}
			c.flagsLogic(c.Regs[d])
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.ANDrr, isa.ORrr, isa.XORrr:
		op := in.Op
		if dead {
			return func(c *CPU) (StopReason, *Trap) {
				switch op {
				case isa.ANDrr:
					c.Regs[d] &= c.Regs[s]
				case isa.ORrr:
					c.Regs[d] |= c.Regs[s]
				default:
					c.Regs[d] ^= c.Regs[s]
				}
				c.RIP = next
				return StepContinue, nil
			}, true
		}
		return func(c *CPU) (StopReason, *Trap) {
			switch op {
			case isa.ANDrr:
				c.Regs[d] &= c.Regs[s]
			case isa.ORrr:
				c.Regs[d] |= c.Regs[s]
			default:
				c.Regs[d] ^= c.Regs[s]
			}
			c.flagsLogic(c.Regs[d])
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.XORrm:
		ea := compileEA(in.M, next)
		sz := in.AccessSize()
		return func(c *CPU) (StopReason, *Trap) {
			v, t := c.load(ea.addr(c), sz)
			if t != nil {
				return StepContinue, t
			}
			c.Regs[d] ^= v
			c.flagsLogic(c.Regs[d])
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.XORmr:
		ea := compileEA(in.M, next)
		sz := in.AccessSize()
		return func(c *CPU) (StopReason, *Trap) {
			a := ea.addr(c)
			v, t := c.load(a, sz)
			if t != nil {
				return StepContinue, t
			}
			r := v ^ c.Regs[d]
			if t := c.store(a, r, sz); t != nil {
				return StepContinue, t
			}
			c.flagsLogic(r)
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.SHLri:
		sh := uint(imm) & 63
		if dead {
			return func(c *CPU) (StopReason, *Trap) {
				c.Regs[d] <<= sh
				c.RIP = next
				return StepContinue, nil
			}, true
		}
		return func(c *CPU) (StopReason, *Trap) {
			v := c.Regs[d]
			c.RFlags &^= isa.FlagCF | isa.FlagOF
			if sh > 0 && (v>>(64-sh))&1 != 0 {
				c.RFlags |= isa.FlagCF
			}
			c.Regs[d] = v << sh
			c.setSZP(c.Regs[d])
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.SHRri:
		sh := uint(imm) & 63
		if dead {
			return func(c *CPU) (StopReason, *Trap) {
				c.Regs[d] >>= sh
				c.RIP = next
				return StepContinue, nil
			}, true
		}
		return func(c *CPU) (StopReason, *Trap) {
			v := c.Regs[d]
			c.RFlags &^= isa.FlagCF | isa.FlagOF
			if sh > 0 && (v>>(sh-1))&1 != 0 {
				c.RFlags |= isa.FlagCF
			}
			c.Regs[d] = v >> sh
			c.setSZP(c.Regs[d])
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.SARri:
		sh := uint(imm) & 63
		if dead {
			return func(c *CPU) (StopReason, *Trap) {
				c.Regs[d] = uint64(int64(c.Regs[d]) >> sh)
				c.RIP = next
				return StepContinue, nil
			}, true
		}
		return func(c *CPU) (StopReason, *Trap) {
			v := int64(c.Regs[d])
			c.RFlags &^= isa.FlagCF | isa.FlagOF
			if sh > 0 && (v>>(sh-1))&1 != 0 {
				c.RFlags |= isa.FlagCF
			}
			c.Regs[d] = uint64(v >> sh)
			c.setSZP(c.Regs[d])
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.NOTr:
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d] = ^c.Regs[d]
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.NEGr:
		if dead {
			return func(c *CPU) (StopReason, *Trap) {
				c.Regs[d] = -c.Regs[d]
				c.RIP = next
				return StepContinue, nil
			}, true
		}
		return func(c *CPU) (StopReason, *Trap) {
			v := c.Regs[d]
			c.Regs[d] = -v
			c.flagsSub(0, v, c.Regs[d])
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.IMULrr:
		if dead {
			return func(c *CPU) (StopReason, *Trap) {
				c.Regs[d] *= c.Regs[s]
				c.RIP = next
				return StepContinue, nil
			}, true
		}
		return func(c *CPU) (StopReason, *Trap) {
			hi, lo := bits.Mul64(c.Regs[d], c.Regs[s])
			c.Regs[d] = lo
			c.RFlags &^= isa.FlagCF | isa.FlagOF
			if hi != 0 && hi != ^uint64(0) {
				c.RFlags |= isa.FlagCF | isa.FlagOF
			}
			c.setSZP(lo)
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.IMULri:
		if dead {
			return func(c *CPU) (StopReason, *Trap) {
				c.Regs[d] *= imm
				c.RIP = next
				return StepContinue, nil
			}, true
		}
		return func(c *CPU) (StopReason, *Trap) {
			hi, lo := bits.Mul64(c.Regs[d], imm)
			c.Regs[d] = lo
			c.RFlags &^= isa.FlagCF | isa.FlagOF
			if hi != 0 && hi != ^uint64(0) {
				c.RFlags |= isa.FlagCF | isa.FlagOF
			}
			c.setSZP(lo)
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.INCr:
		if dead {
			return func(c *CPU) (StopReason, *Trap) {
				c.Regs[d]++
				c.RIP = next
				return StepContinue, nil
			}, true
		}
		return func(c *CPU) (StopReason, *Trap) {
			cf := c.RFlags & isa.FlagCF
			a := c.Regs[d]
			r := a + 1
			c.Regs[d] = r
			c.flagsAdd(a, 1, r)
			c.RFlags = (c.RFlags &^ isa.FlagCF) | cf
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.DECr:
		if dead {
			return func(c *CPU) (StopReason, *Trap) {
				c.Regs[d]--
				c.RIP = next
				return StepContinue, nil
			}, true
		}
		return func(c *CPU) (StopReason, *Trap) {
			cf := c.RFlags & isa.FlagCF
			a := c.Regs[d]
			r := a - 1
			c.Regs[d] = r
			c.flagsSub(a, 1, r)
			c.RFlags = (c.RFlags &^ isa.FlagCF) | cf
			c.RIP = next
			return StepContinue, nil
		}, false

	// --- comparison (a dead compare has no architectural effect at all) ---
	case isa.CMPri:
		if dead {
			return nopThunk(next), true
		}
		return func(c *CPU) (StopReason, *Trap) {
			a := c.Regs[d]
			c.flagsSub(a, imm, a-imm)
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.CMPrr:
		if dead {
			return nopThunk(next), true
		}
		return func(c *CPU) (StopReason, *Trap) {
			a, b := c.Regs[d], c.Regs[s]
			c.flagsSub(a, b, a-b)
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.CMPrm:
		ea := compileEA(in.M, next)
		sz := in.AccessSize()
		return func(c *CPU) (StopReason, *Trap) {
			v, t := c.load(ea.addr(c), sz)
			if t != nil {
				return StepContinue, t
			}
			a := c.Regs[d]
			c.flagsSub(a, v, a-v)
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.CMPmi:
		ea := compileEA(in.M, next)
		sz := in.AccessSize()
		return func(c *CPU) (StopReason, *Trap) {
			v, t := c.load(ea.addr(c), sz)
			if t != nil {
				return StepContinue, t
			}
			c.flagsSub(v, imm, v-imm)
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.TESTrr:
		if dead {
			return nopThunk(next), true
		}
		return func(c *CPU) (StopReason, *Trap) {
			c.flagsLogic(c.Regs[d] & c.Regs[s])
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.TESTri:
		if dead {
			return nopThunk(next), true
		}
		return func(c *CPU) (StopReason, *Trap) {
			c.flagsLogic(c.Regs[d] & imm)
			c.RIP = next
			return StepContinue, nil
		}, false

	// --- control transfer (targets fold to constants) ---
	case isa.JMP:
		target := next + imm
		return func(c *CPU) (StopReason, *Trap) {
			c.RIP = target
			return StepContinue, nil
		}, false
	case isa.JMPR:
		return func(c *CPU) (StopReason, *Trap) {
			c.RIP = c.Regs[d]
			return StepContinue, nil
		}, false
	case isa.JMPM:
		ea := compileEA(in.M, next)
		return func(c *CPU) (StopReason, *Trap) {
			v, t := c.load(ea.addr(c), 8)
			if t != nil {
				return StepContinue, t
			}
			c.RIP = v
			return StepContinue, nil
		}, false
	case isa.JCC:
		cc := in.CC
		target := next + imm
		return func(c *CPU) (StopReason, *Trap) {
			if cc.Eval(c.RFlags) {
				c.RIP = target
			} else {
				c.RIP = next
			}
			return StepContinue, nil
		}, false
	case isa.CALL:
		target := next + imm
		return func(c *CPU) (StopReason, *Trap) {
			if t := c.push(next); t != nil {
				return StepContinue, t
			}
			c.RIP = target
			return StepContinue, nil
		}, false
	case isa.CALLR:
		return func(c *CPU) (StopReason, *Trap) {
			if t := c.push(next); t != nil {
				return StepContinue, t
			}
			c.RIP = c.Regs[d]
			return StepContinue, nil
		}, false
	case isa.CALLM:
		ea := compileEA(in.M, next)
		return func(c *CPU) (StopReason, *Trap) {
			v, t := c.load(ea.addr(c), 8)
			if t != nil {
				return StepContinue, t
			}
			if t := c.push(next); t != nil {
				return StepContinue, t
			}
			c.RIP = v
			return StepContinue, nil
		}, false
	case isa.RET:
		return func(c *CPU) (StopReason, *Trap) {
			v, t := c.pop()
			if t != nil {
				return StepContinue, t
			}
			if v == StopMagic {
				return StopReturn, nil
			}
			c.RIP = v
			return StepContinue, nil
		}, false
	case isa.RETI:
		return func(c *CPU) (StopReason, *Trap) {
			v, t := c.pop()
			if t != nil {
				return StepContinue, t
			}
			c.Regs[isa.RSP] += imm
			if v == StopMagic {
				return StopReturn, nil
			}
			c.RIP = v
			return StepContinue, nil
		}, false

	// --- flags housekeeping ---
	case isa.CLD:
		return func(c *CPU) (StopReason, *Trap) {
			c.RFlags &^= isa.FlagDF
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.STD:
		return func(c *CPU) (StopReason, *Trap) {
			c.RFlags |= isa.FlagDF
			c.RIP = next
			return StepContinue, nil
		}, false

	// --- MPX checks (the hot half of kR^X-MPX; spill/fill stay generic) ---
	case isa.BNDCU:
		ea := compileEA(in.M, next)
		bnd := in.Bnd
		return func(c *CPU) (StopReason, *Trap) {
			a := ea.addr(c)
			if a > c.Bnd[bnd].UB {
				return StepContinue, &Trap{Kind: TrapBoundRange, Addr: a, RIP: c.RIP, Mode: c.Mode}
			}
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.BNDCL:
		ea := compileEA(in.M, next)
		bnd := in.Bnd
		return func(c *CPU) (StopReason, *Trap) {
			a := ea.addr(c)
			if a < c.Bnd[bnd].LB {
				return StepContinue, &Trap{Kind: TrapBoundRange, Addr: a, RIP: c.RIP, Mode: c.Mode}
			}
			c.RIP = next
			return StepContinue, nil
		}, false
	case isa.BNDMK:
		ea := compileEA(in.M, next)
		bnd := in.Bnd
		return func(c *CPU) (StopReason, *Trap) {
			c.Bnd[bnd] = Bound{LB: 0, UB: ea.addr(c)}
			c.RIP = next
			return StepContinue, nil
		}, false
	}

	// Generic fallback: string operations, mode switches, MSR access, trap
	// instructions, MPX spill/fill — all either block terminators or rare.
	// A nil thunk tells the block runner (runBlock) to run the entry in
	// place through the exec switch — the identical instruction-step the
	// single-step path performs, with no closure allocated and no extra
	// indirect call layered on top.
	return nil, false
}

// nopThunk is the fused form of a dead CMP/TEST: fall-through only — the
// instruction's sole architectural effect was flags that nothing can
// observe.
func nopThunk(next uint64) thunk {
	return func(c *CPU) (StopReason, *Trap) {
		c.RIP = next
		return StepContinue, nil
	}
}
