package cpu

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// TestBlockSelfModAbort is the mid-block self-modification gate: a store
// inside a block overwrites a later instruction of the same block. The
// engine must abort at the store (frame generation moved), resync through
// the dispatch loop, and execute the overwritten instruction from its new
// bytes, exactly as per-instruction dispatch does.
func TestBlockSelfModAbort(t *testing.T) {
	sweep(t, row(t, "fuzz/self-mod-in-block"), func(pt point, o *outcome, c *CPU) {
		if rax := o.passes[0].Regs[isa.RAX]; rax != 9 {
			t.Fatalf("%v executed stale code: rax = %d, want 9", pt, rax)
		}
		if pt.engine == hot1 {
			must(t, "the self-modifying block", c, "Aborts")
		}
	}, points(space{engines: allEngines, limits: []uint64{100}}))
}

// TestBlockLimitExact: the fast path must not overrun a Run limit smaller
// than the pending block: the dispatcher falls back to single-step and
// stops after exactly limit instructions.
func TestBlockLimitExact(t *testing.T) {
	sweep(t, row(t, "block/limit-exact"), func(pt point, o *outcome, _ *CPU) {
		if s := o.passes[0]; pt.limit < 5 && (s.Stop != StopLimit || s.Instrs != pt.limit) {
			t.Fatalf("%v: %v after %d instructions", pt, s.Stop, s.Instrs)
		}
	}, points(space{engines: allEngines, limits: upTo(6)}))
}

// TestBlockFormationAllocBytes bounds the heap bytes one formation
// allocates for a three-entry block: the entry copy, the thunk array, the
// closures and the block list come to about 1 KiB. formBlock gathers
// entries in a 9 KiB stack buffer, and a regression that moves that buffer
// to the heap costs every formation 9 KiB — it showed as a 24% slower
// Table 1/2 sweep, which re-forms each kernel's blocks.
func TestBlockFormationAllocBytes(t *testing.T) {
	c := rawCPU(t, mem.PermX, isa.MovRI(isa.RAX, 5), isa.AddRI(isa.RAX, 7), isa.Ret())
	c.SetBlockHotThreshold(1)
	form := func() {
		c.SetBlockEngine(false) // drops the formed block
		c.SetBlockEngine(true)
		if _, b := c.blockLookup(dcCodeVA); b == nil {
			t.Fatal("no block formed")
		}
	}
	form() // decode the page first
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		form()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 4096 {
		t.Fatalf("forming a three-entry block allocates %d bytes, want < 4096", per)
	}
}

// TestBlockStatsAndToggle pins the SetBlockEngine/BlockStats contract: on by
// default, dispatching through blocks; disabling drops live blocks and
// reverts to single-step with identical results; re-enabling re-forms.
func TestBlockStatsAndToggle(t *testing.T) {
	c := rawCPU(t, mem.PermX,
		isa.MovRI(isa.RAX, 5),
		isa.AddRI(isa.RAX, 7),
		isa.Ret(),
	)
	if !c.BlockEngineEnabled() {
		t.Fatal("block engine must default on")
	}
	if int(c.blockHot) != DefaultBlockHotThreshold {
		t.Fatalf("hot threshold must default to %d, got %d",
			DefaultBlockHotThreshold, int(c.blockHot))
	}
	c.SetBlockHotThreshold(1) // single pass must dispatch every instruction
	mustReturn(t, c, 100)
	s := c.BlockStats()
	if s.Formed == 0 || s.Dispatches == 0 || s.Instrs == 0 || s.Blocks == 0 {
		t.Fatalf("run must go through blocks: %+v", s)
	}
	if s.Instrs != c.Instrs {
		t.Fatalf("all %d instructions should dispatch via blocks, got %d", c.Instrs, s.Instrs)
	}

	c.SetBlockEngine(false)
	if c.BlockEngineEnabled() {
		t.Fatal("disable failed")
	}
	if got := c.BlockStats(); got.Blocks != 0 {
		t.Fatalf("disabling must drop live blocks: %+v", got)
	}
	rax := c.Reg(isa.RAX)
	resetRaw(t, c)
	mustReturn(t, c, 100)
	if c.Reg(isa.RAX) != rax {
		t.Fatalf("single-step run diverged: rax=%d want %d", c.Reg(isa.RAX), rax)
	}
	d := c.BlockStats().Dispatches

	c.SetBlockEngine(true)
	resetRaw(t, c)
	mustReturn(t, c, 100)
	if got := c.BlockStats(); got.Dispatches == d || got.Blocks == 0 {
		t.Fatalf("re-enabled engine must dispatch again: %+v", got)
	}

	// With the decode cache off the engine has nothing to run on, but the
	// cumulative counters live on the CPU and must survive the toggle; only
	// the live footprint goes to zero.
	cum := c.BlockStats()
	c.SetDecodeCache(false)
	if c.BlockEngineEnabled() {
		t.Fatal("no decode cache, no block engine")
	}
	got := c.BlockStats()
	if got.Blocks != 0 {
		t.Fatalf("no decode cache must report zero live blocks: %+v", got)
	}
	cum.Blocks = 0
	if got != cum {
		t.Fatalf("cumulative stats must survive SetDecodeCache(false): got %+v want %+v", got, cum)
	}
}

// blkCountProbe counts exec callbacks; a struct (not a func value) so
// RemoveProbe can find it by identity.
type blkCountProbe struct{ n int }

func (p *blkCountProbe) OnExec(rip uint64, in *isa.Instr, cycles uint64) { p.n++ }

// TestBlockProbeFallback: installing any exec probe must disarm the block
// fast path (probes observe per-instruction pre-state the block loop does
// not materialize); removing the last probe re-arms it.
func TestBlockProbeFallback(t *testing.T) {
	c := rawCPU(t, mem.PermX,
		isa.MovRI(isa.RAX, 5),
		isa.Ret(),
	)
	c.SetBlockHotThreshold(1)
	p := &blkCountProbe{}
	c.AddProbe(p)
	mustReturn(t, c, 100)
	if d := c.BlockStats().Dispatches; d != 0 {
		t.Fatalf("probed run must not dispatch blocks: %d", d)
	}
	if p.n != 2 {
		t.Fatalf("probe saw %d instructions, want 2", p.n)
	}
	c.RemoveProbe(p)
	resetRaw(t, c)
	mustReturn(t, c, 100)
	if d := c.BlockStats().Dispatches; d == 0 {
		t.Fatal("unprobed run must dispatch blocks again")
	}
}

// asmProg is a small assembler for generated programs: instructions plus
// labels that rel32 branches target, resolved once every length is known.
type asmProg struct {
	ins    []isa.Instr
	refs   map[int]int // instruction index -> label its branch targets
	labels []int       // label -> index of the instruction it precedes
}

func (a *asmProg) emit(ins ...isa.Instr) { a.ins = append(a.ins, ins...) }

func (a *asmProg) label() int {
	a.labels = append(a.labels, -1)
	return len(a.labels) - 1
}

func (a *asmProg) bind(l int) { a.labels[l] = len(a.ins) }

func (a *asmProg) branch(in isa.Instr, l int) {
	if a.refs == nil {
		a.refs = map[int]int{}
	}
	a.refs[len(a.ins)] = l
	a.emit(in)
}

// offsets returns each instruction's code offset, plus the end offset.
// Branch displacements do not change an encoding's length, so they hold
// before and after encode patches them.
func (a *asmProg) offsets() []int64 {
	offs := make([]int64, len(a.ins)+1)
	for i, in := range a.ins {
		b, err := in.Encode(nil)
		if err != nil {
			panic(err)
		}
		offs[i+1] = offs[i] + int64(len(b))
	}
	return offs
}

// labelOff returns the code offset label l is bound to.
func (a *asmProg) labelOff(l int) uint64 { return uint64(a.offsets()[a.labels[l]]) }

// encode lays the program out from offset 0 and returns its bytes.
func (a *asmProg) encode() []byte {
	offs := a.offsets()
	var out []byte
	for i, in := range a.ins {
		if l, ok := a.refs[i]; ok {
			in.Imm = offs[a.labels[l]] - offs[i+1]
		}
		var err error
		if out, err = in.Encode(out); err != nil {
			panic(err)
		}
	}
	return out
}

// genBlockProgram builds a structured random program out of the shapes
// superblock formation treats specially: forward jcc skips (side exits,
// half of them fused with a compare right before), backward jcc loops,
// IR-shaped loops (head: cmp; jae exit / body; jmp head) whose block is its
// own successor, jmp chains that go forward and then back, a self-loop
// whose last entry is a store through a pointer that walks memory and may
// land on its own page, and a store-free self-loop whose load pointer walks
// by a stride and may leave its page mid-loop (a lean block that faults).
// Loop counters live in registers the random operations never write, so
// most loops end; the Run limit bounds the rest. The program ends with a
// memory-source loop of load groups (genLoadLoop) and a counted register
// loop (genLoopSpec), each drawn from a stream of its own so that
// everything before them is what earlier versions of this generator built
// from the same input.
func genBlockProgram(rng *rand.Rand) []byte {
	work := []isa.Reg{isa.RAX, isa.RBX, isa.RDX, isa.RDI, isa.R8, isa.R9}
	wr := func() isa.Reg { return work[rng.Intn(len(work))] }
	imm := func() int32 { return int32(rng.Intn(48)) - 16 } // small: compares go both ways
	cond := func() isa.Cond { return isa.Cond(rng.Intn(isa.NumCond)) }
	a := &asmProg{}
	ops := func(n int) {
		for ; n > 0; n-- {
			switch rng.Intn(10) {
			case 0:
				a.emit(isa.AddRI(wr(), imm()))
			case 1:
				a.emit(isa.SubRR(wr(), wr()))
			case 2:
				a.emit(isa.XorRR(wr(), wr()))
			case 3:
				a.emit(isa.CmpRI(wr(), imm()))
			case 4:
				a.emit(isa.Inc(wr()))
			case 5:
				a.emit(isa.ShlRI(wr(), uint8(rng.Intn(8))))
			case 6:
				a.emit(isa.Load(wr(), isa.Mem(isa.RSI, int32(rng.Intn(64)))))
			case 7:
				a.emit(isa.StoreSz(isa.Mem(isa.RSI, int32(rng.Intn(64))), wr(), uint8(1)<<rng.Intn(4)))
			case 8:
				a.emit(isa.Pushfq(), isa.Pop(wr()))
			default:
				a.emit(isa.MovRI(wr(), int64(imm())))
			}
		}
	}
	// The memory pointer: usually data, sometimes the unused back half of
	// the code page or the program itself (its stores then rewrite code).
	switch ptr := rng.Intn(10); {
	case ptr < 6:
		a.emit(isa.MovRI(isa.RSI, int64(dcDataVA+rng.Intn(mem.PageSize-128))))
	case ptr < 8:
		a.emit(isa.MovRI(isa.RSI, int64(dcCodeVA+mem.PageSize/2+rng.Intn(mem.PageSize/2-128))))
	default:
		a.emit(isa.MovRI(isa.RSI, int64(dcCodeVA+rng.Intn(256))))
	}
	for n := 1 + rng.Intn(5); n > 0; n-- {
		switch rng.Intn(7) {
		case 0:
			ops(1 + rng.Intn(6))
		case 1: // forward skip: a side exit once formation continues past it
			skip := a.label()
			if rng.Intn(2) == 0 {
				a.emit(isa.CmpRI(wr(), imm()))
			}
			a.branch(isa.Instr{Op: isa.JCC, CC: cond()}, skip)
			ops(1 + rng.Intn(3))
			a.bind(skip)
		case 2: // do-while: a backward jcc
			top := a.label()
			a.emit(isa.MovRI(isa.R12, int64(1+rng.Intn(12))))
			a.bind(top)
			ops(rng.Intn(5))
			a.emit(isa.SubRI(isa.R12, 1))
			a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondNE}, top)
		case 3: // IR loop, optionally with a range-check side exit in the body
			head, exit := a.label(), a.label()
			a.emit(isa.MovRI(isa.R13, 0))
			a.bind(head)
			a.emit(isa.CmpRI(isa.R13, int32(1+rng.Intn(20))))
			a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondAE}, exit)
			ops(rng.Intn(6))
			if rng.Intn(2) == 0 {
				a.emit(isa.CmpRI(wr(), imm()))
				a.branch(isa.Instr{Op: isa.JCC, CC: cond()}, exit)
			}
			a.emit(isa.AddRI(isa.R13, 1))
			a.branch(isa.Instr{Op: isa.JMP}, head)
			a.bind(exit)
		case 4: // self-loop whose last entry stores through a walking pointer
			y, x, out := a.label(), a.label(), a.label()
			strides := []int64{1, 8, 64, -8, mem.PageSize, -mem.PageSize}
			a.emit(isa.MovRI(isa.R14, int64(1+rng.Intn(10))),
				isa.MovRI(isa.RCX, strides[rng.Intn(len(strides))]))
			a.branch(isa.Instr{Op: isa.JMP}, x)
			a.bind(y)
			a.emit(isa.StoreSz(isa.Mem(isa.RSI, 0), wr(), 1))
			a.bind(x)
			a.emit(isa.SubRI(isa.R14, 1))
			a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondLE}, out)
			a.emit(isa.AddRR(isa.RSI, isa.RCX))
			ops(rng.Intn(3))
			a.branch(isa.Instr{Op: isa.JMP}, y)
			a.bind(out)
		case 5: // jmp forward over a chunk, back into it, then on past it
			over, back, on := a.label(), a.label(), a.label()
			a.branch(isa.Instr{Op: isa.JMP}, over)
			a.bind(back)
			ops(1 + rng.Intn(3))
			a.branch(isa.Instr{Op: isa.JMP}, on)
			a.bind(over)
			ops(rng.Intn(3))
			a.branch(isa.Instr{Op: isa.JMP}, back)
			a.bind(on)
		case 6: // store-free self-loop whose load pointer walks by a stride
			head, exit := a.label(), a.label()
			strides := []int64{8, 64, 512, -512, mem.PageSize}
			a.emit(isa.MovRI(isa.R13, 0), isa.MovRI(isa.R15, strides[rng.Intn(len(strides))]))
			a.bind(head)
			a.emit(isa.CmpRI(isa.R13, int32(1+rng.Intn(20))))
			a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondAE}, exit)
			a.emit(isa.Load(wr(), isa.Mem(isa.RSI, int32(rng.Intn(8)))))
			for k := rng.Intn(3); k > 0; k-- {
				switch rng.Intn(3) {
				case 0:
					a.emit(isa.AddRR(wr(), wr()))
				case 1:
					a.emit(isa.ShrRI(wr(), uint8(rng.Intn(8))))
				default:
					a.emit(isa.OrRI(wr(), imm()))
				}
			}
			a.emit(isa.AddRR(isa.RSI, isa.R15), isa.Inc(isa.R13))
			a.branch(isa.Instr{Op: isa.JMP}, head)
			a.bind(exit)
		}
	}
	loop := genLoopSpec(rand.New(rand.NewSource(rng.Int63())))
	genLoadLoop(rand.New(rand.NewSource(rng.Int63())), a)
	loop.emit(a)
	a.emit(isa.Ret())
	return a.encode()
}

// genLoadLoop emits genBlockProgram's memory-source loop, drawn from a
// stream of its own: a counted loop whose body is mostly memory-source
// entries — mov, add, sub, xor, cmp and cmp-immediate loads of 1, 2, 4 and
// 8 bytes — and summing runs of 8-byte adds into one register (csum_partial's
// shape, which form load groups), through a base register that walks by a
// stride. A summing run mostly steps by 8 and now and then jumps
// to another displacement, sometimes one too far for its span to fit in a
// page. A register op, a store, a push/pop or call/pop pair, any other
// memory-source entry or an add that writes the base splits a run, and
// the body ends with a flag reader (a side exit or pushfq) or without one,
// so a group's last flags are live or dead. The base starts on the
// data page, a little before the end of the first code page (spans that
// straddle two mapped pages), or near the end of the data page (spans that
// run into the unmapped page after it mid-group).
func genLoadLoop(rng *rand.Rand, a *asmProg) {
	work := []isa.Reg{isa.RAX, isa.RBX, isa.RDX, isa.RDI, isa.R8, isa.R9}
	wr := func() isa.Reg { return work[rng.Intn(len(work))] }
	size := func() uint8 { return uint8(1) << rng.Intn(4) }
	disp := func() int32 {
		if rng.Intn(16) == 0 {
			return int32(rng.Intn(2*mem.PageSize)) - mem.PageSize // a span too wide for one page
		}
		return int32(rng.Intn(72)) - 8
	}
	base := isa.RBP
	var start int
	switch k := rng.Intn(8); {
	case k < 5:
		start = dcDataVA + 8 + rng.Intn(mem.PageSize-256)
	case k < 7:
		start = dcCodeVA + mem.PageSize - rng.Intn(64)
	default:
		start = dcDataVA + mem.PageSize - rng.Intn(160)
	}
	strides := []int64{0, 8, 64, -64, 512}
	head, exit := a.label(), a.label()
	a.emit(isa.MovRI(base, int64(start)), isa.MovRI(isa.R12, int64(1+rng.Intn(8))))
	a.bind(head)
	for n := 2 + rng.Intn(10); n > 0; n-- {
		m := isa.Mem(base, disp())
		switch k := rng.Intn(24); {
		case k == 0:
			a.emit(isa.AddRR(wr(), wr()))
		case k == 1:
			a.emit(isa.StoreSz(m, wr(), size()))
		case k == 2:
			a.emit(isa.Instr{Op: isa.ADDrm, Dst: base, M: m, Size: 8})
		case k == 3:
			a.emit(isa.Push(wr()), isa.Pop(wr()))
		case k == 4:
			a.emit(isa.Instr{Op: isa.CALL}, isa.Pop(wr())) // pushes, and pops, its own return address
		case k < 8:
			a.emit(isa.Instr{Op: isa.MOVrm, Dst: wr(), M: m, Size: size()})
		case k < 11:
			a.emit(isa.Instr{Op: isa.ADDrm, Dst: wr(), M: m, Size: size()})
		case k < 14: // a summing run
			r, d := wr(), m.Disp
			for q := 1 + rng.Intn(8); q > 0; q-- {
				a.emit(isa.Instr{Op: isa.ADDrm, Dst: r, M: isa.Mem(base, d), Size: 8})
				d += 8
				if rng.Intn(8) == 0 {
					d = disp()
				}
			}
		case k < 16:
			a.emit(isa.Instr{Op: isa.SUBrm, Dst: wr(), M: m, Size: size()})
		case k < 18:
			a.emit(isa.Instr{Op: isa.XORrm, Dst: wr(), M: m, Size: size()})
		case k < 21:
			a.emit(isa.Instr{Op: isa.CMPrm, Dst: wr(), M: m, Size: size()})
		default:
			a.emit(isa.Instr{Op: isa.CMPmi, M: m, Imm: int64(rng.Intn(256)), Size: size()})
		}
	}
	switch rng.Intn(3) {
	case 0:
		a.branch(isa.Instr{Op: isa.JCC, CC: isa.Cond(rng.Intn(isa.NumCond))}, exit)
	case 1:
		a.emit(isa.Pushfq(), isa.Pop(wr()))
	}
	a.emit(isa.AddRI(base, int32(strides[rng.Intn(len(strides))])), isa.SubRI(isa.R12, 1))
	a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondNE}, head)
	a.bind(exit)
}

// genLoopSpec draws a counted register loop for genBlockProgram, mostly
// fixpoint-eligible (fixpoint.go) and sometimes a near miss: a random bound
// near zero, -1 or either end of the signed range, held in an invariant
// register or an immediate, a start near it or far from it (the Run limit
// then caps the loop, like the kernel's watchdog), a ±1 step (sometimes 2),
// any condition (six of the sixteen are not eligible), any of the three
// shapes, with or without a first visit that rotates later formations, and
// a body of register ops that settle at once, settle after a while (shifts
// draining a register), never settle, step a second induction register, or
// read the counter.
func genLoopSpec(rng *rand.Rand) loopSpec {
	work := []isa.Reg{isa.RAX, isa.RBX, isa.RDX, isa.RDI, isa.R8, isa.R9}
	wr := func() isa.Reg { return work[rng.Intn(len(work))] }
	l := loopSpec{shape: rng.Intn(3), ctr: isa.R11, bnd: isa.R10, exit: isa.Cond(rng.Intn(isa.NumCond)),
		twice: rng.Intn(2) == 0, swap: rng.Intn(2) == 0}
	bounds := []int64{int64(rng.Intn(300)) - 20, -1 - int64(rng.Intn(50)),
		math.MaxInt64 - int64(rng.Intn(300)), math.MinInt64 + int64(rng.Intn(300))}
	l.bound = bounds[rng.Intn(len(bounds))]
	l.imm = l.bound == int64(int32(l.bound)) && rng.Intn(2) == 0
	near := func() int64 { return l.bound + int64(rng.Intn(600)) - 300 }
	l.init, l.pre = near(), near()
	if rng.Intn(6) == 0 {
		l.init = int64(rng.Uint64())
	}
	steps := []isa.Instr{isa.Inc(l.ctr), isa.Dec(l.ctr), isa.AddRI(l.ctr, 1), isa.AddRI(l.ctr, -1),
		isa.SubRI(l.ctr, 1), isa.SubRI(l.ctr, -1), isa.AddRI(l.ctr, 2)}
	l.step = steps[rng.Intn(len(steps))]
	for n := rng.Intn(5); n > 0; n-- {
		r := wr()
		switch rng.Intn(10) {
		case 0:
			l.body = append(l.body, isa.MovRI(r, int64(rng.Intn(16))))
		case 1:
			l.body = append(l.body, isa.MovRR(r, wr()))
		case 2:
			l.body = append(l.body, isa.AndRI(r, int32(rng.Intn(16))))
		case 3:
			l.body = append(l.body, isa.OrRI(r, int32(rng.Intn(16))))
		case 4:
			l.body = append(l.body, isa.ShrRI(r, uint8(1+rng.Intn(63))))
		case 5:
			l.body = append(l.body, isa.XorRR(r, r))
		case 6:
			l.body = append(l.body, isa.AddRR(r, wr()))
		case 7:
			l.body = append(l.body, isa.Dec(isa.R12))
		case 8:
			l.body = append(l.body, isa.MovRR(r, l.ctr))
		default:
			l.body = append(l.body, isa.NotR(r))
		}
	}
	return l
}

// TestForkAdoptsSiblingBlocks: a fork of a frozen machine with a
// SharedBlocks table runs on the blocks a sibling fork published, with no
// hotness gate and no formation of its own, and matches an uncached fork;
// toggling the engine and the cache keeps the table. A golden's only fork
// publishes nothing, and a machine without a table forms its own blocks as
// before.
func TestForkAdoptsSiblingBlocks(t *testing.T) {
	p := row(t, "fuzz/select(40)")
	lone := newGolden(t, p, false)
	for i := range 2 {
		c := forkOf(t, lone)
		c.Run(4096)
		if s := c.BlockStats(); s.Adopted != 0 || s.Formed == 0 {
			t.Errorf("fork %d: a golden's first fork must publish nothing, so neither fork adopts: %+v", i, s)
		}
	}

	sweep(t, p, func(pt point, _ *outcome, c *CPU) {
		s := c.BlockStats()
		if pt.fork && (s.Adopted == 0 || s.Formed != 0 || s.Cold != 0) {
			t.Errorf("fork must adopt every block it runs, gate and form none: %+v", s)
		}
		if !pt.fork && (s.Adopted != 0 || s.Formed == 0) {
			t.Errorf("a machine without a table must form its own blocks: %+v", s)
		}
	}, points(space{engines: []int{gated}, fork: both, limits: []uint64{4096}}))

	off := forkOf(t, newGolden(t, p, true))
	off.SetBlockEngine(false)
	off.SetBlockEngine(true)
	off.SetDecodeCache(false)
	off.SetDecodeCache(true)
	off.Run(4096)
	if s := off.BlockStats(); s.Adopted == 0 {
		t.Errorf("toggling the engine and the cache must keep the table: %+v", s)
	}
}
