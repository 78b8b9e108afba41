package cpu

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// TestBlockSelfModAbort is the mid-block self-modification gate: a store
// inside a block overwrites a LATER instruction of the SAME block. The
// engine must abort at the store (frame generation moved), resync through
// the dispatch loop, and execute the overwritten instruction from its new
// bytes — exactly what per-instruction dispatch does.
func TestBlockSelfModAbort(t *testing.T) {
	// MOVri encodes [op][reg][imm64]: the victim's immediate low byte is at
	// victim+2. Program (one straight-line block until RET):
	//   mov rbx, 9
	//   mov rcx, <victim imm addr>
	//   store [rcx], bl          ; rewrites "mov rax, 1" into "mov rax, 9"
	//   mov rax, 1               ; victim
	//   ret
	prog := []isa.Instr{
		isa.MovRI(isa.RBX, 9),
		isa.MovRI(isa.RCX, 0), // patched below once offsets are known
		isa.StoreSz(isa.Mem(isa.RCX, 0), isa.RBX, 1),
		isa.MovRI(isa.RAX, 1),
		isa.Ret(),
	}
	// Compute the victim's immediate address from the encoded lengths.
	off := uint64(0)
	for _, in := range prog[:3] {
		b, err := in.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		off += uint64(len(b))
	}
	prog[1] = isa.MovRI(isa.RCX, int64(dcCodeVA+off+2))

	run := func(blocksOn bool) (uint64, BlockStats, *RunResult) {
		c := rawCPU(t, mem.PermRWX, prog...)
		c.SetBlockEngine(blocksOn)
		c.SetBlockHotThreshold(1) // form on first dispatch: the abort is the point
		res := mustReturn(t, c, 100)
		return c.Reg(isa.RAX), c.BlockStats(), res
	}

	raxOn, bsOn, resOn := run(true)
	raxOff, _, resOff := run(false)
	if raxOff != 9 {
		t.Fatalf("single-step reference: rax = %d, want 9", raxOff)
	}
	if raxOn != raxOff {
		t.Fatalf("block engine executed stale code: rax = %d, want %d", raxOn, raxOff)
	}
	if bsOn.Aborts == 0 {
		t.Errorf("self-modifying block must abort: %+v", bsOn)
	}
	if resOn.Instrs != resOff.Instrs || resOn.Cycles != resOff.Cycles {
		t.Errorf("counters diverge: %+v vs %+v", resOn, resOff)
	}
}

// TestBlockLimitExact: the fast path must not overrun a Run limit smaller
// than the pending block — the dispatcher falls back to single-step and
// stops after exactly `limit` instructions.
func TestBlockLimitExact(t *testing.T) {
	c := rawCPU(t, mem.PermX,
		isa.MovRI(isa.RAX, 1),
		isa.MovRI(isa.RBX, 2),
		isa.MovRI(isa.RCX, 3),
		isa.MovRI(isa.RDX, 4),
		isa.Ret(),
	)
	res := c.Run(2)
	if res.Reason != StopLimit || res.Instrs != 2 {
		t.Fatalf("limit run: %+v", res)
	}
	if c.Reg(isa.RBX) != 2 || c.Reg(isa.RCX) == 3 {
		t.Fatalf("limit stopped at the wrong instruction: rbx=%d rcx=%d", c.Reg(isa.RBX), c.Reg(isa.RCX))
	}
	// Resuming finishes the program with the same totals a single run has.
	res2 := c.Run(100)
	if res2.Reason != StopReturn || res.Instrs+res2.Instrs != 5 {
		t.Fatalf("resume: %+v after %+v", res2, res)
	}
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
	if c.BlockHotThreshold() != DefaultBlockHotThreshold {
		t.Fatalf("hot threshold must default to %d, got %d",
			DefaultBlockHotThreshold, c.BlockHotThreshold())
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

// blkOutcome is everything architecturally visible after one
// FuzzBlockEquivalence run.
type blkOutcome struct {
	res       RunResult
	trap      Trap
	faultKind mem.FaultKind
	faultAddr uint64
	regs      [isa.NumGPR]uint64
	rip       uint64
	flags     uint64
	instrs    uint64
	cycles    uint64
	memory    []byte
	cover     []uint64
	ticks     []string
}

// diff describes how o differs from ref, or returns "" when they agree.
func (o *blkOutcome) diff(ref *blkOutcome) string {
	switch {
	case o.res != ref.res || o.trap != ref.trap || o.faultKind != ref.faultKind || o.faultAddr != ref.faultAddr ||
		o.regs != ref.regs || o.rip != ref.rip || o.flags != ref.flags || o.instrs != ref.instrs || o.cycles != ref.cycles:
		return fmt.Sprintf("state:\n got: %+v trap=%+v rip=%#x flags=%#x regs=%x\nwant: %+v trap=%+v rip=%#x flags=%#x regs=%x",
			o.res, o.trap, o.rip, o.flags, o.regs, ref.res, ref.trap, ref.rip, ref.flags, ref.regs)
	case !bytes.Equal(o.memory, ref.memory):
		return "final memory"
	case !slices.Equal(o.cover, ref.cover):
		return fmt.Sprintf("coverage:\n got: %#x\nwant: %#x", o.cover, ref.cover)
	case !slices.Equal(o.ticks, ref.ticks):
		return fmt.Sprintf("tick/trap stream:\n got: %q\nwant: %q", o.ticks, ref.ticks)
	}
	return ""
}

// runBlockCase runs code on writable+executable pages (so programs do
// overwrite themselves, mid-block) under mode m, with registers seeded from
// seed, for at most limit instructions, with a coverage sink whose bitmap
// leaves part of the code outside it. A nonzero stride arms a tickLog at
// that stride (act: with injector-style perturbations); a probe, if given,
// records every executed RIP.
func runBlockCase(t *testing.T, code []byte, seed uint64, m engineMode, limit, stride uint64, act bool, probe *ripProbe) blkOutcome {
	t.Helper()
	c, cv := newBlockCaseCPU(t, code, seed, m)
	as := c.AS
	if probe != nil {
		c.AddProbe(probe)
	}
	var tl *tickLog
	if stride > 0 {
		tl = &tickLog{c: c, stride: stride, act: act}
		c.SetTick(tl, stride)
		c.AddTrapProbe(tl)
	}
	res := c.Run(limit)
	o := blkOutcome{
		res: *res, regs: c.Regs, rip: c.RIP, flags: c.RFlags,
		instrs: c.Instrs, cycles: c.Cycles, cover: sortedRIPs(cv),
	}
	if tl != nil {
		o.ticks = tl.log
	}
	if res.Trap != nil {
		o.trap = *res.Trap
		o.trap.Fault = nil // pointer field: compared via the two fields below
		o.res.Trap = nil
		if f := res.Trap.Fault; f != nil {
			o.faultKind, o.faultAddr = f.Kind, f.Addr
		}
	}
	for _, r := range []struct {
		va uint64
		n  int
	}{{dcCodeVA, 2 * mem.PageSize}, {dcDataVA, mem.PageSize}, {dcStackVA, mem.PageSize}} {
		b, err := as.Peek(r.va, r.n)
		if err != nil {
			t.Fatal(err)
		}
		o.memory = append(o.memory, b...)
	}
	return o
}

// newBlockCaseCPU builds runBlockCase's machine: code on writable+
// executable pages, a data page and a stack page, engine mode m, registers
// seeded from seed, and a coverage sink whose bitmap leaves part of the code
// outside it.
func newBlockCaseCPU(t *testing.T, code []byte, seed uint64, m engineMode) (*CPU, *Coverage) {
	t.Helper()
	as := mem.NewAddressSpace()
	for _, r := range []struct {
		va   uint64
		n    int
		perm mem.Perm
	}{
		{dcCodeVA, 2, mem.PermRWX}, // writable code: self-modification in play
		{dcDataVA, 1, mem.PermRW},
		{dcStackVA, 1, mem.PermRW},
	} {
		if _, err := as.Map(r.va, r.n, r.perm); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.Poke(dcCodeVA, code); err != nil {
		t.Fatal(err)
	}
	c := New(as)
	c.SetDecodeCache(m.cache)
	c.SetBlockEngine(m.blocks)
	c.SetBlockHotThreshold(m.hot)
	cv := NewCoverage(dcCodeVA+5, mem.PageSize)
	c.SetCoverage(cv)
	c.Mode = Kernel
	c.RIP = dcCodeVA
	rng := rand.New(rand.NewSource(int64(seed)))
	bases := []uint64{dcCodeVA, dcDataVA, dcStackVA}
	for i := range c.Regs {
		c.Regs[i] = bases[rng.Intn(len(bases))] + uint64(rng.Intn(mem.PageSize))
	}
	c.Regs[isa.RSP] = dcStackVA + mem.PageSize - 64
	if f := as.Write(c.Regs[isa.RSP], StopMagic, 8); f != nil {
		t.Fatal(f)
	}
	return c, cv
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
// most loops end; the Run limit bounds the rest.
func genBlockProgram(rng *rand.Rand) []byte {
	work := []isa.Reg{isa.RAX, isa.RBX, isa.RDX, isa.RDI, isa.R8, isa.R9}
	wr := func() isa.Reg { return work[rng.Intn(len(work))] }
	imm := func() int32 { return int32(rng.Intn(48)) - 16 } // small: compares go both ways
	cond := func() isa.Cond { return isa.Cond(rng.Intn(isa.NumCond)) }
	a := &asmProg{refs: map[int]int{}}
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
	a.emit(isa.Ret())
	return a.encode()
}

// FuzzBlockEquivalence is the block-engine bit-identity oracle, the probe-
// free sibling of FuzzDecodeCacheEquivalence (probes would disarm the fast
// path). Every architecturally visible outcome must match between each
// engine mode and the uncached stepper, and so must the RIP set of a
// coverage sink, which must equal the set an exec probe records on the
// uncached reference. Each input is checked twice:
//
//   - as raw bytes executed as code, which do overwrite themselves;
//   - as a structured program genBlockProgram derives from the input, full
//     of side exits, self-loops and followed jumps, run with the Run limit
//     at every position and then with a ticker deadline at every position,
//     so a limit or a tick can cut a multi-pass dispatch anywhere.
func FuzzBlockEquivalence(f *testing.F) {
	f.Add([]byte{byte(isa.NOP), byte(isa.RET)}, uint64(1))
	f.Add(encodeProgF(isa.MovRI(isa.RAX, 5), isa.AddRI(isa.RAX, 7), isa.Ret()), uint64(2))
	// Self-modifying seed: store a RET over our own first instruction.
	f.Add(encodeProgF(
		isa.MovRI(isa.RBX, int64(isa.RET)),
		isa.MovRI(isa.RCX, dcCodeVA),
		isa.StoreSz(isa.Mem(isa.RCX, 0), isa.RBX, 1),
		isa.Nop(),
	), uint64(3))
	// Same-block self-modification: the store rewrites the instruction
	// right after it (the TestBlockSelfModAbort shape).
	f.Add(encodeProgF(
		isa.MovRI(isa.RBX, 9),
		isa.MovRI(isa.RCX, dcCodeVA+32),
		isa.StoreSz(isa.Mem(isa.RCX, 0), isa.RBX, 1),
		isa.MovRI(isa.RAX, 1),
		isa.Ret(),
	), uint64(4))
	// A self-loop whose last entry stores into its own page: jmp X; Y:
	// store [rcx],bl; X: sub rdx,1; jle out; add rcx,-0x100; jmp Y; out:
	// ret. rcx walks down the second code page while the block compiles
	// and loops, then onto the loop's own page.
	f.Add(encodeProgF(
		isa.MovRI(isa.RDX, 20),
		isa.MovRI(isa.RCX, dcCodeVA+0x1f00),
		isa.Instr{Op: isa.JMP, Imm: 10},
		isa.StoreSz(isa.Mem(isa.RCX, 0), isa.RBX, 1),
		isa.SubRI(isa.RDX, 1),
		isa.Instr{Op: isa.JCC, CC: isa.CondLE, Imm: 11},
		isa.AddRI(isa.RCX, -0x100),
		isa.Instr{Op: isa.JMP, Imm: -33},
		isa.Ret(),
	), uint64(5))
	f.Add([]byte("structured"), uint64(6))
	// sys_select's pure register loop: a lean self-loop whose body after
	// the fused cmp+jae runs as one merged call.
	code, _ := selectLoopProg(40)
	f.Add(code, uint64(7))
	// A lean self-loop whose load walks off the data page on pass 4.
	code, _ = walkingLoadProg(dcDataVA+mem.PageSize-3*64, 64, 20)
	f.Add(code, uint64(8))

	f.Fuzz(func(t *testing.T, code []byte, seed uint64) {
		if len(code) > 2*mem.PageSize {
			code = code[:2*mem.PageSize]
		}
		// The reference is the fully uncached interpreter; against it run
		// cached single-step and compiled blocks, eager and behind the
		// default hotness gate (which mixes single-step and block dispatch
		// of the same code).
		ref := &ripProbe{rips: map[uint64]struct{}{}}
		uncached := covModes[0]
		off := runBlockCase(t, code, seed, uncached, 512, 0, false, ref)
		if want := ref.sorted(); !slices.Equal(off.cover, want) {
			t.Fatalf("uncached coverage %#x, probe saw %#x", off.cover, want)
		}
		for _, m := range covModes[1:4] {
			on := runBlockCase(t, code, seed, m, 512, 0, false, nil)
			if d := on.diff(&off); d != "" {
				t.Fatalf("raw code: %s vs uncached diverge in %s", m.name, d)
			}
		}

		h := fnv.New64a()
		h.Write(code)
		prog := genBlockProgram(rand.New(rand.NewSource(int64(h.Sum64() ^ seed))))
		const progLimit = 256
		full := runBlockCase(t, prog, seed, uncached, progLimit, 0, false, nil)
		for pos := uint64(1); pos <= full.instrs+1 && pos <= progLimit; pos++ {
			want := runBlockCase(t, prog, seed, uncached, pos, 0, false, nil)
			tickWant := runBlockCase(t, prog, seed, uncached, progLimit, pos, pos%2 == 0, nil)
			for _, m := range covModes[2:4] {
				got := runBlockCase(t, prog, seed, m, pos, 0, false, nil)
				if d := got.diff(&want); d != "" {
					t.Fatalf("structured program, limit %d: %s vs uncached diverge in %s", pos, m.name, d)
				}
				got = runBlockCase(t, prog, seed, m, progLimit, pos, pos%2 == 0, nil)
				if d := got.diff(&tickWant); d != "" {
					t.Fatalf("structured program, tick stride %d: %s vs uncached diverge in %s", pos, m.name, d)
				}
			}
		}
	})
}
