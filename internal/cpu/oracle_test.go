package cpu

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/mem"
)

// The instruction-level oracle. The decode cache, compiled superblocks
// behind their hotness gate, flag fusion, merged runs, lean and fixpoint-
// skipped self-loops, summing load groups, chains and translations adopted
// from a SharedBlocks table are host-side fast paths: none may change what
// the uncached stepper retires. This file states that once: one machine
// builder (newMachine), one program table (programs), one axis table
// (point, over engines and regions), one outcome with one diff, and one
// sweep that runs a program at a set of points, each against its
// reference, the same point on the uncached stepper. Each equivalence test
// of the package is a sweep over its program rows plus the counter
// assertions showing that the fast path it is about was taken;
// FuzzBlockEquivalence samples program × point.

// engines is the engine axis. Value 0, the uncached stepper, is every
// point's reference.
var engines = []struct {
	name          string
	cache, blocks bool
	hot           int
}{
	{"uncached", false, false, 1},
	{"cache-only", true, false, 1},
	{"compiled-hot1", true, true, 1},
	{"compiled", true, true, DefaultBlockHotThreshold},
}

// Engine axis values.
const (
	uncached = iota
	cacheOnly
	hot1
	gated
)

var (
	allEngines   = []int{cacheOnly, hot1, gated}
	blockEngines = []int{hot1, gated}
	both         = []bool{false, true}
)

// regions is the coverage-region axis: a bitmap with an unaligned base that
// leaves most of the second code page outside it, one holding all code,
// and a 50-byte window with RIPs on both sides of it.
var regions = []struct {
	name       string
	base, span uint64
}{
	{"offset", dcCodeVA + 5, mem.PageSize},
	{"whole", dcCodeVA, 2 * mem.PageSize},
	{"window", dcCodeVA + 5, 50},
}

// Region axis values.
const (
	offset = iota
	whole
	window
)

// point is one value of every axis.
type point struct {
	engine int    // index into engines
	fork   bool   // run on a fork of a frozen golden whose SharedBlocks table a sibling fork filled
	probe  bool   // an exec probe armed: its stream is compared, and compiled engines single-step
	region int    // index into regions
	passes int    // passes on one machine, each from the program's entry (zero: one)
	limit  uint64 // each pass's Run limit (zero: none)
	stride uint64 // tick stride (zero: no ticker)
	act    bool   // the ticker perturbs the machine as the fault injector does
}

func (p point) String() string {
	return fmt.Sprintf("engine=%s fork=%v probe=%v region=%s passes=%d limit=%d stride=%d act=%v",
		engines[p.engine].name, p.fork, p.probe, regions[p.region].name, max(p.passes, 1), p.limit, p.stride, p.act)
}

// space is a set of points: every combination of the values listed for
// each axis. An axis with no values keeps its zero value.
type space struct {
	engines          []int
	fork, probe, act []bool
	regions, passes  []int
	limits, strides  []uint64
}

// points returns the points of every space, in order.
func points(spaces ...space) []point {
	var out []point
	for _, s := range spaces {
		pts := []point{{}}
		axis := func(n int, set func(*point, int)) {
			if n == 0 {
				return
			}
			var next []point
			for _, p := range pts {
				for i := range n {
					set(&p, i)
					next = append(next, p)
				}
			}
			pts = next
		}
		axis(len(s.engines), func(p *point, i int) { p.engine = s.engines[i] })
		axis(len(s.fork), func(p *point, i int) { p.fork = s.fork[i] })
		axis(len(s.probe), func(p *point, i int) { p.probe = s.probe[i] })
		axis(len(s.regions), func(p *point, i int) { p.region = s.regions[i] })
		axis(len(s.passes), func(p *point, i int) { p.passes = s.passes[i] })
		axis(len(s.limits), func(p *point, i int) { p.limit = s.limits[i] })
		axis(len(s.strides), func(p *point, i int) { p.stride = s.strides[i] })
		axis(len(s.act), func(p *point, i int) { p.act = s.act[i] })
		out = append(out, pts...)
	}
	return out
}

// ladder returns, in each engine, a point whose Run limit is at each
// position and one whose tick deadline is (under limit, perturbing on even
// strides), so a limit or a tick can cut a multi-pass dispatch anywhere.
func ladder(engs []int, fork bool, pos []uint64, limit uint64) []point {
	var pts []point
	for _, e := range engs {
		for _, n := range pos {
			pts = append(pts, point{engine: e, fork: fork, limit: n},
				point{engine: e, fork: fork, limit: limit, stride: n, act: n%2 == 0})
		}
	}
	return pts
}

// upTo returns 1, 2, ..., n.
func upTo(n uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i) + 1
	}
	return out
}

// program is one row of the program table.
type program struct {
	name   string
	code   []byte
	seed   uint64   // seeds the registers of each pass
	perm   mem.Perm // the code pages' permissions; zero: read, write and execute, so programs rewrite themselves
	pages  int      // read-write pages mapped right after the two code pages
	loop   uint64   // code offset of the loop block its white-box checks form
	limits []uint64 // Run limits its test sweeps (fixpoint rows)
	reach  string   // counters its test requires nonzero at the point that must take them (see must)
}

// newMachine maps p's code on two pages, p.pages read-write pages after
// them, a data page and a stack page, and returns a CPU under engine e.
func newMachine(t *testing.T, p *program, e int) *CPU {
	t.Helper()
	perm := p.perm
	if perm == 0 {
		perm = mem.PermRWX
	}
	as := mem.NewAddressSpace()
	for _, m := range []struct {
		va   uint64
		n    int
		perm mem.Perm
	}{
		{dcCodeVA, 2, perm},
		{dcCodeVA + 2*mem.PageSize, p.pages, mem.PermRW},
		{dcDataVA, 1, mem.PermRW},
		{dcStackVA, 1, mem.PermRW},
	} {
		if m.n == 0 {
			continue
		}
		if _, err := as.Map(m.va, m.n, m.perm); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.Poke(dcCodeVA, p.code); err != nil {
		t.Fatal(err)
	}
	c := New(as)
	setEngine(c, e)
	return c
}

func setEngine(c *CPU, e int) {
	c.SetDecodeCache(engines[e].cache)
	c.SetBlockEngine(engines[e].blocks)
	c.SetBlockHotThreshold(engines[e].hot)
}

// startPass rewinds c to the program entry in kernel mode, points every
// register into the machine's pages at offsets drawn from seed and pass,
// and puts the stop sentinel at the top of the stack.
func startPass(t *testing.T, c *CPU, seed uint64, pass int) {
	t.Helper()
	c.Mode, c.RIP = Kernel, dcCodeVA
	rng := rand.New(rand.NewSource(int64(seed + uint64(pass)*0x9e3779b97f4a7c15)))
	bases := []uint64{dcCodeVA, dcDataVA, dcStackVA}
	for i := range c.Regs {
		c.Regs[i] = bases[rng.Intn(len(bases))] + uint64(rng.Intn(mem.PageSize))
	}
	c.Regs[isa.RSP] = dcStackVA + mem.PageSize - 64
	if f := c.AS.Write(c.Regs[isa.RSP], StopMagic, 8); f != nil {
		t.Fatal(f)
	}
}

// newGolden freezes p's machine, at the default gate and ready for its
// first pass, under a fresh SharedBlocks table. With sibling set, its
// second fork (the first shares nothing) runs p from other registers with
// eager formation, so the table holds blocks shaped by another run's
// branch history for later forks to adopt.
func newGolden(t *testing.T, p *program, sibling bool) *CPU {
	t.Helper()
	g := newMachine(t, p, gated)
	startPass(t, g, p.seed, 0)
	if err := g.AS.Freeze(); err != nil {
		t.Fatal(err)
	}
	g.ShareBlocks(NewSharedBlocks(g.AS))
	if sibling {
		forkOf(t, g)
		s := forkOf(t, g)
		s.SetBlockHotThreshold(1)
		startPass(t, s, p.seed^0x5bd1e995, 0)
		s.Run(4096)
	}
	return g
}

// forkOf returns a copy-on-write fork of c.
func forkOf(t *testing.T, c *CPU) *CPU {
	t.Helper()
	as, err := c.AS.Fork()
	if err != nil {
		t.Fatal(err)
	}
	return c.Fork(as)
}

// state is the machine after one pass: Run's result and the architectural
// state. Trap and Pending are zero when there is none; their fault is
// compared through Fault.
type state struct {
	Stop                 StopReason
	Instrs, Cycles       uint64 // the pass's
	HaltRIP              uint64
	Trap, Pending        Trap
	Fault                mem.Fault
	Regs                 [isa.NumGPR]uint64
	RIP, RFlags          uint64
	Bnd                  [isa.NumBnd]Bound
	Mode                 Mode
	CPUInstrs, CPUCycles uint64
}

// outcome is everything observable from one point's run.
type outcome struct {
	passes []state
	cover  []uint64 // the coverage sink's RIPs, sorted
	exec   uint64   // digest of the exec-probe stream (probed points)
	ticks  []tickRec
	memory uint64 // digest of every mapped page
	dtlb   mem.DataTLBStats
}

// diff names the first field in which o differs from ref, or returns "".
func (o *outcome) diff(ref *outcome) string {
	for i := range ref.passes {
		if g, w := o.passes[i], ref.passes[i]; g != w {
			gv, wv := reflect.ValueOf(g), reflect.ValueOf(w)
			for f := range gv.NumField() {
				if gf, wf := gv.Field(f).Interface(), wv.Field(f).Interface(); gf != wf {
					return fmt.Sprintf("pass %d: %s:\n got: %+v\nwant: %+v", i, gv.Type().Field(f).Name, gf, wf)
				}
			}
		}
	}
	switch {
	case !slices.Equal(o.cover, ref.cover):
		return fmt.Sprintf("coverage:\n got: %#x\nwant: %#x", o.cover, ref.cover)
	case o.exec != ref.exec:
		return "exec-probe stream"
	case !slices.Equal(o.ticks, ref.ticks):
		i := 0
		for i < len(o.ticks) && i < len(ref.ticks) && o.ticks[i] == ref.ticks[i] {
			i++
		}
		return fmt.Sprintf("tick/trap stream from entry %d (of %d, want %d):\n got: %+v\nwant: %+v",
			i, len(o.ticks), len(ref.ticks), o.ticks[i:min(i+1, len(o.ticks))], ref.ticks[i:min(i+1, len(ref.ticks))])
	case o.memory != ref.memory:
		return "memory"
	case o.dtlb != ref.dtlb:
		return fmt.Sprintf("data TLB stats:\n got: %+v\nwant: %+v", o.dtlb, ref.dtlb)
	}
	return ""
}

// tickRec is one entry of the tick/trap stream.
type tickRec struct {
	trap           bool
	kind           TrapKind
	rip, addr      uint64
	instrs, cycles uint64
	regs           [isa.NumGPR]uint64
	flags          uint64
	bnd            [isa.NumBnd]Bound
}

// tickLog is a Ticker that records every deadline into a log it shares
// with a trap probe, so the log is the interleaved tick/trap stream. With
// act set it perturbs the machine the way the fault injector does — a data
// byte flip, a bound-register corruption, or a forced spurious trap — and
// re-protects the data page, read-only or back to read-write, as an
// mprotect between two instructions would.
type tickLog struct {
	c      *CPU
	stride uint64
	act    bool
	ticks  int
	log    []tickRec
}

func (l *tickLog) Tick(rip uint64) uint64 {
	c := l.c
	l.ticks++
	l.log = append(l.log, tickRec{rip: rip, instrs: c.Instrs, cycles: c.Cycles, regs: c.Regs, flags: c.RFlags, bnd: c.Bnd})
	if l.act {
		switch l.ticks % 5 {
		case 1:
			if err := c.AS.Poke(dcDataVA+uint64(l.ticks%64), []byte{byte(l.ticks)}); err != nil {
				panic(err)
			}
		case 2:
			c.Bnd[1] = Bound{LB: uint64(l.ticks), UB: rip}
		case 3:
			perm := mem.PermRW
			if l.ticks%10 == 3 {
				perm = mem.PermR
			}
			if err := c.AS.Protect(dcDataVA, 1, perm); err != nil {
				panic(err)
			}
		case 4:
			c.Pending = &Trap{Kind: TrapUndefined, Addr: rip, RIP: rip, Mode: c.Mode}
		}
	}
	return l.stride
}

func (l *tickLog) OnTrap(t *Trap, cycles uint64) {
	l.log = append(l.log, tickRec{trap: true, kind: t.Kind, rip: t.RIP, addr: t.Addr})
}

// execLog is an exec probe folding the stream — rip, opcode and cycles of
// every executed instruction, in order — into a digest, and recording the
// RIPs, the set a coverage sink must reproduce.
type execLog struct {
	h    uint64
	rips map[uint64]bool
}

func (x *execLog) OnExec(rip uint64, in *isa.Instr, cycles uint64) {
	x.h = (x.h ^ rip) * 0x100000001b3
	x.h = (x.h ^ cycles ^ uint64(in.Op)<<56) * 0x100000001b3
	x.rips[rip] = true
}

var memSeed = maphash.MakeSeed()

// pointDeadline bounds one runPoint call. The slowest point (an uncached
// select(1<<62) run to its 1M-instruction limit) takes about 1.5 s under
// -race on a 2-CPU Xeon; the deadline leaves 20 times that.
const pointDeadline = 30 * time.Second

// runPoint runs p at pt on a new machine, or on a new fork of golden(), and
// returns what it observed and the machine. A panic fails the test naming
// the program and the point. So does a point still running after
// pointDeadline (a fast path that never stops), by a panic that ends the
// test binary instead of leaving it hung until go test's timeout.
func runPoint(t *testing.T, p *program, pt point, golden func() *CPU) (*outcome, *CPU) {
	t.Helper()
	watchdog := time.AfterFunc(pointDeadline, func() {
		panic(fmt.Sprintf("%s [%v]: still running after %v", p.name, pt, pointDeadline))
	})
	defer watchdog.Stop()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s [%v]: panic: %v", p.name, pt, r)
		}
	}()
	var c *CPU
	if pt.fork {
		c = forkOf(t, golden())
		setEngine(c, pt.engine)
	} else {
		c = newMachine(t, p, pt.engine)
	}
	cv := NewCoverage(regions[pt.region].base, regions[pt.region].span)
	c.SetCoverage(cv)
	var x *execLog
	if pt.probe {
		x = &execLog{rips: map[uint64]bool{}}
		c.AddProbe(x)
	}
	var tl *tickLog
	if pt.stride > 0 {
		tl = &tickLog{c: c, stride: pt.stride, act: pt.act}
		c.SetTick(tl, pt.stride)
		c.AddTrapProbe(tl)
	}
	o := &outcome{}
	for i := range max(pt.passes, 1) {
		startPass(t, c, p.seed, i)
		res := c.Run(pt.limit)
		s := state{Stop: res.Reason, Instrs: res.Instrs, Cycles: res.Cycles, HaltRIP: res.HaltRIP,
			Regs: c.Regs, RIP: c.RIP, RFlags: c.RFlags, Bnd: c.Bnd, Mode: c.Mode, CPUInstrs: c.Instrs, CPUCycles: c.Cycles}
		if res.Trap != nil {
			s.Trap = *res.Trap
			s.Trap.Fault = nil
			if res.Trap.Fault != nil {
				s.Fault = *res.Trap.Fault
			}
		}
		if c.Pending != nil {
			s.Pending = *c.Pending
			s.Pending.Fault = nil
		}
		o.passes = append(o.passes, s)
	}
	o.cover = sortedRIPs(cv)
	if x != nil {
		o.exec = x.h
		var want []uint64
		for rip := range x.rips {
			want = append(want, rip)
		}
		if slices.Sort(want); !slices.Equal(o.cover, want) {
			t.Fatalf("%s [%v]: coverage %#x, the exec probe saw %#x", p.name, pt, o.cover, want)
		}
		if s := c.BlockStats(); s.Dispatches != 0 {
			t.Fatalf("%s [%v]: a probed run dispatched blocks: %+v", p.name, pt, s)
		}
	}
	if tl != nil {
		o.ticks = tl.log
	}
	var h maphash.Hash
	h.SetSeed(memSeed)
	for _, r := range []struct {
		va uint64
		n  int
	}{{dcCodeVA, 2 + p.pages}, {dcDataVA, 1}, {dcStackVA, 1}} {
		b, err := c.AS.Peek(r.va, r.n*mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	o.memory = h.Sum64()
	o.dtlb = c.AS.DataTLBStats()
	return o, c
}

// sweep runs p at every point of pts and compares each with its reference,
// the same point on the uncached stepper (for a fork, an uncached fork of
// the same golden), failing with the program, the point and the first
// field that differs. An exec probe only observes, so a probed point must
// also read, but for the probe's stream, as the reference without it.
// check, if not nil, sees every point's outcome and machine after its run.
func sweep(t *testing.T, p *program, check func(point, *outcome, *CPU), pts []point) {
	t.Helper()
	var g *CPU
	golden := func() *CPU {
		if g == nil {
			g = newGolden(t, p, true)
		}
		return g
	}
	refs := map[point]*outcome{}
	ref := func(r point) *outcome {
		r.engine = uncached
		if refs[r] == nil {
			refs[r], _ = runPoint(t, p, r, golden)
		}
		return refs[r]
	}
	for _, pt := range pts {
		got, c := runPoint(t, p, pt, golden)
		if d := got.diff(ref(pt)); d != "" {
			t.Fatalf("%s [%v]: %s", p.name, pt, d)
		}
		if pt.probe {
			unprobed, plain := *got, pt
			unprobed.exec, plain.probe = 0, false
			if d := unprobed.diff(ref(plain)); d != "" {
				t.Fatalf("%s [%v]: %s, against the reference without a probe", p.name, pt, d)
			}
		}
		if check != nil {
			check(pt, got, c)
		}
	}
}

// must fails unless each counter named in counters reads nonzero on c: a
// BlockStats field, or grouped, the entries of c's live blocks that
// lowerBlock folds into summing load groups.
func must(t *testing.T, where string, c *CPU, counters string) {
	t.Helper()
	s := c.BlockStats()
	for _, n := range strings.Fields(counters) {
		var v uint64
		if n == "grouped" {
			for _, pg := range c.dc.pages {
				for i := range pg.blocks {
					_, _, g := lowerBlock(pg.blocks[i].ents)
					v += g
				}
			}
		} else {
			v = reflect.ValueOf(s).FieldByName(n).Uint()
		}
		if v == 0 {
			t.Errorf("%s: %s reads 0, the fast path was never taken: %+v", where, n, s)
		}
	}
}

// programs is the program table: every program the equivalence tests and
// FuzzBlockEquivalence's seed corpus run. A name's prefix is its family,
// which the test of that family sweeps.
var programs = sync.OnceValue(func() []*program {
	var ps []*program
	add := func(p program) { ps = append(ps, &p) }

	// coverage/: each runs six passes on one machine. A kR^X-style range
	// check inside a counted loop: the ja is not taken while the loop forms
	// (the block continues past it) and taken on the eleventh iteration,
	// leaving through the side exit to a handler. The loop's jne back edge
	// makes the block its own successor.
	a := &asmProg{}
	body, handler := a.label(), a.label()
	a.emit(isa.MovRI(isa.RCX, 12), isa.MovRI(isa.RDX, 0))
	a.bind(body)
	a.emit(isa.AddRI(isa.RDX, 1), isa.CmpRI(isa.RDX, 10))
	a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondA}, handler)
	a.emit(isa.SubRI(isa.RCX, 1))
	a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondNE}, body)
	a.emit(isa.Ret())
	a.bind(handler)
	a.emit(isa.MovRI(isa.RAX, 7), isa.Ret())
	add(program{name: "coverage/side-exit", code: a.encode(), reach: "SideExits LoopIters Chained"})
	// The IR's loop shape: one block that runs many passes per dispatch.
	add(program{name: "coverage/self-loop", code: irLoop(40), reach: "LoopIters SideExits"})
	// A trap mid-block: the loop's load walks off the data page on the
	// ninth iteration, long after the block has formed.
	a = &asmProg{}
	body = a.label()
	a.emit(isa.MovRI(isa.RDX, dcDataVA), isa.MovRI(isa.RCX, 12))
	a.bind(body)
	a.emit(isa.MovRI(isa.RAX, 1), isa.Load(isa.RBX, isa.Mem(isa.RDX, 0)), isa.AddRI(isa.RDX, 0x200),
		isa.SubRI(isa.RCX, 1), isa.CmpRI(isa.RCX, 0))
	a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondNE}, body)
	a.emit(isa.Ret())
	add(program{name: "coverage/trap-mid-block", code: a.encode()})
	// A trap that always cuts the same block short: the entries after the
	// faulting load never execute, in any pass.
	add(program{name: "coverage/trap-tail-unreached", code: mustEncode(isa.MovRI(isa.RDX, dcDataVA+mem.PageSize),
		isa.MovRI(isa.RAX, 1), isa.Load(isa.RBX, isa.Mem(isa.RDX, 0)), isa.MovRI(isa.RCX, 2), isa.Ret())})
	// Self-modification aborts: each iteration's store rewrites the
	// immediate of a later instruction in the same block.
	a = &asmProg{}
	body = a.label()
	a.emit(isa.MovRI(isa.RCX, 6))
	a.bind(body)
	a.emit(isa.MovRR(isa.RBX, isa.RCX))
	patch, victim := len(a.ins), a.label()
	a.emit(isa.MovRI(isa.RSI, 0), isa.StoreSz(isa.Mem(isa.RSI, 0), isa.RBX, 1))
	a.bind(victim)
	a.emit(isa.MovRI(isa.RAX, 1), isa.SubRI(isa.RCX, 1), isa.CmpRI(isa.RCX, 0))
	a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondNE}, body)
	a.emit(isa.Ret())
	a.ins[patch] = isa.MovRI(isa.RSI, int64(dcCodeVA+a.labelOff(victim)+2))
	add(program{name: "coverage/self-mod-abort", code: a.encode(), reach: "Aborts"})
	// A counted loop ending in cmp+jcc, the pair the compiler fuses; and
	// the loop falling through into an undefined opcode, a cached #UD.
	add(program{name: "coverage/cmp-jcc-fused", code: countedLoop(10, isa.Ret()), reach: "Formed Instrs"})
	add(program{name: "coverage/cached-ud", code: append(countedLoop(10), undefinedOpcode())})

	// block/: a straight line that a Run limit cuts inside its block, and
	// one whose mov straddles the page boundary, never cached.
	add(program{name: "block/limit-exact", code: mustEncode(isa.MovRI(isa.RAX, 1), isa.MovRI(isa.RBX, 2),
		isa.MovRI(isa.RCX, 3), isa.MovRI(isa.RDX, 4), isa.Ret())})
	add(program{name: "block/page-tail-straddler", code: append(bytes.Repeat([]byte{byte(isa.NOP)}, mem.PageSize-3),
		mustEncode(isa.MovRI(isa.RBX, 0x1122334455667788), isa.Ret())...)})

	// superblock/: an IR-shaped loop, and a self-loop whose last entry is a
	// store that walks its target down a page per pass through five scratch
	// pages and the second code page, then onto the block's own page, where
	// it rewrites the immediate of the loop's sub: Y: store [rsi], bl; X
	// (the entry): sub rcx, 1; jle out; add rsi, rdx; jmp Y; out: ret, at
	// 0x100, entered by a jmp to X.
	add(program{name: "superblock/self-loop", code: irLoop(50)})
	a = &asmProg{}
	y, x, out := a.label(), a.label(), a.label()
	a.bind(y)
	a.emit(isa.StoreSz(isa.Mem(isa.RSI, 0), isa.RBX, 1))
	a.bind(x)
	a.emit(isa.SubRI(isa.RCX, 1))
	a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondLE}, out)
	a.emit(isa.AddRR(isa.RSI, isa.RDX))
	a.branch(isa.Instr{Op: isa.JMP}, y)
	a.bind(out)
	a.emit(isa.Ret())
	xOff := 0x100 + a.labelOff(x)
	setup := []isa.Instr{isa.MovRI(isa.RCX, 20), isa.MovRI(isa.RBX, 2), isa.MovRI(isa.RDX, -mem.PageSize),
		isa.MovRI(isa.RSI, int64(dcCodeVA+xOff+2+6*mem.PageSize)), {Op: isa.JMP}}
	setup[4].Imm = int64(xOff) - int64(len(mustEncode(setup...)))
	code := make([]byte, 0x100)
	copy(code, mustEncode(setup...))
	add(program{name: "superblock/stores-own-page", code: append(code, a.encode()...), pages: 5})

	// merge/: loops whose block run merging folds, lean (register ops and
	// loads only) or not; loop is the loop block's offset.
	code, loop := selectLoopProg(24)
	add(program{name: "merge/select-loop", code: code, loop: loop, reach: "LoopIters Merged"})
	// A pure run closed by a side exit first taken on pass 7: rax grows by
	// 3 a pass and the ja leaves once it passes 20. The add and the fused
	// cmp+ja merge, and so do the counter's add and the jmp.
	a = &asmProg{}
	head, done, side := a.label(), a.label(), a.label()
	a.emit(isa.MovRI(isa.R13, 0), isa.MovRI(isa.RAX, 0), isa.MovRI(isa.RBX, 3))
	a.bind(head)
	a.emit(isa.CmpRI(isa.R13, 30))
	a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondAE}, done)
	a.emit(isa.AddRR(isa.RAX, isa.RBX), isa.CmpRI(isa.RAX, 20))
	a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondA}, side)
	a.emit(isa.AddRI(isa.R13, 1))
	a.branch(isa.Instr{Op: isa.JMP}, head)
	a.bind(side)
	a.emit(isa.MovRI(isa.RDX, 7), isa.Ret())
	a.bind(done)
	a.emit(isa.Ret())
	add(program{name: "merge/side-exit-on-pass-7", code: a.encode(), loop: a.labelOff(head), reach: "LoopIters Merged SideExits"})
	// The load walks down from 320 bytes into the data page, 64 a pass, and
	// faults below it on pass 7: the trap must be charged to the load with
	// the lifted checks in force. Ticks perturb the bytes it reads.
	code, loop = walkingLoadProg(dcDataVA+5*64, -64, 30)
	add(program{name: "merge/load-walks-off-page", code: code, loop: loop, reach: "LoopIters Merged"})
	// Not lean: a store, and an rdmsr, which has no thunk and runs through
	// exec in place.
	for _, m := range []struct {
		name string
		pre  isa.Instr
		body []isa.Instr
	}{
		{"store-loop", isa.MovRI(isa.RSI, dcDataVA+8), []isa.Instr{isa.Store(isa.Mem(isa.RSI, 0), isa.R13), isa.AddRI(isa.RSI, 8)}},
		{"interpreted-entry", isa.MovRI(isa.RCX, 0x10), []isa.Instr{{Op: isa.RDMSR}, isa.AddRR(isa.RBX, isa.RAX)}},
	} {
		a = &asmProg{}
		head, done = a.label(), a.label()
		a.emit(m.pre, isa.MovRI(isa.R13, 0), isa.MovRI(isa.RBX, 0))
		a.bind(head)
		a.emit(isa.CmpRI(isa.R13, 12))
		a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondAE}, done)
		a.emit(m.body...)
		a.emit(isa.Inc(isa.R13))
		a.branch(isa.Instr{Op: isa.JMP}, head)
		a.bind(done)
		a.emit(isa.Ret())
		add(program{name: "merge/" + m.name, code: a.encode(), loop: a.labelOff(head)})
	}
	// Not lean: a loop that calls its own head stores a return address
	// every pass. The loop sits at the end of the first code page and the
	// stack starts just inside the second, so the third pass's push lands on
	// the loop's own tail: the compiled loop, by then looping inside one
	// dispatch, must notice its page changed. dcStore does not mark the
	// call (a terminator), so only leanBlock's call rule keeps it non-lean.
	loopCode := []isa.Instr{isa.SubRI(isa.R12, 1), {Op: isa.JCC, CC: isa.CondLE}, {Op: isa.CALL}}
	loop = mem.PageSize - uint64(len(mustEncode(loopCode...)))
	rips := ripsOf(dcCodeVA+loop, loopCode...)
	exit := uint64(dcCodeVA + mem.PageSize + 16)
	loopCode[1] = branchTo(loopCode[1], rips[1], exit)
	loopCode[2] = branchTo(loopCode[2], rips[2], rips[0])
	pro := []isa.Instr{isa.MovRI(isa.R12, 8), isa.MovRI(isa.RSP, dcCodeVA+mem.PageSize+16), {Op: isa.JMP}}
	pro[2] = branchTo(pro[2], ripsOf(dcCodeVA, pro...)[2], rips[0])
	code = make([]byte, mem.PageSize+32)
	copy(code, mustEncode(pro...))
	copy(code[loop:], mustEncode(loopCode...))
	copy(code[exit-dcCodeVA:], mustEncode(isa.MovRI(isa.RAX, 1), isa.Hlt()))
	add(program{name: "merge/call-self-loop", code: code, loop: loop})

	// fixpoint/: counted register loops whose passes fixpoint fast-forward
	// may skip, with the Run limits each is swept at (0: none, for loops
	// that end). reach names LoopSkipped for the loops that must skip.
	sel := selectSpec(1<<16, selectBitmap)
	with := func(l loopSpec, f func(*loopSpec)) loopSpec {
		l.setup, l.body = slices.Clone(l.setup), slices.Clone(l.body)
		f(&l)
		return l
	}
	short := []uint64{37, 1000, 20000, 0}
	for _, fc := range []struct {
		name   string
		l      loopSpec
		limits []uint64
		reach  string
	}{
		{"select(1<<16)", sel, []uint64{37, 1000, 20000, 524288, 524290, 524291, 0}, "LoopSkipped"},
		{"select/rotated", with(sel, func(l *loopSpec) { l.twice, l.pre = true, 1<<16 }), short, "LoopSkipped"},
		{"select/watchdog", with(sel, func(l *loopSpec) { l.bound = 1 << 62 }), []uint64{37, 20000, 100000}, "LoopSkipped"},
		// Only the top and bottom bits set: %rax stops changing after the
		// first pass while %r9 is still shifting its top bit down.
		{"select/sparse-bitmap", with(sel, func(l *loopSpec) { l.setup[0] = isa.MovRI(isa.R9, -1<<63|1) }), short, "LoopSkipped"},
		{"select/step-before-cmp", with(sel, func(l *loopSpec) { l.shape = fixMid }), short, "LoopSkipped"},
		// The counter feeds %r10, which is 0 for 256 passes and then 1, 2,
		// 3: a loop that looks settled and is not.
		{"counter-feeds-register", with(sel, func(l *loopSpec) {
			l.bound = 1000
			l.body[0], l.body[1] = isa.MovRR(isa.R10, isa.RCX), isa.ShrRI(isa.R10, 8)
		}), short, ""},
		{"signed-up", loopSpec{body: []isa.Instr{isa.ShrRI(isa.RBX, 3), isa.OrRI(isa.RDX, 0x10)},
			ctr: isa.R11, init: -300, step: isa.AddRI(isa.R11, 1), bound: 200, imm: true, exit: isa.CondGE}, short, "LoopSkipped"},
		{"signed-down-right-operand", loopSpec{body: []isa.Instr{isa.MovRI(isa.RBX, 9)},
			ctr: isa.R11, init: 500, step: isa.SubRI(isa.R11, 1), bound: -100, bnd: isa.R10, swap: true, exit: isa.CondGE}, short, "LoopSkipped"},
		// The same loop stepped by dec, which has no thunk: the block is
		// not lean, so every pass runs, its dec through exec.
		{"dec-runs-every-pass", loopSpec{body: []isa.Instr{isa.MovRI(isa.RBX, 9)},
			ctr: isa.R11, init: 500, step: isa.Dec(isa.R11), bound: -100, bnd: isa.R10, swap: true, exit: isa.CondGE}, short, ""},
		// Counts up through 2^64-1 and wraps to 0 on its way to 50.
		{"unsigned-wrap", loopSpec{body: []isa.Instr{isa.XorRR(isa.RDX, isa.RDX)},
			ctr: isa.R11, init: -100, step: isa.Inc(isa.R11), bound: 50, imm: true, exit: isa.CondE}, short, "LoopSkipped"},
		// Counts up through the largest signed value, where ctr > -5 fails.
		{"signed-wrap", loopSpec{body: []isa.Instr{isa.AndRI(isa.RBX, 0)},
			ctr: isa.R11, init: 1<<63 - 128, step: isa.Inc(isa.R11), bound: -5, bnd: isa.R10, exit: isa.CondLE}, short, "LoopSkipped"},
		{"bottom-tested", loopSpec{body: []isa.Instr{isa.MovRR(isa.RDX, isa.R8), isa.AddRI(isa.R12, 1)},
			shape: fixBottom, ctr: isa.R11, init: 400, step: isa.SubRI(isa.R11, 1), bound: 3, bnd: isa.R10, exit: isa.CondB}, short, "LoopSkipped"},
		{"never-settles", loopSpec{body: []isa.Instr{isa.AddRI(isa.RAX, 3)},
			ctr: isa.R11, init: 0, step: isa.Inc(isa.R11), bound: 300, imm: true, exit: isa.CondAE}, short, ""},
		// %rbx toggles every pass, so the loop never settles. Its second
		// visit's first pass leaves %rbx as the first visit's last pass
		// did: a skip that compared with what an earlier dispatch recorded
		// would fire here.
		{"toggle/second-visit", loopSpec{setup: []isa.Instr{isa.MovRI(isa.RBX, 0)},
			body: []isa.Instr{{Op: isa.XORri, Dst: isa.RBX, Imm: 1}}, twice: true, pre: 290,
			ctr: isa.R11, init: 0, step: isa.Inc(isa.R11), bound: 300, imm: true, exit: isa.CondAE}, short, ""},
	} {
		code, _, _, _ := fc.l.prog()
		add(program{name: "fixpoint/" + fc.name, code: code, seed: 1, limits: fc.limits, reach: fc.reach})
	}

	// fusion/: random straight-line ALU programs (genFusionProgram) with
	// flag observers, block boundaries, side exits and traps, four passes
	// each.
	for seed := range 120 {
		add(program{name: fmt.Sprintf("fusion/%d", seed), seed: uint64(seed),
			code: mustEncode(genFusionProgram(rand.New(rand.NewSource(int64(seed))))...)})
	}

	// fuzz/: FuzzBlockEquivalence's seed corpus, in f.Add order. Each runs
	// as raw code and seeds the structured program genBlockProgram derives
	// from it; reach names what its raw run at hot 1 must take.
	add(program{name: "fuzz/nop-ret", code: []byte{byte(isa.NOP), byte(isa.RET)}, seed: 1})
	add(program{name: "fuzz/mov-add", code: mustEncode(isa.MovRI(isa.RAX, 5), isa.AddRI(isa.RAX, 7), isa.Ret()), seed: 2})
	// Stores a RET over its own first instruction.
	add(program{name: "fuzz/self-mod", seed: 3, code: mustEncode(isa.MovRI(isa.RBX, int64(isa.RET)),
		isa.MovRI(isa.RCX, dcCodeVA), isa.StoreSz(isa.Mem(isa.RCX, 0), isa.RBX, 1), isa.Nop())})
	// The store rewrites the instruction right after it, turning mov rax,
	// 1 into mov rax, 9.
	add(program{name: "fuzz/self-mod-in-block", seed: 4, code: mustEncode(isa.MovRI(isa.RBX, 9),
		isa.MovRI(isa.RCX, dcCodeVA+32), isa.StoreSz(isa.Mem(isa.RCX, 0), isa.RBX, 1), isa.MovRI(isa.RAX, 1), isa.Ret()), reach: "Aborts"})
	// A self-loop whose last entry stores into its own page: jmp X; Y:
	// store [rcx],bl; X: sub rdx,1; jle out; add rcx,-0x100; jmp Y; out:
	// ret. rcx walks down the second code page while the block compiles and
	// loops, then onto the loop's own page.
	add(program{name: "fuzz/store-loop-own-page", seed: 5, code: mustEncode(isa.MovRI(isa.RDX, 20),
		isa.MovRI(isa.RCX, dcCodeVA+0x1f00), isa.Instr{Op: isa.JMP, Imm: 10}, isa.StoreSz(isa.Mem(isa.RCX, 0), isa.RBX, 1),
		isa.SubRI(isa.RDX, 1), isa.Instr{Op: isa.JCC, CC: isa.CondLE, Imm: 11}, isa.AddRI(isa.RCX, -0x100),
		isa.Instr{Op: isa.JMP, Imm: -33}, isa.Ret())})
	add(program{name: "fuzz/structured", code: []byte("structured"), seed: 6})
	// sys_select's pure register loop: a lean self-loop whose body after
	// the fused cmp+jae runs as one merged call.
	code, _ = selectLoopProg(40)
	add(program{name: "fuzz/select(40)", code: code, seed: 7, reach: "LoopIters Merged"})
	// A lean self-loop whose load walks off the data page on pass 4.
	code, _ = walkingLoadProg(dcDataVA+mem.PageSize-3*64, 64, 20)
	add(program{name: "fuzz/walking-load", code: code, seed: 8, reach: "LoopIters"})
	// csum_partial's loop, a summing load group, over 64 bytes a pass: the
	// third pass's group runs off the data page at its fourth load and at
	// its first, and a pass over the code pages straddles both.
	for _, c := range []struct {
		name  string
		start uint64
	}{
		{"csum/off-page-mid-group", dcDataVA + mem.PageSize - 2*64 - 24},
		{"csum/off-page-at-group", dcDataVA + mem.PageSize - 2*64},
		{"csum/straddle", dcCodeVA + mem.PageSize - 64 - 20},
	} {
		add(program{name: "fuzz/" + c.name, code: csumProg(c.start, 4), seed: 11, reach: "grouped"})
	}
	// A structured program that rewrites its own code page: a fork's
	// private copy of the page must never publish its blocks to the shared
	// table (a table keyed by page address alone, not frame, fails here).
	add(program{name: "fuzz/structured-self-mod", code: []byte("\x05,\x00\x10\x00"), seed: 2})
	// select over 1<<16 descriptors, nearly every pass skipped once the
	// bitmap drains, ending inside the long raw limit; and one the limit
	// caps, as the kernel's watchdog caps a huge nfds.
	code, _ = selectLoopProg(1 << 16)
	add(program{name: "fuzz/select(1<<16)", code: code, seed: 9, reach: "LoopSkipped"})
	code, _ = selectLoopProg(1 << 62)
	add(program{name: "fuzz/select(1<<62)", code: code, seed: 10, reach: "LoopSkipped"})
	// Bound checks in a compiled loop: each pass makes %bnd2 from its
	// pointer, checks the pointer against %bnd1 both ways and loads
	// through it, until bndcu traps on the seventeenth pass.
	a = &asmProg{}
	body = a.label()
	a.emit(isa.MovRI(isa.RBX, dcDataVA), isa.Bndmk(isa.BND1, isa.Mem(isa.RBX, 0x100)),
		isa.MovRI(isa.RCX, dcDataVA), isa.MovRI(isa.R12, 40))
	a.bind(body)
	a.emit(isa.Bndmk(isa.BND2, isa.Mem(isa.RCX, 0x40)), isa.Instr{Op: isa.BNDCL, Bnd: isa.BND1, M: isa.Mem(isa.RCX, 0)},
		isa.Bndcu(isa.BND1, isa.Mem(isa.RCX, 8)), isa.Load(isa.RAX, isa.Mem(isa.RCX, 0)), isa.AddRI(isa.RCX, 16),
		isa.SubRI(isa.R12, 1))
	a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondNE}, body)
	a.emit(isa.Ret())
	add(program{name: "fuzz/bound-checks", code: a.encode(), seed: 12, reach: "LoopIters"})
	add(program{name: "fuzz/exec-forms", code: execFormsProg(), seed: 13, reach: "ExecSlots LoopIters"})
	return ps
})

// execFormsProg is a self-loop of six passes over one block that holds
// every form the block compiler runs through exec for want of a thunk:
// nop, swapgs, std, cld, bndmk, bndcl and, live and with dead flags, sar,
// neg, imul reg,reg, dec and test reg,imm, sub reg,reg, the dead-flags sub
// reg,imm, shr and compares, and the producer-jcc pairs it does not fuse
// (test reg,imm, add, sub, inc and dec each before a jcc). A jmp through
// %r14 closes the loop. No side exit is taken: each leads to a mov
// rax,0xbad; ret. execFormsModel computes what the loop leaves.
func execFormsProg() []byte {
	a := &asmProg{}
	head, bad, out := a.label(), a.label(), a.label()
	patch := len(a.ins)
	a.emit(isa.MovRI(isa.R14, 0), isa.MovRI(isa.RCX, 6), isa.MovRI(isa.R8, -0x100000), isa.MovRI(isa.R15, -800),
		isa.MovRI(isa.R9, 5), isa.MovRI(isa.R10, 3), isa.MovRI(isa.R11, 2), isa.MovRI(isa.R12, 1000),
		isa.MovRI(isa.R13, 500), isa.MovRI(isa.RDX, 7), isa.MovRI(isa.RBX, 1000), isa.MovRI(isa.RSI, 0x12345),
		isa.MovRI(isa.RDI, 100), isa.MovRI(isa.RAX, 1), isa.MovRI(isa.RBP, 0))
	jcc := func(cc isa.Cond, l int) { a.branch(isa.Instr{Op: isa.JCC, CC: cc}, l) }
	sar := func(r isa.Reg, n int64) isa.Instr { return isa.Instr{Op: isa.SARri, Dst: r, Imm: n} }
	neg := isa.Instr{Op: isa.NEGr, Dst: isa.R9}
	imul := isa.Instr{Op: isa.IMULrr, Dst: isa.R10, Src: isa.R11}
	testRI := func(r isa.Reg, n int64) isa.Instr { return isa.Instr{Op: isa.TESTri, Dst: r, Imm: n} }
	a.bind(head)
	a.emit(isa.Nop(), isa.Instr{Op: isa.SWAPGS}, isa.Instr{Op: isa.STD}, isa.Instr{Op: isa.CLD},
		isa.Bndmk(isa.BND2, isa.Mem(isa.R14, 0x40)), isa.Instr{Op: isa.BNDCL, Bnd: isa.BND2, M: isa.Mem(isa.R14, 0)},
		sar(isa.R8, 1))
	jcc(isa.CondNS, bad)
	// Up to the second neg, each flag result dies into the next
	// instruction.
	a.emit(sar(isa.R15, 3), neg, imul, isa.SubRI(isa.RBX, 3), isa.ShrRI(isa.RSI, 1), isa.CmpRI(isa.RDI, 5),
		isa.CmpRR(isa.RDI, isa.R8), isa.TestRR(isa.RDI, isa.R8), testRI(isa.RDI, 0x10), isa.SubRR(isa.R13, isa.RDX),
		neg)
	jcc(isa.CondO, bad)
	a.emit(imul)
	jcc(isa.CondO, bad)
	a.emit(isa.Dec(isa.R12), isa.SubRR(isa.R13, isa.RDX))
	jcc(isa.CondE, bad)
	a.emit(isa.Dec(isa.R12), isa.Inc(isa.RBP))
	jcc(isa.CondE, bad)
	a.emit(testRI(isa.RSI, 0))
	jcc(isa.CondNE, bad)
	a.emit(isa.AddRI(isa.RDI, 1))
	jcc(isa.CondE, bad)
	a.emit(isa.AddRR(isa.RAX, isa.RDX))
	jcc(isa.CondE, bad)
	a.emit(isa.SubRI(isa.RBX, 1))
	jcc(isa.CondE, bad)
	a.emit(isa.Dec(isa.RCX))
	jcc(isa.CondE, out)
	a.emit(isa.Instr{Op: isa.JMPR, Dst: isa.R14})
	a.bind(bad)
	a.emit(isa.MovRI(isa.RAX, 0xbad), isa.Ret())
	a.bind(out)
	a.emit(isa.Ret())
	a.ins[patch] = isa.MovRI(isa.R14, int64(dcCodeVA+a.labelOff(head)))
	return a.encode()
}

// execFormsModel returns the registers execFormsProg writes, as its loop
// leaves them, computed here rather than by exec.
func execFormsModel() map[isa.Reg]uint64 {
	r := map[isa.Reg]int64{isa.RCX: 6, isa.R8: -0x100000, isa.R15: -800, isa.R9: 5, isa.R10: 3, isa.R11: 2,
		isa.R12: 1000, isa.R13: 500, isa.RDX: 7, isa.RBX: 1000, isa.RSI: 0x12345, isa.RDI: 100, isa.RAX: 1, isa.RBP: 0}
	for r[isa.RCX] > 0 {
		r[isa.R8] >>= 1
		r[isa.R15] >>= 3
		r[isa.R10] *= r[isa.R11] * r[isa.R11] // %r9 is negated twice, so it ends as it began
		r[isa.RBX] -= 3 + 1
		r[isa.RSI] >>= 1
		r[isa.R13] -= 2 * r[isa.RDX]
		r[isa.R12] -= 2
		r[isa.RBP]++
		r[isa.RDI]++
		r[isa.RAX] += r[isa.RDX]
		r[isa.RCX]--
	}
	regs := map[isa.Reg]uint64{}
	for k, v := range r {
		regs[k] = uint64(v)
	}
	return regs
}

// rows returns the table's rows whose name starts with prefix.
func rows(prefix string) []*program {
	var out []*program
	for _, p := range programs() {
		if strings.HasPrefix(p.name, prefix) {
			out = append(out, p)
		}
	}
	return out
}

// row returns the table's row named name.
func row(t *testing.T, name string) *program {
	t.Helper()
	for _, p := range programs() {
		if p.name == name {
			return p
		}
	}
	t.Fatalf("no program %q", name)
	return nil
}

// countedLoop is mov rcx, n; top: add rax, rcx; sub rcx, 1; cmp rcx, 0;
// jne top, then tail.
func countedLoop(n int64, tail ...isa.Instr) []byte {
	a := &asmProg{}
	top := a.label()
	a.emit(isa.MovRI(isa.RCX, n))
	a.bind(top)
	a.emit(isa.AddRR(isa.RAX, isa.RCX), isa.SubRI(isa.RCX, 1), isa.CmpRI(isa.RCX, 0))
	a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondNE}, top)
	a.emit(tail...)
	return a.encode()
}

// irLoop is the IR's loop shape: head: cmp rcx,n; jae exit / body; jmp
// head. The block formed at head takes in the whole loop and exits to
// itself.
func irLoop(n int32) []byte {
	a := &asmProg{}
	head, exit := a.label(), a.label()
	a.emit(isa.MovRI(isa.RCX, 0), isa.MovRI(isa.RAX, 0))
	a.bind(head)
	a.emit(isa.CmpRI(isa.RCX, n))
	a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondAE}, exit)
	a.emit(isa.AddRR(isa.RAX, isa.RCX), isa.AddRI(isa.RCX, 1))
	a.branch(isa.Instr{Op: isa.JMP}, head)
	a.bind(exit)
	a.emit(isa.Ret())
	return a.encode()
}

// TestExecForms runs fuzz/exec-forms in the block engines. Its forms have
// no thunk, so the reference stepper and the block runner execute them
// through the same exec cases, and the sweep against the reference cannot
// see a fault there; so the registers are also checked against
// execFormsModel, and %bnd2 against the bndmk that made it. (That the
// slots ran through exec inside the looping block, FuzzBlockEquivalence
// checks through the row's reach.)
func TestExecForms(t *testing.T) {
	p := row(t, "fuzz/exec-forms")
	want := execFormsModel()
	sweep(t, p, func(pt point, o *outcome, _ *CPU) {
		s := o.passes[0]
		for r, v := range want {
			if s.Regs[r] != v {
				t.Errorf("%s [%v]: %v = %#x, want %#x", p.name, pt, r, s.Regs[r], v)
			}
		}
		if ub := s.Regs[isa.R14] + 0x40; s.Bnd[isa.BND2] != (Bound{UB: ub}) || s.Stop != StopReturn {
			t.Errorf("%s [%v]: %%bnd2 %+v, stop %v; want {0 %#x} and a return", p.name, pt, s.Bnd[isa.BND2], ub, s.Stop)
		}
	}, points(space{engines: blockEngines}))
}

// FuzzBlockEquivalence is the oracle's fuzz target. An input is code and a
// register seed; it runs as raw bytes on writable code pages (which do
// overwrite themselves) and seeds a structured program genBlockProgram
// derives from it, full of side exits, self-loops, followed jumps, summing
// load groups and a closing counted loop fixpoint fast-forward may skip
// through.
//
// The seed corpus, the fuzz/ rows of the program table, is swept
// exhaustively: the raw code at Run limits 512 (with and without an exec
// probe) and 1<<20 in every engine, where the row's reach counters must be
// nonzero at hot 1; and the structured program at every position up to a
// limit of 256, as a Run limit and as a tick deadline, in both compiled
// engines and on shared forks, which must adopt blocks when they run to
// the last position. An input the fuzzer made samples program ×
// point instead, so that it spends its time on new programs rather than on
// every position of each: fuzzSample points drawn from the whole axis table
// for each of the raw code, the structured program, a genFusionProgram
// program and a table row outside the fusion/ family, all drawn from the
// input.
func FuzzBlockEquivalence(f *testing.F) {
	corpus := map[string]*program{}
	key := func(code []byte, seed uint64) string { return fmt.Sprintf("%x/%d", code, seed) }
	for _, p := range rows("fuzz/") {
		f.Add(p.code, p.seed)
		corpus[key(p.code, p.seed)] = p
	}
	fixed := slices.DeleteFunc(slices.Clone(programs()), func(p *program) bool { return strings.HasPrefix(p.name, "fusion/") })
	f.Fuzz(func(t *testing.T, code []byte, seed uint64) {
		seedRow := corpus[key(code, seed)]
		if len(code) > 2*mem.PageSize {
			code = code[:2*mem.PageSize]
		}
		h := fnv.New64a()
		h.Write(code)
		sum := int64(h.Sum64() ^ seed)
		raw := &program{name: "raw", code: code, seed: seed}
		gen := &program{name: "structured", code: genBlockProgram(rand.New(rand.NewSource(sum))), seed: seed}
		if seedRow != nil {
			raw.name, gen.name = seedRow.name, seedRow.name+"/structured"
			sweep(t, raw, func(pt point, _ *outcome, c *CPU) {
				if pt == (point{engine: hot1, limit: 1 << 20}) {
					must(t, raw.name, c, seedRow.reach)
				}
			}, points(space{engines: allEngines, probe: both, limits: []uint64{512}},
				space{engines: allEngines, limits: []uint64{1 << 20}}))
			const limit = 256
			full, _ := runPoint(t, gen, point{limit: limit}, nil)
			pos := upTo(min(full.passes[0].Instrs+1, limit))
			at := point{engine: gated, fork: true, limit: pos[len(pos)-1]}
			sweep(t, gen, func(pt point, _ *outcome, c *CPU) {
				if pt == at {
					must(t, gen.name, c, "Adopted")
				}
			}, append(ladder(blockEngines, false, pos, limit), ladder([]int{gated}, true, pos, limit)...))
			return
		}
		sample := rand.New(rand.NewSource(sum ^ 0x5bd1e995))
		fused := &program{name: "fusion", code: mustEncode(genFusionProgram(sample)...), seed: seed}
		for i, p := range []*program{raw, gen, fused, fixed[sample.Intn(len(fixed))]} {
			maxLimit := int64(4096)
			if i == 0 {
				maxLimit = 1 << 16
			}
			var pts []point
			for range fuzzSample {
				pt := point{engine: 1 + sample.Intn(len(engines)-1), fork: sample.Intn(4) == 0, probe: sample.Intn(8) == 0,
					region: sample.Intn(len(regions)), passes: 1 + sample.Intn(3), limit: 1 + uint64(sample.Int63n(maxLimit))}
				if sample.Intn(2) == 0 {
					pt.stride, pt.act = 1+uint64(sample.Int63n(int64(pt.limit))), sample.Intn(2) == 0
				}
				pts = append(pts, pt)
			}
			sweep(t, p, nil, pts)
		}
	})
}

// fuzzSample is how many points FuzzBlockEquivalence samples for each
// program of an input the fuzzer made.
const fuzzSample = 12
