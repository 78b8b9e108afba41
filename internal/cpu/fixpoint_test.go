package cpu

import (
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Loop shapes for loopSpec.
const (
	fixHead   = iota // top: cmp; jcc exit / body; step; jmp top
	fixMid           // top: body; step; cmp; jcc exit; jmp top (the step precedes the cmp)
	fixBottom        // jmp test / top: body; step / test: cmp; jcc(continue) top
)

// loopSpec is a counted register loop for the fixpoint tests and
// genBlockProgram: a counter ctr from init, moved by step each pass and
// compared with bound (an immediate, or bnd holding it) by a cmp whose jcc
// leaves the loop on exit. With twice the loop runs two visits, the first
// from pre: a first visit that exits early sets the exit jcc's seen-taken
// bit, so blocks formed later rotate (body first, cmp; jcc last).
type loopSpec struct {
	setup []isa.Instr
	body  []isa.Instr
	shape int
	ctr   isa.Reg
	init  int64
	pre   int64
	twice bool
	step  isa.Instr
	bound int64
	bnd   isa.Reg
	imm   bool // compare with bound as an immediate (it must fit in int32)
	swap  bool // cmp bnd, ctr: the counter is the right operand
	exit  isa.Cond
}

// loopLabels are the labels emit binds: the loop's first body-or-cmp
// instruction, the entry after the exit jcc, and the exit jcc itself.
type loopLabels struct{ top, after, jcc int }

// emit appends the loop to a.
func (l loopSpec) emit(a *asmProg) loopLabels {
	lb := loopLabels{top: a.label(), after: a.label(), jcc: a.label()}
	exit, enter, again, test := a.label(), a.label(), a.label(), a.label()
	a.emit(l.setup...)
	if !l.imm {
		a.emit(isa.MovRI(l.bnd, l.bound))
	}
	if l.twice {
		a.emit(isa.MovRI(isa.R15, 1), isa.MovRI(l.ctr, l.pre))
		a.branch(isa.Instr{Op: isa.JMP}, enter)
		a.bind(again)
	}
	a.emit(isa.MovRI(l.ctr, l.init))
	a.bind(enter)
	cmp := isa.CmpRR(l.ctr, l.bnd)
	switch {
	case l.imm:
		cmp = isa.CmpRI(l.ctr, int32(l.bound))
	case l.swap:
		cmp = isa.CmpRR(l.bnd, l.ctr)
	}
	switch l.shape {
	case fixHead:
		a.bind(lb.top)
		a.emit(cmp)
		a.bind(lb.jcc)
		a.branch(isa.Instr{Op: isa.JCC, CC: l.exit}, exit)
		a.bind(lb.after)
		a.emit(l.body...)
		a.emit(l.step)
		a.branch(isa.Instr{Op: isa.JMP}, lb.top)
	case fixMid:
		a.bind(lb.top)
		a.emit(l.body...)
		a.emit(l.step, cmp)
		a.bind(lb.jcc)
		a.branch(isa.Instr{Op: isa.JCC, CC: l.exit}, exit)
		a.bind(lb.after)
		a.branch(isa.Instr{Op: isa.JMP}, lb.top)
	default:
		a.branch(isa.Instr{Op: isa.JMP}, test)
		a.bind(lb.top)
		a.emit(l.body...)
		a.emit(l.step)
		a.bind(test)
		a.emit(cmp)
		a.bind(lb.jcc)
		a.branch(isa.Instr{Op: isa.JCC, CC: l.exit.Negate()}, lb.top)
		a.bind(lb.after)
	}
	a.bind(exit)
	if l.twice {
		a.emit(isa.SubRI(isa.R15, 1))
		a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondAE}, again)
	}
	return lb
}

// prog returns the loop as a program that returns after it, and its labels'
// code offsets.
func (l loopSpec) prog() (code []byte, top, after, jcc uint64) {
	a := &asmProg{}
	lb := l.emit(a)
	a.emit(isa.Ret())
	return a.encode(), a.labelOff(lb.top), a.labelOff(lb.after), a.labelOff(lb.jcc)
}

// selectSpec is sys_select's fd loop (corpus_sys.go) over nfds descriptors
// of bitmap, as selectLoopProg lays it out.
func selectSpec(nfds int64, bitmap uint64) loopSpec {
	return loopSpec{
		setup: []isa.Instr{isa.MovRI(isa.R9, int64(bitmap)), isa.XorRR(isa.RAX, isa.RAX)},
		body: []isa.Instr{isa.MovRR(isa.R10, isa.R9), isa.AndRI(isa.R10, 1),
			isa.AddRR(isa.RAX, isa.R10), isa.ShrRI(isa.R9, 1)},
		ctr: isa.RCX, step: isa.Inc(isa.RCX), bound: nfds, bnd: isa.RDI, exit: isa.CondAE,
	}
}

const selectBitmap = 0x5a5a_3c3c_f0f0_9669

// formAt forms, eagerly, the block entered at code offset entry, after
// setting the seen-taken bits of the JCCs at the offsets in taken.
func formAt(t *testing.T, code []byte, entry uint64, taken ...uint64) *dcBlock {
	t.Helper()
	c := rawCPU(t, mem.PermX)
	if err := c.AS.Poke(dcCodeVA, code); err != nil {
		t.Fatal(err)
	}
	c.SetBlockHotThreshold(1)
	p := c.dc.resolvePage(c.AS, dcCodeVA+entry)
	for _, off := range taken {
		p.markTaken(int(off))
	}
	_, b := c.blockLookup(dcCodeVA + entry)
	if b == nil {
		t.Fatal("no block formed")
	}
	return b
}

// TestFixpointClassification pins which self-loops formation marks
// fixpoint-eligible, in every shape a loop forms in: the IR's head shape,
// its rotation (formed after the exit jcc was seen taken: body first, cmp;
// jcc last, falling through to its own entry), a loop whose counter steps
// before its cmp, and a bottom-tested loop whose taken jcc continues it.
// Loops that break one of the rules stay plain self-loops.
func TestFixpointClassification(t *testing.T) {
	sel := selectSpec(1<<16, selectBitmap)
	mod := func(f func(*loopSpec)) loopSpec {
		l := sel
		l.body = slices.Clone(sel.body)
		f(&l)
		return l
	}
	type shape int
	const (
		head shape = iota
		rotated
		bottom
	)
	cases := []struct {
		name  string
		l     loopSpec
		at    shape
		want  bool
		ctr   isa.Reg
		cond  isa.Cond
		pre   bool
		other []uint8
	}{
		{name: "select/head", l: sel, at: head, want: true, ctr: isa.RCX, cond: isa.CondB,
			other: []uint8{uint8(isa.RAX), uint8(isa.R9), uint8(isa.R10)}},
		{name: "select/rotated", l: sel, at: rotated, want: true, ctr: isa.RCX, cond: isa.CondB, pre: true,
			other: []uint8{uint8(isa.RAX), uint8(isa.R9), uint8(isa.R10)}},
		{name: "step-before-cmp", l: mod(func(l *loopSpec) { l.shape = fixMid }), at: head, want: true,
			ctr: isa.RCX, cond: isa.CondB, pre: true, other: []uint8{uint8(isa.RAX), uint8(isa.R9), uint8(isa.R10)}},
		{name: "bottom-tested", l: mod(func(l *loopSpec) { l.shape, l.step, l.exit = fixBottom, isa.SubRI(isa.RCX, 1), isa.CondL }),
			at: bottom, want: true, ctr: isa.RCX, cond: isa.CondGE, pre: true,
			other: []uint8{uint8(isa.RAX), uint8(isa.R9), uint8(isa.R10)}},
		{name: "counter-right-operand", l: mod(func(l *loopSpec) { l.swap, l.exit = true, isa.CondLE }), at: head, want: true,
			ctr: isa.RCX, cond: isa.CondL, other: []uint8{uint8(isa.RAX), uint8(isa.R9), uint8(isa.R10)}},
		{name: "immediate-bound", l: mod(func(l *loopSpec) { l.imm, l.bound, l.step = true, -7, isa.SubRI(isa.RCX, -1) }),
			at: head, want: true, ctr: isa.RCX, cond: isa.CondB, other: []uint8{uint8(isa.RAX), uint8(isa.R9), uint8(isa.R10)}},
		{name: "second-induction", l: mod(func(l *loopSpec) { l.body = append(l.body, isa.AddRI(isa.R12, -1)) }),
			at: head, want: true, ctr: isa.RCX, cond: isa.CondB, other: []uint8{uint8(isa.RAX), uint8(isa.R9), uint8(isa.R10)}},

		{name: "counter-feeds-register", l: mod(func(l *loopSpec) { l.body[0] = isa.MovRR(isa.R10, isa.RCX) }), at: head},
		{name: "counter-read-by-test", l: mod(func(l *loopSpec) { l.body = append(l.body, isa.TestRR(isa.RCX, isa.RCX)) }), at: head},
		{name: "step-two", l: mod(func(l *loopSpec) { l.step = isa.AddRI(isa.RCX, 2) }), at: head},
		{name: "stepped-twice", l: mod(func(l *loopSpec) { l.body = append(l.body, isa.Inc(isa.RCX)) }), at: head},
		{name: "bound-written", l: mod(func(l *loopSpec) { l.body = append(l.body, isa.ShrRI(isa.RDI, 1)) }), at: head},
		{name: "load", l: mod(func(l *loopSpec) { l.body = append(l.body, isa.Load(isa.RBX, isa.Mem(isa.RSP, 0))) }), at: head},
		{name: "sign-condition", l: mod(func(l *loopSpec) { l.exit = isa.CondS }), at: head},
		{name: "second-jcc", l: mod(func(l *loopSpec) {
			l.body = append(l.body, isa.CmpRI(isa.RAX, 3), isa.Instr{Op: isa.JCC, CC: isa.CondE, Imm: 0x40})
		}), at: head},
	}
	for _, tc := range cases {
		code, top, after, jcc := tc.l.prog()
		var b *dcBlock
		switch tc.at {
		case head:
			b = formAt(t, code, top)
		case rotated:
			b = formAt(t, code, after, jcc)
		case bottom:
			b = formAt(t, code, top, jcc)
		}
		if last := b.ents[len(b.ents)-1]; tc.at != head && last.rip != dcCodeVA+jcc {
			t.Fatalf("%s: the block does not end at the exit jcc: %+v", tc.name, b.ents)
		}
		f := b.fix
		if (f != nil) != tc.want {
			t.Errorf("%s: eligible %v, want %v", tc.name, f != nil, tc.want)
			continue
		}
		if f == nil {
			continue
		}
		if isa.Reg(f.ctr) != tc.ctr || f.cond != tc.cond || f.pre != tc.pre || !slices.Equal(f.other, tc.other) {
			t.Errorf("%s: ctr %v cond %v pre %v other %v, want %v %v %v %v",
				tc.name, isa.Reg(f.ctr), f.cond, f.pre, f.other, tc.ctr, tc.cond, tc.pre, tc.other)
		}
	}
}

// TestFixpointMatchesStepper runs each fixpoint row, eagerly formed and
// behind the default hotness gate, against the uncached stepper: at Run
// limits that land before, inside and after the skipped span, and with a
// ticker whose deadlines land inside it, with and without injector-style
// perturbations. It catches a skip of one pass too many, a skip past the
// budget or the tick deadline, a skip before every non-induction register
// has settled, and a classifier that lets an induction register feed
// another register. The rows whose reach names LoopSkipped must skip
// passes; the others must never.
func TestFixpointMatchesStepper(t *testing.T) {
	for _, p := range rows("fixpoint/") {
		skipped := false
		sweep(t, p, func(_ point, _ *outcome, c *CPU) {
			skipped = skipped || c.BlockStats().LoopSkipped > 0
		}, points(space{engines: blockEngines, limits: p.limits},
			space{engines: blockEngines, limits: []uint64{20000}, strides: []uint64{3, 1000, 4099}, act: both}))
		if want := p.reach != ""; skipped != want {
			t.Errorf("%s: skipped passes %v, want %v", p.name, skipped, want)
		}
	}
}

// TestFixpointSelectAccounting pins what a skip leaves in the counters: a
// select over 1<<16 descriptors formed eagerly runs in three dispatches, the
// loop one of them, and every counter reads what it read before passes were
// skipped (3 dispatches, 65535 loop passes, every instruction a block
// instruction and a decode-cache hit), while nearly all passes are skipped.
func TestFixpointSelectAccounting(t *testing.T) {
	sweep(t, row(t, "fixpoint/select(1<<16)"), func(_ point, o *outcome, c *CPU) {
		s, n := c.BlockStats(), o.passes[0].Instrs
		if hits := c.DecodeCacheStats().Hits; s.Dispatches != 3 || s.LoopIters != 1<<16-1 || s.Instrs != n || hits != n {
			t.Errorf("dispatches %d, loop_iters %d, block instrs %d, dcache hits %d; want 3, %d, %d, %d",
				s.Dispatches, s.LoopIters, s.Instrs, hits, 1<<16-1, n, n)
		}
		if s.LoopSkipped < s.LoopIters-80 || s.LoopSkipped > s.LoopIters {
			t.Errorf("skipped %d of %d passes, want all but the ~66 before the bitmap drains", s.LoopSkipped, s.LoopIters)
		}
	}, []point{{engine: hot1}})
}
