package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// jmpOver returns a raw rip-relative JMP skipping the given instructions
// (isa.Jmp takes a label and cannot Encode; raw Imm displacements can).
func jmpOver(t *testing.T, skip ...isa.Instr) isa.Instr {
	t.Helper()
	return isa.Instr{Op: isa.JMP, Imm: int64(len(encodeProg(t, skip...)))}
}

// TestBlockHotnessGate pins the formation gate: with the default threshold,
// the first threshold-1 passes over an entry point single-step (deferring
// formation cost that one-shot code never amortizes), and the threshold-th
// pass forms and dispatches the block. Results are identical throughout.
func TestBlockHotnessGate(t *testing.T) {
	c := rawCPU(t, mem.PermX,
		isa.MovRI(isa.RAX, 5),
		isa.AddRI(isa.RAX, 7),
		isa.Ret(),
	)
	const offsets = 3 // every instruction start is a dispatch point while cold
	for i := 1; i < DefaultBlockHotThreshold; i++ {
		mustReturn(t, c, 100)
		if got := c.Reg(isa.RAX); got != 12 {
			t.Fatalf("pass %d: rax = %d, want 12", i, got)
		}
		s := c.BlockStats()
		if s.Formed != 0 || s.Dispatches != 0 || s.Instrs != 0 {
			t.Fatalf("pass %d must stay cold: %+v", i, s)
		}
		if want := uint64(i * offsets); s.Cold != want {
			t.Fatalf("pass %d: Cold = %d, want %d", i, s.Cold, want)
		}
		resetRaw(t, c)
	}
	mustReturn(t, c, 100)
	if got := c.Reg(isa.RAX); got != 12 {
		t.Fatalf("hot pass: rax = %d, want 12", got)
	}
	s := c.BlockStats()
	if s.Formed != 1 || s.Dispatches != 1 || s.Instrs != 3 || s.Blocks != 1 {
		t.Fatalf("threshold-th pass must form and dispatch one block: %+v", s)
	}
}

// TestBlockChainStraightLine pins block shapes and both successor slots. A
// taken JMP over dead code followed by a not-taken JCC is now one superblock
// (the JMP is followed, the JCC becomes a side exit), so that program runs in
// one dispatch with no chaining. The link assertions move to a program whose
// edges cannot merge — a call, a ret, cross-page jumps, and a JCC whose
// fallthrough is on the next page: the first pass resolves the taken and
// fallthrough links lazily, the second follows them from the cache with no
// severs and no re-formation, and every instruction still dispatches through
// blocks at single-step-identical results.
func TestBlockChainStraightLine(t *testing.T) {
	dead := isa.Nop()
	merged := []isa.Instr{
		isa.MovRI(isa.RAX, 5),
		jmpOver(t, dead),
		dead,
		// ADD leaves rax=12 (ZF clear), so the JCC falls through.
		isa.AddRI(isa.RAX, 7),
		{Op: isa.JCC, CC: isa.CondE, Imm: 0},
		isa.MovRI(isa.RBX, 3),
		isa.Ret(),
	}
	c := rawCPU(t, mem.PermX, merged...)
	c.SetBlockHotThreshold(1)
	mustReturn(t, c, 100)
	if s := c.BlockStats(); s.Formed != 1 || s.Dispatches != 1 || s.Chained != 0 || s.Instrs != c.Instrs {
		t.Fatalf("jmp + not-taken jcc must form one block run in one dispatch: %+v", s)
	}

	// Page 0:  A: mov rax,5; call S        (taken: call)
	//          R: add rax,7; jmp Q          (taken: cross-page jmp)
	//          S: mov rbx,3; ret            (taken: ret)
	//          J: cmp rax,0; je Q           (last bytes of page 0; falls
	//                                        through to page 1: fallthrough)
	// Page 1:  C: mov rcx,1; ret            (the sentinel return)
	//          Q: sub rax,2; jmp J          (taken: cross-page jmp)
	const page1 uint64 = dcCodeVA + mem.PageSize
	q := page1 + 0x40
	jcc := isa.Instr{Op: isa.JCC, CC: isa.CondE}
	jAt := page1 - uint64(len(encodeProg(t, isa.CmpRI(isa.RAX, 0), jcc)))
	a := []isa.Instr{isa.MovRI(isa.RAX, 5), {Op: isa.CALL}, isa.AddRI(isa.RAX, 7), {Op: isa.JMP}, isa.MovRI(isa.RBX, 3), isa.Ret()}
	rips := ripsOf(t, dcCodeVA, a...)
	a[1] = branchTo(t, a[1], rips[1], rips[4])
	a[3] = branchTo(t, a[3], rips[3], q)
	j := []isa.Instr{isa.CmpRI(isa.RAX, 0), jcc}
	j[1] = branchTo(t, jcc, ripsOf(t, jAt, j...)[1], q)
	qp := []isa.Instr{isa.SubRI(isa.RAX, 2), {Op: isa.JMP}}
	qp[1] = branchTo(t, qp[1], ripsOf(t, q, qp...)[1], jAt)
	build := func() *CPU {
		c := rawCPU(t, mem.PermX, a...)
		pokeProg(t, c, jAt, j...)
		pokeProg(t, c, page1, isa.MovRI(isa.RCX, 1), isa.Ret())
		pokeProg(t, c, q, qp...)
		return c
	}

	ref := build()
	ref.SetBlockEngine(false)
	refRes := mustReturn(t, ref, 100)

	c = build()
	c.SetBlockHotThreshold(1)
	res1 := mustReturn(t, c, 100)
	s1 := c.BlockStats()
	// A, S, R, Q, J, C: six blocks, five chained edges.
	if s1.Formed != 6 || s1.Dispatches != 6 || s1.Chained != 5 || s1.Severed != 0 {
		t.Fatalf("first pass must chain A->S->R->Q->J->C: %+v", s1)
	}
	blockAt := func(va uint64) *dcBlock {
		t.Helper()
		p := c.dc.pages[va&^uint64(mem.PageMask)]
		bi := p.blkIdx[va&uint64(mem.PageMask)]
		if bi <= 0 {
			t.Fatalf("no block at %#x", va)
		}
		return &p.blocks[bi-1]
	}
	for _, e := range []struct {
		name string
		l    *blkLink
		to   uint64
	}{
		{"A taken (call)", &blockAt(dcCodeVA).taken, rips[4]},
		{"S taken (ret)", &blockAt(rips[4]).taken, rips[2]},
		{"R taken (cross-page jmp)", &blockAt(rips[2]).taken, q},
		{"Q taken (cross-page jmp)", &blockAt(q).taken, jAt},
		{"J fallthrough (next page)", &blockAt(jAt).fall, page1},
	} {
		if e.l.p == nil || e.l.rip != e.to {
			t.Errorf("%s: link %+v, want one resolved to %#x", e.name, *e.l, e.to)
		}
	}
	if l := blockAt(jAt).taken; l.p != nil {
		t.Errorf("J's taken link resolved, but its branch was never taken: %+v", l)
	}

	resetRaw(t, c)
	res2 := mustReturn(t, c, 100)
	s2 := c.BlockStats()
	if s2.Chained != 10 || s2.Severed != 0 || s2.Formed != s1.Formed {
		t.Fatalf("second pass must follow cached links without re-forming: %+v", s2)
	}
	if s2.Instrs != c.Instrs {
		t.Fatalf("all %d instructions should dispatch via blocks, got %d", c.Instrs, s2.Instrs)
	}
	if c.Regs != ref.Regs {
		t.Fatalf("chained run diverged: regs %x, want %x", c.Regs, ref.Regs)
	}
	for _, res := range []*RunResult{res1, res2} {
		if res.Instrs != refRes.Instrs || res.Cycles != refRes.Cycles {
			t.Fatalf("counters diverge: %+v vs reference %+v", res, refRes)
		}
	}
}

// TestBlockChainStaleSuccessor is the chain-invalidation gate: a chained
// successor's frame is overwritten between dispatches. The predecessor's
// page is untouched, so its block (and the cached link inside it) survives —
// following the link must fail the frame-generation check, sever, and
// re-resolve through the full lookup, executing the NEW bytes.
func TestBlockChainStaleSuccessor(t *testing.T) {
	const succVA = dcCodeVA + mem.PageSize
	c := rawCPU(t, mem.PermRWX,
		isa.MovRI(isa.RCX, succVA),
		isa.Instr{Op: isa.JMPR, Dst: isa.RCX},
	)
	c.SetBlockHotThreshold(1)
	install := func(imm int64) {
		t.Helper()
		if err := c.AS.Poke(succVA, encodeProg(t, isa.MovRI(isa.RAX, imm), isa.Ret())); err != nil {
			t.Fatal(err)
		}
	}

	install(1)
	mustReturn(t, c, 100)
	if got := c.Reg(isa.RAX); got != 1 {
		t.Fatalf("first pass: rax = %d, want 1", got)
	}
	s1 := c.BlockStats()
	if s1.Chained == 0 || s1.Severed != 0 {
		t.Fatalf("first pass must chain into the successor: %+v", s1)
	}

	install(42) // bumps only the successor frame's generation
	resetRaw(t, c)
	mustReturn(t, c, 100)
	if got := c.Reg(isa.RAX); got != 42 {
		t.Fatalf("chain executed stale successor code: rax = %d, want 42", got)
	}
	s2 := c.BlockStats()
	if s2.Severed != 1 {
		t.Fatalf("stale link must sever exactly once: %+v", s2)
	}
	if s2.Formed != s1.Formed+1 {
		t.Fatalf("severed successor must re-form once: %+v after %+v", s2, s1)
	}
}

// TestBlockChainLimit: chaining must respect the Run instruction budget
// exactly — a chained successor larger than the remaining budget breaks the
// chain, and the dispatcher finishes by single-stepping to the precise
// limit, resumable with single-run-identical totals.
func TestBlockChainLimit(t *testing.T) {
	dead := isa.Nop()
	c := rawCPU(t, mem.PermX,
		// Block A: 2 instructions.
		isa.MovRI(isa.RAX, 1),
		jmpOver(t, dead),
		dead,
		// Block B: 3 instructions — larger than the post-A budget below.
		isa.MovRI(isa.RBX, 2),
		isa.MovRI(isa.RCX, 3),
		isa.Ret(),
	)
	c.SetBlockHotThreshold(1)
	res := c.Run(3)
	if res.Reason != StopLimit || res.Instrs != 3 {
		t.Fatalf("limit run: %+v", res)
	}
	if c.Reg(isa.RBX) != 2 || c.Reg(isa.RCX) == 3 {
		t.Fatalf("limit stopped at the wrong instruction: rbx=%d rcx=%d",
			c.Reg(isa.RBX), c.Reg(isa.RCX))
	}
	res2 := mustReturn(t, c, 100)
	if res.Instrs+res2.Instrs != 5 {
		t.Fatalf("resume: %+v after %+v", res2, res)
	}
}

// TestBlockStatsConsistency pins the satellite-audit semantics: the
// cumulative counters (everything but Blocks) are monotone and survive page
// flushes, SetBlockEngine toggles, and SetDecodeCache toggles; Blocks is a
// live recount that drops to zero whenever the formed blocks die (flush,
// disable) and comes back only by re-forming. Formation compiles: every
// block ever formed was compiled, and every live block carries one thunk
// slot per entry.
func TestBlockStatsConsistency(t *testing.T) {
	prog := []isa.Instr{
		isa.MovRI(isa.RAX, 5),
		isa.AddRI(isa.RAX, 7),
		isa.Ret(),
	}
	c := rawCPU(t, mem.PermRWX, prog...)
	c.SetBlockHotThreshold(1)

	cumulative := func(s BlockStats) BlockStats { s.Blocks = 0; return s }
	mono := func(step string, prev, cur BlockStats) {
		t.Helper()
		p, q := cumulative(prev), cumulative(cur)
		if q.Formed < p.Formed || q.Dispatches < p.Dispatches || q.Instrs < p.Instrs ||
			q.Aborts < p.Aborts || q.Chained < p.Chained || q.Severed < p.Severed ||
			q.Cold < p.Cold {
			t.Fatalf("%s: cumulative counters went backwards: %+v -> %+v", step, prev, cur)
		}
	}

	mustReturn(t, c, 100)
	s1 := c.BlockStats()
	if s1.Blocks == 0 || s1.Formed == 0 {
		t.Fatalf("warm run must form blocks: %+v", s1)
	}

	// A frame rewrite kills the formed blocks (live count) but no history.
	if err := c.AS.Poke(dcCodeVA, encodeProg(t, prog...)); err != nil {
		t.Fatal(err)
	}
	s2 := c.BlockStats()
	mono("poke", s1, s2)
	if s2.Blocks != 0 {
		t.Fatalf("stale blocks must not count as live: %+v", s2)
	}
	if cumulative(s2) != cumulative(s1) {
		t.Fatalf("a flush must not touch cumulative counters: %+v -> %+v", s1, s2)
	}

	// Re-running re-forms over the new bytes.
	resetRaw(t, c)
	mustReturn(t, c, 100)
	s3 := c.BlockStats()
	mono("re-form", s2, s3)
	if s3.Blocks == 0 || s3.Formed != s1.Formed+1 {
		t.Fatalf("rewritten page must re-form exactly once: %+v", s3)
	}

	// Engine toggle: live blocks drop, history survives, re-enable re-forms.
	c.SetBlockEngine(false)
	s4 := c.BlockStats()
	mono("disable", s3, s4)
	if s4.Blocks != 0 || cumulative(s4) != cumulative(s3) {
		t.Fatalf("disable must only drop live blocks: %+v", s4)
	}
	c.SetBlockEngine(true)
	resetRaw(t, c)
	mustReturn(t, c, 100)
	s5 := c.BlockStats()
	mono("re-enable", s4, s5)
	if s5.Blocks == 0 || s5.Formed <= s4.Formed {
		t.Fatalf("re-enabled engine must re-form: %+v", s5)
	}

	// Cache toggle: same story, and the heat counters restart from cold.
	c.SetDecodeCache(false)
	s6 := c.BlockStats()
	mono("cache off", s5, s6)
	if s6.Blocks != 0 || cumulative(s6) != cumulative(s5) {
		t.Fatalf("cache off must only drop live blocks: %+v", s6)
	}
	c.SetDecodeCache(true)
	resetRaw(t, c)
	mustReturn(t, c, 100)
	s7 := c.BlockStats()
	mono("cache on", s6, s7)
	if s7.Blocks == 0 {
		t.Fatalf("fresh cache must re-form on the next run: %+v", s7)
	}

	// At the default threshold, from cold heat (a fresh cache), the entry
	// forms on its DefaultBlockHotThreshold'th run and is compiled then.
	c.SetDecodeCache(false)
	c.SetDecodeCache(true)
	c.SetBlockHotThreshold(0)
	for run := 0; run < DefaultBlockHotThreshold; run++ {
		resetRaw(t, c)
		mustReturn(t, c, 100)
	}
	s8 := c.BlockStats()
	mono("default threshold", s7, s8)
	if s8.Formed <= s7.Formed || s8.Blocks == 0 || s8.Compiled != s8.Formed {
		t.Fatalf("every formed block must be compiled: %+v", s8)
	}
	for _, p := range c.dc.pages {
		for i := range p.blocks {
			if b := &p.blocks[i]; len(b.comp) != len(b.ents) {
				t.Fatalf("block at %#x: %d thunk slots for %d entries", b.ents[0].rip, len(b.comp), len(b.ents))
			}
		}
	}
}

// TestBlockHotThresholdClamp pins the setter's edge cases.
func TestBlockHotThresholdClamp(t *testing.T) {
	c := New(mem.NewAddressSpace())
	for _, tc := range []struct{ in, want int }{
		{0, DefaultBlockHotThreshold},
		{-5, DefaultBlockHotThreshold},
		{1, 1},
		{255, 255},
		{1000, 255},
	} {
		c.SetBlockHotThreshold(tc.in)
		if got := c.BlockHotThreshold(); got != tc.want {
			t.Errorf("SetBlockHotThreshold(%d): got %d, want %d", tc.in, got, tc.want)
		}
	}
}
