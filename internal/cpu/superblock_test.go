package cpu

import (
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// ripsOf returns the address of each instruction of prog laid out at va.
// Branch displacements do not change an encoding's length, so the result
// holds before and after branchTo patches them.
func ripsOf(va uint64, prog ...isa.Instr) []uint64 {
	rips := make([]uint64, len(prog))
	for i, in := range prog {
		rips[i] = va
		va += uint64(len(mustEncode(in)))
	}
	return rips
}

// branchTo returns the rel32 branch in, encoded at va, retargeted at target.
func branchTo(in isa.Instr, va, target uint64) isa.Instr {
	in.Imm = int64(target - va - uint64(len(mustEncode(in))))
	return in
}

// TestSuperblockFormation pins formBlock's rules: which instructions a block
// entered at the start of a program takes in, and where it stops.
func TestSuperblockFormation(t *testing.T) {
	nops := func(n int) []isa.Instr {
		out := make([]isa.Instr, n)
		for i := range out {
			out[i] = isa.Nop()
		}
		return out
	}
	cmpJne := func(t *testing.T) []isa.Instr {
		// cmp rax,rax sets ZF, so the jne is not taken.
		prog := []isa.Instr{isa.MovRI(isa.RAX, 1), isa.CmpRR(isa.RAX, isa.RAX),
			{Op: isa.JCC, CC: isa.CondNE}, isa.MovRI(isa.RBX, 2), isa.Ret()}
		rips := ripsOf(dcCodeVA, prog...)
		prog[2] = branchTo(prog[2], rips[2], rips[4])
		return prog
	}
	tail := mem.PageSize - 5 // a 10-byte mov here straddles into page 1
	cases := []struct {
		name string
		at   uint64 // program address and block entry
		prog func(t *testing.T) []isa.Instr
		raw  []byte          // bytes placed right after prog
		prep func(p *dcPage) // runs before formation
		want []int           // indices into prog of the block's entries
		post func(*testing.T, *dcPage)
	}{
		{
			name: "follows-same-page-jmp",
			at:   dcCodeVA,
			prog: func(t *testing.T) []isa.Instr {
				prog := []isa.Instr{isa.MovRI(isa.RAX, 1), {Op: isa.JMP}, isa.Nop(), isa.MovRI(isa.RBX, 2), isa.Ret()}
				rips := ripsOf(dcCodeVA, prog...)
				prog[1] = branchTo(prog[1], rips[1], rips[3])
				return prog
			},
			want: []int{0, 1, 3, 4},
			post: func(t *testing.T, p *dcPage) {
				// The nop after the 10-byte mov and the 5-byte jmp.
				if p.idx[15] != 0 {
					t.Error("the skipped nop was decoded")
				}
			},
		},
		{
			name: "continues-past-never-taken-jcc",
			at:   dcCodeVA,
			prog: cmpJne,
			want: []int{0, 1, 2, 3, 4},
		},
		{
			name: "stops-at-seen-taken-jcc",
			at:   dcCodeVA,
			prog: cmpJne,
			prep: func(p *dcPage) { p.markTaken(10 + 3) }, // after the 10-byte mov and 3-byte cmp
			want: []int{0, 1, 2},
		},
		{
			name: "stops-at-cross-page-jmp",
			at:   dcCodeVA,
			prog: func(t *testing.T) []isa.Instr {
				prog := []isa.Instr{isa.MovRI(isa.RAX, 1), {Op: isa.JMP}, isa.Nop()}
				prog[1] = branchTo(prog[1], ripsOf(dcCodeVA, prog...)[1], dcCodeVA+mem.PageSize)
				return prog
			},
			want: []int{0, 1},
			post: func(t *testing.T, p *dcPage) {
				// fill stops at the terminator: the nop after it is never decoded.
				if n := len(p.entries); n != 2 {
					t.Errorf("decoded %d entries, want the 2 formation reached", n)
				}
			},
		},
		{
			name: "stops-at-offset-in-block",
			at:   dcCodeVA,
			prog: func(t *testing.T) []isa.Instr {
				prog := []isa.Instr{isa.MovRI(isa.RAX, 1), isa.AddRI(isa.RAX, 1), {Op: isa.JMP}}
				rips := ripsOf(dcCodeVA, prog...)
				prog[2] = branchTo(prog[2], rips[2], rips[1])
				return prog
			},
			want: []int{0, 1, 2},
		},
		{
			name: "stops-at-64-entry-cap",
			at:   dcCodeVA,
			prog: func(*testing.T) []isa.Instr { return append(nops(maxBlockEnts+6), isa.Ret()) },
			want: func() []int {
				var w []int
				for i := 0; i < maxBlockEnts; i++ {
					w = append(w, i)
				}
				return w
			}(),
		},
		{
			name: "stops-at-page-tail-straddler",
			at:   dcCodeVA + uint64(tail) - 3,
			prog: func(*testing.T) []isa.Instr { return append(nops(3), isa.MovRI(isa.RAX, 1)) },
			want: []int{0, 1, 2},
			post: func(t *testing.T, p *dcPage) {
				if p.idx[tail] != 0 {
					t.Errorf("straddler at %#x cached as %d, want undecided", tail, p.idx[tail])
				}
			},
		},
		{
			name: "stops-at-cached-ud",
			at:   dcCodeVA,
			prog: func(*testing.T) []isa.Instr { return []isa.Instr{isa.MovRI(isa.RAX, 1)} },
			raw:  []byte{undefinedOpcode()},
			want: []int{0},
			post: func(t *testing.T, p *dcPage) {
				if p.idx[10] != -1 {
					t.Errorf("undefined opcode cached as %d, want -1", p.idx[10])
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := tc.prog(t)
			c := rawCPU(t, mem.PermRWX)
			if err := c.AS.Poke(tc.at, mustEncode(prog...)); err != nil {
				t.Fatal(err)
			}
			if len(tc.raw) > 0 {
				if err := c.AS.Poke(tc.at+uint64(len(mustEncode(prog...))), tc.raw); err != nil {
					t.Fatal(err)
				}
			}
			p := c.dc.resolvePage(c.AS, tc.at)
			if tc.prep != nil {
				tc.prep(p)
			}
			bi := p.formBlock(tc.at, c)
			if bi <= 0 {
				t.Fatalf("no block formed: %d", bi)
			}
			b := &p.blocks[bi-1]
			rips := ripsOf(tc.at, prog...)
			var want, got []uint64
			for _, i := range tc.want {
				want = append(want, rips[i])
			}
			for _, e := range b.ents {
				got = append(got, e.rip)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("block entries at %#x, want %#x", got, want)
			}
			if b.count != uint64(len(b.ents)) {
				t.Fatalf("count %d for %d entries", b.count, len(b.ents))
			}
			if tc.post != nil {
				tc.post(t, p)
			}
		})
	}
}

// TestSuperblockFullPage fills a page with one-byte NOPs and forms a block at
// every offset: the page then holds the most decode entries and blocks it
// can, and both int16 index arrays must address all of them.
func TestSuperblockFullPage(t *testing.T) {
	c := rawCPU(t, mem.PermRWX)
	code := make([]byte, mem.PageSize)
	for i := range code {
		code[i] = byte(isa.NOP)
	}
	if err := c.AS.Poke(dcCodeVA, code); err != nil {
		t.Fatal(err)
	}
	p := c.dc.resolvePage(c.AS, dcCodeVA)
	for off := 0; off < mem.PageSize; off++ {
		if bi := p.formBlock(dcCodeVA+uint64(off), c); int(bi) != off+1 {
			t.Fatalf("block at offset %d got index %d, want %d", off, bi, off+1)
		}
		b := &p.blocks[off]
		if want := min(maxBlockEnts, mem.PageSize-off); len(b.ents) != want || b.ents[0].rip != dcCodeVA+uint64(off) {
			t.Fatalf("block at offset %d: %d entries from %#x, want %d from the offset", off, len(b.ents), b.ents[0].rip, want)
		}
	}
	if len(p.entries) != mem.PageSize || len(p.blocks) != mem.PageSize {
		t.Fatalf("%d entries and %d blocks, want %d of each", len(p.entries), len(p.blocks), mem.PageSize)
	}
	last := mem.PageSize - 1
	if int(p.idx[last]) != mem.PageSize || int(p.blkIdx[last]) != mem.PageSize {
		t.Fatalf("last offset indexes entry %d and block %d, want %d", p.idx[last], p.blkIdx[last], mem.PageSize)
	}
	// The blocks run: the page's 4,096 NOPs in 64-entry blocks, stopped by
	// the limit before page 1.
	c.SetBlockHotThreshold(1)
	if res := c.Run(mem.PageSize); res.Reason != StopLimit || res.Instrs != mem.PageSize {
		t.Fatalf("run over the NOP page: %+v", res)
	}
}

// TestSuperblockSelfLoop: an IR-shaped loop runs as one block that loops
// inside its dispatch and leaves through its side exit, with the uncached
// stepper's exact state at every Run limit, so a limit that cuts the
// passes short lands on the same instruction.
func TestSuperblockSelfLoop(t *testing.T) {
	p := row(t, "superblock/self-loop")
	ref, c := runPoint(t, p, point{limit: 1000}, nil)
	if c.Reg(isa.RAX) != 49*50/2 {
		t.Fatalf("reference sum %d", c.Reg(isa.RAX))
	}
	full := point{engine: hot1, limit: 1000}
	sweep(t, p, func(pt point, _ *outcome, c *CPU) {
		if s := c.BlockStats(); pt == full && (s.LoopIters < 40 || s.SideExits != 1 || s.Dispatches > 6 || s.Instrs != c.Instrs) {
			t.Fatalf("the loop must run as one self-looping block and leave by its side exit: %+v", s)
		}
	}, append(points(space{engines: blockEngines, limits: upTo(ref.passes[0].Instrs + 1)}), full))
}

// TestSuperblockSelfLoopStoresOwnPage: a self-loop whose last entry is a
// store walks its target onto the block's own page, where it rewrites the
// immediate of the loop's sub. The block is looping inside one dispatch by
// then; it must notice its page changed before running another pass, so
// the next pass subtracts the new immediate.
func TestSuperblockSelfLoopStoresOwnPage(t *testing.T) {
	p := row(t, "superblock/stores-own-page")
	sweep(t, p, func(pt point, o *outcome, c *CPU) {
		// Passes 1-6 subtract 1 (20 -> 14), pass 6's store patches the sub,
		// and pass 7 subtracts 2 before its store faults below the code.
		if rcx := o.passes[0].Regs[isa.RCX]; rcx != 12 {
			t.Fatalf("rcx = %d, want 12", rcx)
		}
		// Under hot=1 pass 1 runs inside the setup block, which jumps into
		// the loop; the loop's block forms on its first dispatch (pass 2)
		// and loops through passes 3-6 before the patch stops it.
		if s := c.BlockStats(); pt.engine == hot1 && s.LoopIters != 4 {
			t.Fatalf("the store loop never looped inside a dispatch: %+v", s)
		}
	}, points(space{engines: blockEngines, limits: []uint64{1000}}))
}
