package cpu

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Flag-fusion soundness tests: the block compiler's liveness pass
// (compileBlock) elides CF/OF/SF/ZF/PF computation for arithmetic whose
// results are provably dead. These tests attack that proof from two sides —
// a property test over random straight-line ALU programs with injected
// observers, boundaries, and traps (TestFusionFlagProperty), and pinned
// liveness-scan expectations on hand-built blocks (TestCompileFusionCounts).

// fusionUnmappedVA is a virtual address no fusion-test harness maps: loads
// from it inject a #PF mid-sequence, which in kernel mode (no FaultEntry)
// stops the run right there — so every mode must agree on the architectural
// flags AT the trap point, not just at the final RET.
const fusionUnmappedVA = 0x50000

// midBlockFusions counts the compiled cmp/test+jcc thunks of c's live blocks
// whose jcc is a side exit rather than the block's last entry.
func midBlockFusions(c *CPU) int {
	n := 0
	for _, p := range c.dc.pages {
		for _, b := range p.blocks {
			for i, ct := range b.comp {
				if int(ct.ni) == i+2 && i+2 < len(b.comp) {
					n++
				}
			}
		}
	}
	return n
}

// genFusionProgram builds one random straight-line ALU program. The bulk is
// reg/imm arithmetic (the fusion candidates); sprinkled in are the events
// whose presence the liveness pass must respect:
//
//   - pushfq+pop: spills %rflags into a register — a mid-block flag read
//     whose value lands in compared architectural state;
//   - jcc over an inc marker: a conditional branch whose direction (and so
//     the marker register's final value) observes the flags. Formation
//     continues past it until it is seen taken, so it is usually a side
//     exit mid-block, and half the time a register compare or arithmetic
//     op right before it fuses with it there;
//   - jmp +0: a plain block boundary (liveness must stop at it);
//   - a load from an unmapped address: an injected trap — flags at the trap
//     instruction's entry become the run's final flags.
func genFusionProgram(rng *rand.Rand) []isa.Instr {
	regs := []isa.Reg{isa.RAX, isa.RBX, isa.RCX, isa.RDX, isa.RSI, isa.RDI, isa.R8, isa.R9}
	rr := func() isa.Reg { return regs[rng.Intn(len(regs))] }
	ri := func() int32 { return int32(rng.Uint32()) }

	var prog []isa.Instr
	n := 5 + rng.Intn(36)
	for i := 0; i < n; i++ {
		switch r := rng.Intn(100); {
		case r < 4:
			// Flag spill: pushfq; pop reg.
			prog = append(prog, isa.Pushfq(), isa.Pop(rr()))
		case r < 8:
			// Conditional skip over an inc marker: reads flags, makes the
			// branch direction architecturally visible, and ends the block.
			marker := isa.Inc(rr())
			mb, err := marker.Encode(nil)
			if err != nil {
				panic(err)
			}
			cc := isa.Cond(rng.Intn(isa.NumCond))
			if rng.Intn(2) == 0 {
				producers := []isa.Instr{isa.CmpRI(rr(), ri()), isa.CmpRR(rr(), rr()), isa.TestRR(rr(), rr()),
					isa.AddRI(rr(), ri()), isa.SubRR(rr(), rr()), isa.Inc(rr()), isa.Dec(rr())}
				prog = append(prog, producers[rng.Intn(len(producers))])
			}
			prog = append(prog, isa.Instr{Op: isa.JCC, CC: cc, Imm: int64(len(mb))}, marker)
		case r < 11:
			// Plain block boundary.
			prog = append(prog, isa.Instr{Op: isa.JMP, Imm: 0})
		case r < 14:
			// Injected trap: #PF mid-sequence (kernel mode: stops the run, so
			// the flags at this point are the compared final flags).
			prog = append(prog, isa.Load(rr(), isa.Mem(isa.NoReg, fusionUnmappedVA)))
		default:
			switch rng.Intn(16) {
			case 0:
				prog = append(prog, isa.AddRI(rr(), ri()))
			case 1:
				prog = append(prog, isa.AddRR(rr(), rr()))
			case 2:
				prog = append(prog, isa.SubRI(rr(), ri()))
			case 3:
				prog = append(prog, isa.SubRR(rr(), rr()))
			case 4:
				prog = append(prog, isa.AndRI(rr(), ri()))
			case 5:
				prog = append(prog, isa.OrRI(rr(), ri()))
			case 6:
				prog = append(prog, isa.XorRR(rr(), rr()))
			case 7:
				prog = append(prog, isa.ShlRI(rr(), uint8(rng.Intn(64))))
			case 8:
				prog = append(prog, isa.ShrRI(rr(), uint8(rng.Intn(64))))
			case 9:
				prog = append(prog, isa.NotR(rr()))
			case 10:
				prog = append(prog, isa.Instr{Op: isa.NEGr, Dst: rr()})
			case 11:
				prog = append(prog, isa.ImulRI(rr(), ri()))
			case 12:
				prog = append(prog, isa.Inc(rr()))
			case 13:
				prog = append(prog, isa.Dec(rr()))
			case 14:
				prog = append(prog, isa.CmpRI(rr(), ri()))
			case 15:
				prog = append(prog, isa.TestRR(rr(), rr()))
			}
		}
	}
	prog = append(prog, isa.Ret())
	return prog
}

// TestFusionFlagProperty is the fused-thunk flag-semantics property test:
// over the fusion rows, random straight-line ALU programs with injected
// flag observers, block boundaries, side exits and traps, run four passes
// a machine (enough to cross the default hotness gate, so the gated engine
// mixes stepped and block-dispatched executions of the same bytes), every
// engine must agree with the uncached stepper on all of the flags at every
// pass boundary and injected trap. The corpus must reach cmp+jcc fusion
// mid-block and side exits taken by compiled blocks (each pass starts from
// other registers, so a branch untaken when its block formed is taken
// later).
func TestFusionFlagProperty(t *testing.T) {
	var fused, sideExits uint64
	var midFused int
	for _, p := range rows("fusion/") {
		sweep(t, p, func(pt point, _ *outcome, c *CPU) {
			if pt.engine == hot1 {
				fused += c.BlockStats().Fused
				sideExits += c.BlockStats().SideExits
				midFused += midBlockFusions(c)
			}
		}, points(space{engines: allEngines, passes: []int{4}, limits: []uint64{2048}}))
	}
	if fused == 0 {
		t.Fatal("property corpus never exercised a fused thunk — generator or liveness pass is broken")
	}
	if midFused == 0 || sideExits == 0 {
		t.Fatalf("property corpus compiled %d mid-block cmp+jcc pairs and took %d side exits, want both", midFused, sideExits)
	}
}

// TestCompileFusionCounts pins the liveness scan itself on hand-built
// blocks: which entries get their flag computation elided and which must
// stay live.
func TestCompileFusionCounts(t *testing.T) {
	cases := []struct {
		name  string
		prog  []isa.Instr
		fused uint64
	}{
		{
			// Three adds all die into the cmp; the cmp feeds the block exit.
			name: "adds-die-into-cmp",
			prog: []isa.Instr{
				isa.AddRI(isa.RAX, 1),
				isa.AddRI(isa.RAX, 2),
				isa.AddRI(isa.RAX, 3),
				isa.CmpRI(isa.RAX, 5),
				isa.Ret(),
			},
			fused: 3,
		},
		{
			// The pushfq reads flags: the add before it must stay live; the
			// add after it dies into the cmp (the pop rebalances the stack
			// for the sentinel ret).
			name: "pushfq-blocks-fusion",
			prog: []isa.Instr{
				isa.AddRI(isa.RAX, 1),
				isa.Pushfq(),
				isa.Pop(isa.RBX),
				isa.AddRI(isa.RAX, 2),
				isa.CmpRI(isa.RAX, 5),
				isa.Ret(),
			},
			fused: 1,
		},
		{
			// A store can abort the block (self-mod resync) right after it
			// executes, and can itself trap: the add before it must stay
			// live even though the cmp later overwrites.
			name: "store-is-observable",
			prog: []isa.Instr{
				isa.AddRI(isa.RAX, 1),
				isa.StoreImm(isa.Mem(isa.NoReg, dcDataVA), 7),
				isa.AddRI(isa.RBX, 2),
				isa.CmpRI(isa.RAX, 5),
				isa.Ret(),
			},
			fused: 1,
		},
		{
			// inc preserves CF — it READS flags, so the sub before it must
			// stay live. The inc's own flag results die into the later cmp,
			// so the inc itself fuses (to a bare increment, skipping both
			// its CF read and its flag writes), as does the add after it.
			name: "inc-dec-read-cf",
			prog: []isa.Instr{
				isa.SubRI(isa.RAX, 1),
				isa.Inc(isa.RBX),
				isa.AddRI(isa.RAX, -2),
				isa.CmpRI(isa.RAX, 5),
				isa.Ret(),
			},
			fused: 2,
		},
		{
			// A conditional branch ends the block reading flags: nothing
			// before it may fuse (the cmp is the reader's input; the add
			// before the cmp dies into the cmp).
			name: "jcc-reads-flags",
			prog: []isa.Instr{
				isa.AddRI(isa.RAX, 1),
				isa.CmpRI(isa.RAX, 5),
				isa.Instr{Op: isa.JCC, CC: isa.CondE, Imm: 0},
				isa.Ret(),
			},
			fused: 1,
		},
		{
			// Block exit (ret) keeps the last writer live.
			name: "exit-keeps-flags-live",
			prog: []isa.Instr{
				isa.AddRI(isa.RAX, 1),
				isa.AddRI(isa.RAX, 2),
				isa.Ret(),
			},
			fused: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := rawCPU(t, mem.PermX, tc.prog...)
			c.SetBlockHotThreshold(1)
			resetRaw(t, c)
			if res := c.Run(1024); res.Trap != nil {
				t.Fatalf("trapped: %v", res.Trap)
			}
			if got := c.BlockStats().Fused; got != tc.fused {
				t.Fatalf("Fused = %d, want %d (stats %+v)", got, tc.fused, c.BlockStats())
			}
			if c.BlockStats().Formed == 0 {
				t.Fatal("no block formed")
			}
		})
	}
}
