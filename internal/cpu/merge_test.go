package cpu

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
)

// selectLoopProg is sys_select's fd loop (corpus_sys.go) over nfds
// descriptors: head: cmp rcx,rdi; jae done / mov; and; add; shr; inc; jmp
// head. Every entry is a register op, so the block at head is lean and its
// six entries after the fused cmp+jae run as one merged call. It returns the
// code and head's offset.
func selectLoopProg(nfds int64) ([]byte, uint64) {
	a := &asmProg{}
	head, done := a.label(), a.label()
	a.emit(isa.MovRI(isa.RDI, nfds), isa.MovRI(isa.R9, 0x5a5a_3c3c_f0f0_9669),
		isa.XorRR(isa.RAX, isa.RAX), isa.XorRR(isa.RCX, isa.RCX))
	a.bind(head)
	a.emit(isa.CmpRR(isa.RCX, isa.RDI))
	a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondAE}, done)
	a.emit(isa.MovRR(isa.R10, isa.R9), isa.AndRI(isa.R10, 1), isa.AddRR(isa.RAX, isa.R10),
		isa.ShrRI(isa.R9, 1), isa.Inc(isa.RCX))
	a.branch(isa.Instr{Op: isa.JMP}, head)
	a.bind(done)
	a.emit(isa.Ret())
	return a.encode(), a.labelOff(head)
}

// walkingLoadProg is a store-free self-loop of at most passes passes that
// loads through %rsi, starting at start and advancing by stride each pass,
// so a pointer that leaves the mapped page faults mid-loop. The block at
// head is lean: the load may trap, but nothing in it stores. It returns the
// code and head's offset.
func walkingLoadProg(start uint64, stride, passes int32) ([]byte, uint64) {
	a := &asmProg{}
	head, done := a.label(), a.label()
	a.emit(isa.MovRI(isa.RSI, int64(start)), isa.MovRI(isa.R15, int64(stride)),
		isa.MovRI(isa.R13, 0), isa.MovRI(isa.RBX, 0))
	a.bind(head)
	a.emit(isa.CmpRI(isa.R13, passes))
	a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondAE}, done)
	a.emit(isa.Load(isa.RAX, isa.Mem(isa.RSI, 0)), isa.AddRR(isa.RBX, isa.RAX),
		isa.AddRR(isa.RSI, isa.R15), isa.Inc(isa.R13))
	a.branch(isa.Instr{Op: isa.JMP}, head)
	a.bind(done)
	a.emit(isa.Ret())
	return a.encode(), a.labelOff(head)
}

// csumProg returns kernel csum_partial's loop as a program: %rax sums
// passes eight-word blocks from start, eight unrolled add %rax,8k(%rdi)
// a pass, which form one summing load group.
func csumProg(start uint64, passes int32) []byte {
	a := &asmProg{}
	head, done := a.label(), a.label()
	a.emit(isa.MovRI(isa.RDI, int64(start)), isa.MovRI(isa.RSI, int64(passes)*8),
		isa.XorRR(isa.RAX, isa.RAX), isa.XorRR(isa.RCX, isa.RCX))
	a.bind(head)
	a.emit(isa.CmpRR(isa.RCX, isa.RSI))
	a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondAE}, done)
	for q := int32(0); q < 8; q++ {
		a.emit(isa.Instr{Op: isa.ADDrm, Dst: isa.RAX, M: isa.Mem(isa.RDI, q*8)})
	}
	a.emit(isa.AddRI(isa.RDI, 64), isa.AddRI(isa.RCX, 8))
	a.branch(isa.Instr{Op: isa.JMP}, head)
	a.bind(done)
	a.emit(isa.Ret())
	return a.encode()
}

// TestMergedRuns is the directed oracle for run merging and lean
// self-loops. Every merge row runs at every Run limit from 1 to one past
// its length, and under a ticker at every stride in that range (with
// injector-style perturbations on even strides), in each compiled engine,
// against the uncached stepper; at hot 1 with the full budget the lean rows
// must loop inside a dispatch on merged calls. At compile level, the loop
// block's leanness and merged-entry count are pinned, and merging must
// leave every slot outside a merged run as the liveness and fusion passes
// made it.
func TestMergedRuns(t *testing.T) {
	want := map[string]struct {
		lean   bool
		merged uint64
	}{
		"merge/select-loop": {true, 6}, "merge/side-exit-on-pass-7": {true, 5}, "merge/load-walks-off-page": {true, 4},
		"merge/store-loop": {false, 3}, "merge/interpreted-entry": {false, 3}, "merge/call-self-loop": {false, 2},
	}
	for _, p := range rows("merge/") {
		t.Run(strings.TrimPrefix(p.name, "merge/"), func(t *testing.T) {
			_, b := newMachine(t, p, hot1).blockLookup(dcCodeVA + p.loop)
			if b == nil {
				t.Fatal("no block forms at the loop head")
			}
			checkMergeInvariants(t, b.ents)
			comp, _, merged := compileBlock(b.ents)
			if w := want[p.name]; leanBlock(b.ents, comp) != w.lean || merged != w.merged {
				t.Fatalf("loop block: lean=%v merged=%d, want %+v", leanBlock(b.ents, comp), merged, w)
			}

			full, _ := runPoint(t, p, point{limit: 4096}, nil)
			if full.passes[0].Stop == StopLimit {
				t.Fatalf("reference never finished: %+v", full.passes[0])
			}
			at := point{engine: hot1, limit: 4096}
			sweep(t, p, func(pt point, _ *outcome, c *CPU) {
				if pt == at {
					must(t, p.name, c, p.reach)
				}
			}, append(ladder(blockEngines, false, upTo(full.passes[0].Instrs+1), 4096), at))
		})
	}

	// The same compile-level invariants over every block the structured
	// oracle programs form.
	rng := rand.New(rand.NewSource(20))
	blocks := 0
	for i := 0; i < 200; i++ {
		p := &program{name: fmt.Sprintf("generated/%d", i), code: genBlockProgram(rng), seed: uint64(i)}
		_, c := runPoint(t, p, point{engine: hot1, limit: 512}, nil)
		for _, p := range c.dc.pages {
			for j := range p.blocks {
				checkMergeInvariants(t, p.blocks[j].ents)
				blocks++
			}
		}
	}
	if blocks < 200 {
		t.Fatalf("the generated programs formed only %d blocks", blocks)
	}
}

// checkMergeInvariants compiles ents with and without run merging and
// checks, over the slots the dispatch loop visits, that every slot outside
// a merged run keeps its cyc, ni and flags; that each merged run is two or
// more trap-free, store-free slots with only its last one dcEnd, and carries
// that last slot's cyc, ni and flags; and that runs are maximal.
func checkMergeInvariants(t *testing.T, ents []blkEnt) {
	t.Helper()
	pre, _, _ := lowerBlock(ents)
	post := slices.Clone(pre)
	mergeRuns(post)
	ok := func(i int) bool {
		return i < len(pre) && pre[i].fn != nil && pre[i].flags&(dcTrap|dcStore) == 0
	}
	// open: the previous visited slot qualified and did not close its run,
	// so the slot after it must not qualify (or it should have merged).
	open := false
	for i := 0; i < len(post); i = int(post[i].ni) {
		if post[i].ni == pre[i].ni {
			if post[i].cyc != pre[i].cyc || post[i].flags != pre[i].flags {
				t.Fatalf("slot %d outside any merged run changed: %+v -> %+v", i, pre[i], post[i])
			}
			if open && ok(i) {
				t.Fatalf("slot %d could have joined the run before it", i)
			}
			open = ok(i) && pre[i].flags&dcEnd == 0
			continue
		}
		if open {
			t.Fatalf("merged run at slot %d could have started earlier", i)
		}
		slots, end := 0, i
		for k := i; ; k = int(pre[k].ni) {
			if !ok(k) {
				t.Fatalf("merged run at slot %d takes in slot %d, which may trap or store", i, k)
			}
			slots++
			if pre[k].ni == post[i].ni {
				end = k
				break
			}
			if pre[k].flags&dcEnd != 0 {
				t.Fatalf("merged run at slot %d runs past the exit at slot %d", i, k)
			}
		}
		if slots < 2 {
			t.Fatalf("merged run at slot %d has %d slot", i, slots)
		}
		if l := pre[end]; post[i].cyc != l.cyc || post[i].flags != l.flags {
			t.Fatalf("merged run at slot %d carries %+v, want its last slot's %+v", i, post[i], l)
		}
		open = pre[end].flags&dcEnd == 0 && ok(int(post[i].ni))
		if open {
			t.Fatalf("merged run at slot %d stops before slot %d, which qualifies", i, post[i].ni)
		}
	}
}
