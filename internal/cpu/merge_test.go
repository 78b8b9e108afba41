package cpu

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// selectLoopProg is sys_select's fd loop (corpus_sys.go) over nfds
// descriptors: head: cmp rcx,rdi; jae done / mov; and; add; shr; inc; jmp
// head. Every entry is a register op, so the block at head is lean and its
// six entries after the fused cmp+jae run as one merged call. It returns the
// code and head's offset.
func selectLoopProg(nfds int64) ([]byte, uint64) {
	a := &asmProg{refs: map[int]int{}}
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
	a := &asmProg{refs: map[int]int{}}
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

// mergeShape is one TestMergedRuns program: its code, the offset of its
// loop block, whether that block must be lean, and how many of its entries
// run merging folds into multi-entry calls.
type mergeShape struct {
	name   string
	code   []byte
	loop   uint64
	lean   bool
	merged uint64
}

func mergeShapes(t *testing.T) []mergeShape {
	t.Helper()
	var shapes []mergeShape
	add := func(name string, lean bool, merged uint64, code []byte, loop uint64) {
		shapes = append(shapes, mergeShape{name, code, loop, lean, merged})
	}

	code, loop := selectLoopProg(24)
	add("select-loop", true, 6, code, loop)

	// A pure run closed by a side exit that is first taken on pass 7: rax
	// grows by 3 a pass and the ja leaves once it passes 20. The add and
	// the fused cmp+ja merge, and so do the counter's add and the jmp.
	a := &asmProg{refs: map[int]int{}}
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
	add("side-exit-on-pass-7", true, 5, a.encode(), a.labelOff(head))

	// The load walks down from 320 bytes into the data page, 64 a pass, and
	// faults below it on pass 7 — the trap must be charged to the load with
	// the lifted checks in force. Ticks perturb the bytes it reads.
	code, loop = walkingLoadProg(dcDataVA+5*64, -64, 30)
	add("load-walks-off-page", true, 4, code, loop)

	// Not lean: a store.
	a = &asmProg{refs: map[int]int{}}
	head, done = a.label(), a.label()
	a.emit(isa.MovRI(isa.RSI, dcDataVA+8), isa.MovRI(isa.R13, 0))
	a.bind(head)
	a.emit(isa.CmpRI(isa.R13, 12))
	a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondAE}, done)
	a.emit(isa.Store(isa.Mem(isa.RSI, 0), isa.R13), isa.AddRI(isa.RSI, 8), isa.Inc(isa.R13))
	a.branch(isa.Instr{Op: isa.JMP}, head)
	a.bind(done)
	a.emit(isa.Ret())
	add("store-loop", false, 3, a.encode(), a.labelOff(head))

	// Not lean: rdmsr has no thunk, so it runs through exec in place.
	a = &asmProg{refs: map[int]int{}}
	head, done = a.label(), a.label()
	a.emit(isa.MovRI(isa.RCX, 0x10), isa.MovRI(isa.R13, 0), isa.MovRI(isa.RBX, 0))
	a.bind(head)
	a.emit(isa.CmpRI(isa.R13, 12))
	a.branch(isa.Instr{Op: isa.JCC, CC: isa.CondAE}, done)
	a.emit(isa.Instr{Op: isa.RDMSR}, isa.AddRR(isa.RBX, isa.RAX), isa.Inc(isa.R13))
	a.branch(isa.Instr{Op: isa.JMP}, head)
	a.bind(done)
	a.emit(isa.Ret())
	add("interpreted-entry", false, 3, a.encode(), a.labelOff(head))

	// Not lean: a loop that calls its own head stores a return address
	// every pass. The loop sits at the end of the first code page and the
	// stack starts just inside the second, so the third pass's push lands on
	// the loop's own tail: the compiled loop, by then looping inside one
	// dispatch, must notice its page changed. dcStore does not mark the
	// call (a terminator), so only leanBlock's call rule keeps it non-lean.
	loopCode := []isa.Instr{
		isa.SubRI(isa.R12, 1),
		{Op: isa.JCC, CC: isa.CondLE},
		{Op: isa.CALL},
	}
	n := uint64(len(encodeProg(t, loopCode...)))
	loop = mem.PageSize - n
	rips := ripsOf(t, dcCodeVA+loop, loopCode...)
	out := uint64(dcCodeVA + mem.PageSize + 16)
	loopCode[1] = branchTo(t, loopCode[1], rips[1], out)
	loopCode[2] = branchTo(t, loopCode[2], rips[2], rips[0])
	pro := []isa.Instr{
		isa.MovRI(isa.R12, 8),
		isa.MovRI(isa.RSP, dcCodeVA+mem.PageSize+16),
		{Op: isa.JMP},
	}
	pro[2] = branchTo(t, pro[2], ripsOf(t, dcCodeVA, pro...)[2], rips[0])
	code = make([]byte, mem.PageSize+32)
	copy(code, encodeProg(t, pro...))
	copy(code[loop:], encodeProg(t, loopCode...))
	copy(code[out-dcCodeVA:], encodeProg(t, isa.MovRI(isa.RAX, 1), isa.Hlt()))
	add("call-self-loop", false, 0, code, loop)
	return shapes
}

// TestMergedRuns is the directed oracle for run merging and lean self-loops.
// Every shape runs at every Run limit from 1 to one past its length, and
// under a ticker at every stride in that range (with injector-style
// perturbations on even strides), in each block-engine mode, and must match
// the uncached stepper on Instrs, Cycles, RIP, registers, %rflags, the trap
// and the coverage words. At compile level, the loop block's leanness and
// merged-entry count are pinned, and merging must leave every slot outside a
// merged run as the liveness and fusion passes made it.
func TestMergedRuns(t *testing.T) {
	compiled := covModes[2] // compiled(hot=1)
	for _, sh := range mergeShapes(t) {
		t.Run(sh.name, func(t *testing.T) {
			c, _ := newBlockCaseCPU(t, sh.code, 1, compiled)
			_, b := c.blockLookup(dcCodeVA + sh.loop)
			if b == nil {
				t.Fatal("no block forms at the loop head")
			}
			checkMergeInvariants(t, b.ents)
			comp, _, merged := compileBlock(b.ents)
			if lean := leanBlock(b.ents, comp); lean != sh.lean || merged != sh.merged {
				t.Fatalf("loop block: lean=%v merged=%d, want lean=%v merged=%d", lean, merged, sh.lean, sh.merged)
			}

			full := runBlockCase(t, sh.code, 1, covModes[0], 4096, 0, false, nil)
			if full.res.Reason == StopLimit {
				t.Fatalf("reference never finished: %+v", full.res)
			}
			c, _ = newBlockCaseCPU(t, sh.code, 1, compiled)
			c.Run(4096)
			if s := c.BlockStats(); sh.lean && (s.LoopIters == 0 || s.Merged == 0) {
				t.Fatalf("the loop never ran merged passes inside one dispatch: %+v", s)
			}

			for pos := uint64(1); pos <= full.instrs+1; pos++ {
				want := runBlockCase(t, sh.code, 1, covModes[0], pos, 0, false, nil)
				tickWant := runBlockCase(t, sh.code, 1, covModes[0], 4096, pos, pos%2 == 0, nil)
				for _, m := range covModes[2:4] {
					got := runBlockCase(t, sh.code, 1, m, pos, 0, false, nil)
					if d := got.diff(&want); d != "" {
						t.Fatalf("limit %d: %s vs uncached diverge in %s", pos, m.name, d)
					}
					got = runBlockCase(t, sh.code, 1, m, 4096, pos, pos%2 == 0, nil)
					if d := got.diff(&tickWant); d != "" {
						t.Fatalf("tick stride %d: %s vs uncached diverge in %s", pos, m.name, d)
					}
				}
			}
		})
	}

	// The same compile-level invariants over every block the structured
	// oracle programs form.
	rng := rand.New(rand.NewSource(20))
	blocks := 0
	for i := 0; i < 200; i++ {
		c, _ := newBlockCaseCPU(t, genBlockProgram(rng), uint64(i), compiled)
		c.Run(512)
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
	pre, _ := lowerBlock(ents)
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
