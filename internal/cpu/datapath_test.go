package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// TestUpperHalfThroughSpecializedThunks: a user-mode access to the upper
// half through every specialized data-path thunk, and through a load
// group, traps TrapProtection at the access's own RIP and counts no data-
// TLB hit, although the kernel has the page in the data TLB; the same
// thunks in kernel mode take the hit.
func TestUpperHalfThroughSpecializedThunks(t *testing.T) {
	const page = UpperHalf + 0x1000
	as := mem.NewAddressSpace()
	if _, err := as.Map(page, 1, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	c := New(as)
	c.Mode = Kernel
	if _, trap := c.load(page, 8); trap != nil {
		t.Fatal(trap) // fills the data TLB slot
	}
	m := isa.Mem(isa.RBX, 8)
	ins := []isa.Instr{
		{Op: isa.MOVrm, Dst: isa.RAX, M: m, Size: 1},
		{Op: isa.MOVrm, Dst: isa.RAX, M: m, Size: 2},
		{Op: isa.MOVrm, Dst: isa.RAX, M: m, Size: 4},
		{Op: isa.MOVrm, Dst: isa.RAX, M: m},
		{Op: isa.ADDrm, Dst: isa.RAX, M: m},
		{Op: isa.SUBrm, Dst: isa.RAX, M: m},
		{Op: isa.XORrm, Dst: isa.RAX, M: m},
		{Op: isa.CMPrm, Dst: isa.RAX, M: m},
		{Op: isa.CMPmi, M: m, Imm: 3},
		{Op: isa.MOVmr, Dst: isa.RAX, M: m},
		{Op: isa.MOVmi, M: m, Imm: 3},
		isa.Push(isa.RAX), isa.Pop(isa.RAX), isa.Ret(),
		{Op: isa.CALL, Imm: 16},
	}
	const rip = 0x400000
	run := func(fn thunk, mode Mode) (StopReason, *Trap) {
		c.Mode, c.RIP = mode, rip
		c.Regs[isa.RBX], c.Regs[isa.RSP] = page, page+0x800
		return fn(c)
	}
	for _, in := range ins {
		for _, dead := range []bool{false, true} {
			fn, _ := compileEnt(&in, rip+8, dead)
			if fn == nil {
				t.Fatalf("%v: no specialized thunk", in.Op)
			}
			before := as.DataTLBStats()
			_, trap := run(fn, User)
			if trap == nil || trap.Kind != TrapProtection || trap.RIP != rip || trap.Mode != User {
				t.Fatalf("%v (dead=%v) in user mode: trap %+v, want a protection trap at %#x", in.Op, dead, trap, rip)
			}
			if s := as.DataTLBStats(); s != before {
				t.Fatalf("%v (dead=%v) in user mode moved the data TLB counters: %+v -> %+v", in.Op, dead, before, s)
			}
			if _, trap := run(fn, Kernel); trap != nil {
				t.Fatalf("%v (dead=%v) in kernel mode: %v", in.Op, dead, trap)
			}
			if s := as.DataTLBStats(); s.Hits != before.Hits+1 || s.Misses != before.Misses {
				t.Fatalf("%v (dead=%v) in kernel mode: data TLB %+v -> %+v, want one hit", in.Op, dead, before, s)
			}
		}
	}

	// A load group: the span test declines in user mode, and the group's
	// first entry traps on its own.
	ents := []blkEnt{
		{in: isa.Instr{Op: isa.ADDrm, Dst: isa.RAX, M: isa.Mem(isa.RBX, 0)}, rip: rip, ilen: 8, flags: dcTrap},
		{in: isa.Instr{Op: isa.ADDrm, Dst: isa.RAX, M: isa.Mem(isa.RBX, 8)}, rip: rip + 8, ilen: 8, flags: dcTrap},
	}
	comp, _, grouped := lowerBlock(ents)
	if grouped != 2 || comp[0].ni != 2 {
		t.Fatalf("no load group formed: grouped %d, first slot %+v", grouped, comp[0])
	}
	before := as.DataTLBStats()
	if stop, trap := run(comp[0].fn, User); stop != stepSplit || trap == nil || trap.Kind != TrapProtection || trap.RIP != rip {
		t.Fatalf("load group in user mode: %v %+v, want a split at a protection trap at %#x", stop, trap, rip)
	}
	if s := as.DataTLBStats(); s != before {
		t.Fatalf("load group in user mode moved the data TLB counters: %+v -> %+v", before, s)
	}
	if _, trap := run(comp[0].fn, Kernel); trap != nil || c.RIP != rip+16 {
		t.Fatalf("load group in kernel mode: %v, rip %#x", trap, c.RIP)
	}
	if s := as.DataTLBStats(); s.Hits != before.Hits+2 || s.Misses != before.Misses {
		t.Fatalf("load group in kernel mode: data TLB %+v -> %+v, want two hits", before, s)
	}
}
