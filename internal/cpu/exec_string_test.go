package cpu

import (
	"bytes"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// String-op semantics tests, pinned when execRepBulk replaced the hot path:
// the bulk page-run execution of ascending REP MOVS/STOS must be
// indistinguishable from the per-element loop in every architected
// observable — memory bytes, register finals, cycle accounting, trap kind
// and address, and partial progress at a faulting page.

// repCPU builds a raw CPU running prog with an extra RW data page adjacent
// to dcDataVA, so copies can cross a page boundary.
func repCPU(t *testing.T, prog ...isa.Instr) *CPU {
	t.Helper()
	c := rawCPU(t, mem.PermX, prog...)
	if _, err := c.AS.Map(dcDataVA+mem.PageSize, 1, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRepMovsCrossPageUnaligned(t *testing.T) {
	// 16 8-byte elements starting 37 bytes before the source page boundary:
	// bulk runs cover the in-page elements, the straddling element falls
	// back to the per-element loop, and the copy resumes bulk on the next
	// page. 37 % 8 != 0, so one element genuinely spans the boundary.
	const n, w = 16, 8
	src := uint64(dcDataVA + mem.PageSize - 37)
	dst := uint64(dcStackVA + 64)

	pat := make([]byte, n*w)
	for i := range pat {
		pat[i] = byte(3*i + 1)
	}

	mk := func(rcx uint64) *CPU {
		c := repCPU(t, isa.Movs(w, true), isa.Ret())
		if err := c.AS.Poke(src, pat); err != nil {
			t.Fatal(err)
		}
		c.Regs[isa.RSI], c.Regs[isa.RDI], c.Regs[isa.RCX] = src, dst, rcx
		return c
	}

	c0 := mk(0)
	mustReturn(t, c0, 100)
	base := c0.Cycles

	c := mk(n)
	mustReturn(t, c, 100)
	got, err := c.AS.Peek(dst, n*w)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat) {
		t.Errorf("copied bytes diverge from source pattern")
	}
	if c.Regs[isa.RSI] != src+n*w || c.Regs[isa.RDI] != dst+n*w || c.Regs[isa.RCX] != 0 {
		t.Errorf("finals rsi=%#x rdi=%#x rcx=%d, want rsi=%#x rdi=%#x rcx=0",
			c.Regs[isa.RSI], c.Regs[isa.RDI], c.Regs[isa.RCX], src+n*w, dst+n*w)
	}
	// Element-exact accounting: n elements cost exactly n*StrUnitCost over
	// the zero-element run, however the elements were batched.
	if c.Cycles-base != n*isa.StrUnitCost {
		t.Errorf("cycles delta %d, want %d", c.Cycles-base, n*isa.StrUnitCost)
	}
}

func TestRepMovsOverlapReplicates(t *testing.T) {
	// dst = src+1 ascending: each element reads the byte the previous
	// element just wrote, smearing src[0] across the window. memmove-style
	// copying would preserve the original bytes instead — this is the case
	// that forbids a blind bulk copy() on overlap.
	const n = 64
	src := uint64(dcDataVA + 8)
	c := repCPU(t, isa.Movs(1, true), isa.Ret())
	seed := []byte{0xAA, 0xBB, 0xCC}
	if err := c.AS.Poke(src, seed); err != nil {
		t.Fatal(err)
	}
	c.Regs[isa.RSI], c.Regs[isa.RDI], c.Regs[isa.RCX] = src, src+1, n
	mustReturn(t, c, 100)
	got, err := c.AS.Peek(src+1, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0xAA {
			t.Fatalf("overlap copy byte %d = %#x, want the replicated %#x", i, b, 0xAA)
		}
	}
}

func TestRepStosFaultPartialProgress(t *testing.T) {
	// Fill runs into a read-only page: the trap names the first unwritable
	// byte, and the registers record exactly the elements that completed.
	c := rawCPU(t, mem.PermX, isa.Stos(1, true), isa.Ret())
	if _, err := c.AS.Map(dcDataVA+mem.PageSize, 1, mem.PermR); err != nil {
		t.Fatal(err)
	}
	const before = 24
	start := uint64(dcDataVA + mem.PageSize - before)
	c.Regs[isa.RAX] = 0x5C
	c.Regs[isa.RDI], c.Regs[isa.RCX] = start, before+10
	res := c.Run(100)
	if res.Trap == nil || res.Trap.Kind != TrapPageFault {
		t.Fatalf("want page-fault trap, got %+v", res)
	}
	if res.Trap.Addr != dcDataVA+mem.PageSize {
		t.Errorf("trap addr %#x, want first read-only byte %#x", res.Trap.Addr, uint64(dcDataVA+mem.PageSize))
	}
	if c.Regs[isa.RDI] != dcDataVA+mem.PageSize || c.Regs[isa.RCX] != 10 {
		t.Errorf("partial progress rdi=%#x rcx=%d, want rdi=%#x rcx=10",
			c.Regs[isa.RDI], c.Regs[isa.RCX], uint64(dcDataVA+mem.PageSize))
	}
	got, err := c.AS.Peek(start, before)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0x5C {
			t.Fatalf("byte %d = %#x not stored before the fault", i, b)
		}
	}
}

func TestRepStosDescending(t *testing.T) {
	// DF set: the bulk path is ascending-only, so this exercises the
	// per-element loop's descending walk end to end.
	const n = 32
	end := uint64(dcDataVA + 256)
	c := repCPU(t, isa.Instr{Op: isa.STD}, isa.Stos(1, true), isa.Ret())
	c.Regs[isa.RAX] = 0x7E
	c.Regs[isa.RDI], c.Regs[isa.RCX] = end, n
	mustReturn(t, c, 100)
	got, err := c.AS.Peek(end-n+1, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0x7E {
			t.Fatalf("descending fill byte %d = %#x", i, b)
		}
	}
	if c.Regs[isa.RDI] != end-n {
		t.Errorf("rdi = %#x, want %#x", c.Regs[isa.RDI], end-n)
	}
}

func TestRepStosUserKernelBoundary(t *testing.T) {
	// A user-mode fill whose second element lands exactly on UpperHalf must
	// trap #GP at UpperHalf with one element's progress — the bulk path may
	// never batch across the privilege boundary (pages are aligned to it,
	// so a run never straddles; the first kernel-half element falls back to
	// the element loop and takes its exact trap).
	as := mem.NewAddressSpace()
	codeVA := uint64(0x400000)
	if _, err := as.Map(codeVA, 1, mem.PermX); err != nil {
		t.Fatal(err)
	}
	lastUser := UpperHalf - mem.PageSize
	if _, err := as.Map(lastUser, 1, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := as.Poke(codeVA, mustEncode(isa.Stos(8, true), isa.Ret())); err != nil {
		t.Fatal(err)
	}
	c := New(as)
	c.Mode = User
	c.RIP = codeVA
	c.Regs[isa.RAX] = 1
	c.Regs[isa.RDI], c.Regs[isa.RCX] = UpperHalf-8, 2
	res := c.Run(100)
	if res.Trap == nil || res.Trap.Kind != TrapProtection {
		t.Fatalf("want protection trap, got %+v", res)
	}
	if res.Trap.Addr != UpperHalf {
		t.Errorf("trap addr %#x, want %#x", res.Trap.Addr, UpperHalf)
	}
	if c.Regs[isa.RDI] != UpperHalf || c.Regs[isa.RCX] != 1 {
		t.Errorf("partial progress rdi=%#x rcx=%d, want rdi=%#x rcx=1",
			c.Regs[isa.RDI], c.Regs[isa.RCX], UpperHalf)
	}
}
