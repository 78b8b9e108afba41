package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// readRef is the byte-at-a-time model the Read word fast path must match
// exactly: the same little-endian value, or a fault naming the same first
// bad byte. Reads have no side effects, so partial progress is not
// observable — only the fault identity is.
func readRef(as *AddressSpace, va uint64, size uint8) (uint64, *Fault) {
	var v uint64
	for i := uint8(0); i < size; i++ {
		b, f := as.LoadByte(va + uint64(i))
		if f != nil {
			return 0, f
		}
		v |= uint64(b) << (8 * i)
	}
	return v, nil
}

// writeRef is the byte-at-a-time model for Write: bytes preceding the first
// unwritable byte persist, and the fault names that byte.
func writeRef(as *AddressSpace, va uint64, v uint64, size uint8) *Fault {
	for i := uint8(0); i < size; i++ {
		if f := as.StoreByte(va+uint64(i), byte(v>>(8*i))); f != nil {
			return f
		}
	}
	return nil
}

// TestWordReadEquivalence: Read's in-page word path against the byte loop,
// over every access size, at aligned and unaligned offsets, crossing into
// holes, and against unreadable (execute-only under EPT) pages.
func TestWordReadEquivalence(t *testing.T) {
	as := layout(t)
	if _, err := as.Map(0x6000, 1, PermX); err != nil {
		t.Fatal(err)
	}
	as.EPT = true // execute-only becomes unreadable: the R check must be live
	cases := []struct {
		va   uint64
		size uint8
	}{
		{0x1000, 8}, {0x1000, 4}, {0x1000, 2}, {0x1000, 1},
		{0x1003, 8}, {0x1001, 2}, {0x1005, 4}, // unaligned in-page
		{0x1ffc, 8}, {0x1fff, 2}, // page-crossing, both mapped
		{0x3ffc, 8},              // crosses into the hole at 0x4000
		{0x3fff, 1},              // last mapped byte
		{0x4000, 8}, {0x4000, 1}, // starts in the hole
		{0x5000, 8},              // read-only page reads fine
		{0x6000, 8}, {0x6004, 2}, // execute-only: unreadable under EPT
		{0x5ffc, 8},              // readable page crossing into unreadable
		{0x1002, 3}, {0x1007, 5}, // odd sizes take the generic path
	}
	for _, c := range cases {
		want, wf := readRef(as, c.va, c.size)
		got, gf := as.Read(c.va, c.size)
		if !sameFault(wf, gf) {
			t.Errorf("Read(%#x,%d): fault %v, byte-loop %v", c.va, c.size, gf, wf)
			continue
		}
		if wf == nil && got != want {
			t.Errorf("Read(%#x,%d): %#x, byte-loop %#x", c.va, c.size, got, want)
		}
	}
}

// TestWordWriteEquivalence: Write's in-page word path against the byte loop
// on a twin address space — identical faults and byte-identical memory,
// including partial progress where a cross-page store runs into a hole or a
// read-only page.
func TestWordWriteEquivalence(t *testing.T) {
	cases := []struct {
		va   uint64
		size uint8
	}{
		{0x1000, 8}, {0x1000, 4}, {0x1000, 2}, {0x1000, 1},
		{0x1003, 8}, {0x1001, 2}, // unaligned in-page
		{0x1ffc, 8}, {0x1fff, 2}, // page-crossing, both writable
		{0x3ffc, 8},              // partial progress, then faults at the hole
		{0x4000, 8},              // starts in the hole
		{0x5000, 8}, {0x5004, 1}, // read-only page
		{0x1002, 3}, {0x1007, 5}, // odd sizes take the generic path
	}
	for _, c := range cases {
		word, ref := layout(t), layout(t)
		v := rand.New(rand.NewSource(int64(c.va))).Uint64()
		gf := word.Write(c.va, v, c.size)
		wf := writeRef(ref, c.va, v, c.size)
		if !sameFault(wf, gf) {
			t.Errorf("Write(%#x,%d): fault %v, byte-loop %v", c.va, c.size, gf, wf)
			continue
		}
		for _, r := range []struct {
			va uint64
			n  int
		}{{0x1000, 3 * PageSize}, {0x5000, PageSize}} {
			b, err1 := word.Peek(r.va, r.n)
			w, err2 := ref.Peek(r.va, r.n)
			if err1 != nil || err2 != nil {
				t.Fatalf("peek: %v %v", err1, err2)
			}
			if !bytes.Equal(b, w) {
				t.Errorf("Write(%#x,%d): divergent memory at %#x", c.va, c.size, r.va)
			}
		}
	}
	// A cross-page store into a read-only page: bytes before the boundary
	// persist, the fault names the first read-only byte.
	as := layout(t)
	if _, err := as.Map(0x4000, 1, PermRW); err != nil {
		t.Fatal(err)
	}
	f := as.Write(0x4ffe, 0x04030201, 4)
	if f == nil || f.Kind != FaultNoWrite || f.Addr != 0x5000 {
		t.Fatalf("cross-page store into read-only: %v", f)
	}
	got, _ := as.Peek(0x4ffe, 2)
	if !bytes.Equal(got, []byte{1, 2}) {
		t.Fatalf("bytes before the fault must persist: % x", got)
	}
}

// TestDataTLBInvalidation: every structural mutation — Protect, Unmap,
// ShadowData, remap — must be visible through accesses that just
// primed the data TLB. The TLB validates against MapGen, so these all
// invalidate by construction; this pins it.
func TestDataTLBInvalidation(t *testing.T) {
	as := layout(t)

	// Prime, then revoke write permission: the next store must fault.
	if f := as.Write(0x1000, 0xAB, 1); f != nil {
		t.Fatal(f)
	}
	if err := as.Protect(0x1000, 1, PermR); err != nil {
		t.Fatal(err)
	}
	if f := as.Write(0x1000, 0xCD, 1); f == nil || f.Kind != FaultNoWrite {
		t.Fatalf("store after Protect: %v", f)
	}
	if v, f := as.Read(0x1000, 1); f != nil || v != 0xAB {
		t.Fatalf("read after Protect: %#x %v", v, f)
	}

	// Prime, then unmap: the next access must fault.
	if _, f := as.Read(0x2000, 8); f != nil {
		t.Fatal(f)
	}
	if err := as.Unmap(0x2000, 1); err != nil {
		t.Fatal(err)
	}
	if _, f := as.Read(0x2000, 8); f == nil || f.Kind != FaultNotMapped {
		t.Fatalf("read after Unmap: %v", f)
	}

	// Prime, then shadow: reads flip to the shadow view, stores keep landing
	// on the real frame (the ITLB/DTLB split).
	if f := as.Write(0x3000, 0x11, 1); f != nil {
		t.Fatal(f)
	}
	if err := as.ShadowData(0x3000, 1, nil); err != nil {
		t.Fatal(err)
	}
	if v, f := as.Read(0x3000, 1); f != nil || v != 0 {
		t.Fatalf("shadowed read must see the zero shadow: %#x %v", v, f)
	}
	if f := as.Write(0x3000, 0x22, 1); f != nil {
		t.Fatal(f)
	}
	if v, _ := as.Read(0x3000, 1); v != 0 {
		t.Fatalf("stores must not write through to the shadow: %#x", v)
	}
	if b, err := as.Peek(0x3000, 1); err != nil || b[0] != 0x22 {
		t.Fatalf("the store must land on the real frame: % x %v", b, err)
	}
}

// TestDataTLBRollback: a content-only Rollback restores frames in place, so
// primed TLB entries stay valid and must observe the restored bytes; a
// structural rollback bumps MapGen and drops mappings added afterwards.
func TestDataTLBRollback(t *testing.T) {
	as := layout(t)
	orig, _ := as.Read(0x1000, 8)
	as.Checkpoint()

	if f := as.Write(0x1000, ^orig, 8); f != nil {
		t.Fatal(f)
	}
	if err := as.Rollback(); err != nil {
		t.Fatal(err)
	}
	if v, f := as.Read(0x1000, 8); f != nil || v != orig {
		t.Fatalf("read after content rollback: %#x want %#x (%v)", v, orig, f)
	}

	// Structural: a page mapped (and primed) after the checkpoint vanishes.
	if _, err := as.Map(0xa000, 1, PermRW); err != nil {
		t.Fatal(err)
	}
	if f := as.Write(0xa000, 42, 8); f != nil {
		t.Fatal(f)
	}
	if err := as.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, f := as.Read(0xa000, 8); f == nil || f.Kind != FaultNotMapped {
		t.Fatalf("read of rolled-back mapping: %v", f)
	}
}

// TestDataTLBStats: the hit/miss counters move the way a direct-mapped,
// MapGen-validated TLB must.
func TestDataTLBStats(t *testing.T) {
	as := layout(t)
	s0 := as.DataTLBStats()
	if _, f := as.Read(0x1000, 8); f != nil {
		t.Fatal(f)
	}
	s1 := as.DataTLBStats()
	if s1.Misses != s0.Misses+1 {
		t.Fatalf("first touch must miss: %+v -> %+v", s0, s1)
	}
	for i := 0; i < 4; i++ {
		if _, f := as.Read(0x1008, 8); f != nil {
			t.Fatal(f)
		}
	}
	s2 := as.DataTLBStats()
	if s2.Hits < s1.Hits+4 {
		t.Fatalf("warm accesses must hit: %+v -> %+v", s1, s2)
	}
	// A structural bump invalidates: the next access misses again.
	if _, err := as.Map(0xb000, 1, PermRW); err != nil {
		t.Fatal(err)
	}
	if _, f := as.Read(0x1000, 8); f != nil {
		t.Fatal(f)
	}
	if got := as.DataTLBStats(); got.Misses != s2.Misses+1 {
		t.Fatalf("access after MapGen bump must refill: %+v -> %+v", s2, got)
	}
	// Faults are never cached: repeated unmapped reads never count as hits.
	h := as.DataTLBStats().Hits
	as.Read(0x4000, 8)
	as.Read(0x4000, 8)
	if got := as.DataTLBStats(); got.Hits != h {
		t.Fatalf("unmapped accesses must not hit: %+v", got)
	}
}

// TestDataTLBAliasing: two virtual pages sharing one frame — a store through
// one alias is observable through the other even when both TLB entries are
// warm, because entries cache the frame, not its bytes.
func TestDataTLBAliasing(t *testing.T) {
	as := layout(t)
	fr, err := as.FramesAt(0x1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.MapFrames(0x9000, fr, PermRW); err != nil {
		t.Fatal(err)
	}
	// Warm both aliases.
	if _, f := as.Read(0x1000, 8); f != nil {
		t.Fatal(f)
	}
	if _, f := as.Read(0x9000, 8); f != nil {
		t.Fatal(f)
	}
	if f := as.Write(0x9010, 0xDEADBEEF, 8); f != nil {
		t.Fatal(f)
	}
	if v, f := as.Read(0x1010, 8); f != nil || v != 0xDEADBEEF {
		t.Fatalf("aliased store invisible: %#x %v", v, f)
	}
}
