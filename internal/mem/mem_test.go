package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMapReadWrite(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Map(0x1000, 2, PermRW); err != nil {
		t.Fatal(err)
	}
	if f := as.Write(0x1ffc, 0xdeadbeefcafef00d, 8); f != nil {
		t.Fatalf("cross-page write: %v", f)
	}
	v, f := as.Read(0x1ffc, 8)
	if f != nil || v != 0xdeadbeefcafef00d {
		t.Fatalf("cross-page read: %v %#x", f, v)
	}
	if _, f := as.Read(0x3000, 1); f == nil || f.Kind != FaultNotMapped {
		t.Fatalf("expected not-mapped fault, got %v", f)
	}
}

func TestMapErrors(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Map(0x1001, 1, PermRW); err == nil {
		t.Error("unaligned map should fail")
	}
	if _, err := as.Map(0x1000, 2, PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Map(0x1000, 1, PermR); err == nil {
		t.Error("double map should fail")
	}
	if err := as.Unmap(0x3000, 1); err == nil {
		t.Error("unmap of hole should fail")
	}
	if err := as.Protect(0x3000, 1, PermR); err == nil {
		t.Error("protect of hole should fail")
	}
}

func TestXImpliesRead(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Map(0x1000, 1, PermX); err != nil {
		t.Fatal(err)
	}
	// Plain x86 semantics: an execute-only mapping is still readable by
	// data loads. This is the paper's core problem statement.
	if _, f := as.Read(0x1000, 8); f != nil {
		t.Fatalf("x86 semantics: X page must be data-readable, got %v", f)
	}
	// But never writable.
	if f := as.Write(0x1000, 1, 8); f == nil || f.Kind != FaultNoWrite {
		t.Fatalf("X page must not be writable, got %v", f)
	}
}

func TestEPTExecuteOnly(t *testing.T) {
	as := NewAddressSpace()
	as.EPT = true
	if _, err := as.Map(0x1000, 1, PermX); err != nil {
		t.Fatal(err)
	}
	// EPT (hypervisor) semantics: true execute-only memory.
	if _, f := as.Read(0x1000, 1); f == nil || f.Kind != FaultNoRead {
		t.Fatalf("EPT semantics: X page must not be readable, got %v", f)
	}
	var buf [4]byte
	if _, f := as.Fetch(0x1000, buf[:]); f != nil {
		t.Fatalf("EPT semantics: X page must be fetchable, got %v", f)
	}
}

func TestFetchSemantics(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Map(0x1000, 1, PermRW); err != nil {
		t.Fatal(err)
	}
	var buf [2]byte
	if _, f := as.Fetch(0x1000, buf[:]); f == nil || f.Kind != FaultNoExec {
		t.Fatalf("fetch from non-X page must fault, got %v", f)
	}
	if _, err := as.Map(0x2000, 1, PermX); err != nil {
		t.Fatal(err)
	}
	if err := as.Poke(0x2ffe, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	// Fetch straddling the end of the mapped X region stops early.
	var buf4 [4]byte
	n, f := as.Fetch(0x2ffe, buf4[:])
	if f != nil || n != 2 || buf4[0] != 0xAA || buf4[1] != 0xBB {
		t.Fatalf("partial fetch: n=%d f=%v buf=%v", n, f, buf4)
	}
	// Fetch from a hole faults immediately.
	if _, f := as.Fetch(0x5000, buf4[:]); f == nil || f.Kind != FaultNotMapped {
		t.Fatalf("fetch from hole: %v", f)
	}
}

func TestSynonymAliasing(t *testing.T) {
	as := NewAddressSpace()
	frames, err := as.Map(0x10000, 2, PermX)
	if err != nil {
		t.Fatal(err)
	}
	// Map the same frames at a physmap-style second address, read-write.
	if err := as.MapFrames(0x80000, frames, PermRW); err != nil {
		t.Fatal(err)
	}
	if f := as.Write(0x80004, 0xc3, 1); f != nil {
		t.Fatal(f)
	}
	// The write is visible through the original (executable) mapping.
	var buf [1]byte
	if _, f := as.Fetch(0x10004, buf[:]); f != nil || buf[0] != 0xc3 {
		t.Fatalf("alias write not visible: %v %v", f, buf)
	}
	// Unmapping the synonym removes the data window but not the code.
	if err := as.Unmap(0x80000, 2); err != nil {
		t.Fatal(err)
	}
	if as.Mapped(0x80000) {
		t.Error("synonym still mapped")
	}
	if !as.Mapped(0x10000) {
		t.Error("original mapping must survive")
	}
}

func TestProtectAndPermAt(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Map(0x1000, 1, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := as.Protect(0x1000, 1, PermR); err != nil {
		t.Fatal(err)
	}
	if f := as.Write(0x1000, 1, 1); f == nil {
		t.Error("write to read-only page should fault")
	}
	p, ok := as.PermAt(0x1234)
	if !ok || p != PermR {
		t.Fatalf("PermAt: %v %v", p, ok)
	}
}

func TestPokePeekIgnorePerms(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Map(0x1000, 1, PermX); err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 4}
	if err := as.Poke(0x1000, want); err != nil {
		t.Fatal(err)
	}
	got, err := as.Peek(0x1000, 4)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("peek: %v %v", err, got)
	}
	if err := as.Poke(0x9000, []byte{1}); err == nil {
		t.Error("poke of unmapped page should error")
	}
}

func TestRanges(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x1000, 2, PermRW)
	mustMap(t, as, 0x3000, 1, PermRX)
	mustMap(t, as, 0x8000, 1, PermRW)
	r := as.Ranges()
	if len(r) != 3 {
		t.Fatalf("got %d ranges: %+v", len(r), r)
	}
	if r[0].Start != 0x1000 || r[0].End != 0x3000 || r[0].Perm != PermRW {
		t.Errorf("range 0: %+v", r[0])
	}
	if r[1].Start != 0x3000 || r[1].End != 0x4000 || r[1].Perm != PermRX {
		t.Errorf("range 1: %+v", r[1])
	}
	if r[2].Start != 0x8000 {
		t.Errorf("range 2: %+v", r[2])
	}
}

func TestHighCanonicalAddresses(t *testing.T) {
	as := NewAddressSpace()
	// Kernel-space addresses in the upper canonical half must work.
	const va = 0xffffffff80000000
	mustMap(t, as, va, 1, PermRW)
	if f := as.Write(va+8, 42, 8); f != nil {
		t.Fatal(f)
	}
	v, f := as.Read(va+8, 8)
	if f != nil || v != 42 {
		t.Fatalf("high address rw: %v %v", f, v)
	}
}

func TestPagesFor(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 1, PageSize: 1, PageSize + 1: 2, 3 * PageSize: 3}
	for in, want := range cases {
		if got := PagesFor(in); got != want {
			t.Errorf("PagesFor(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Addr: 0x1234, Kind: FaultNoWrite, Write: true}
	if f.Error() == "" {
		t.Error("empty fault message")
	}
	for _, k := range []FaultKind{FaultNone, FaultNotMapped, FaultNoRead, FaultNoWrite, FaultNoExec} {
		if k.String() == "unknown" {
			t.Errorf("missing name for kind %d", k)
		}
	}
}

// Property: a value written with Write is read back identically by Read for
// all sizes and in-page offsets.
func TestQuickReadWriteRoundTrip(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x1000, 4, PermRW)
	f := func(off uint16, val uint64, szSel uint8) bool {
		size := []uint8{1, 2, 4, 8}[szSel%4]
		va := 0x1000 + uint64(off)%(4*PageSize-8)
		if fault := as.Write(va, val, size); fault != nil {
			return false
		}
		got, fault := as.Read(va, size)
		if fault != nil {
			return false
		}
		mask := ^uint64(0)
		if size < 8 {
			mask = (1 << (8 * size)) - 1
		}
		return got == val&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func mustMap(t *testing.T, as *AddressSpace, va uint64, n int, p Perm) {
	t.Helper()
	if _, err := as.Map(va, n, p); err != nil {
		t.Fatal(err)
	}
}

func TestShadowDataSplitTLB(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x1000, 2, PermX)
	if err := as.Poke(0x1000, []byte{0xC3, 0x90}); err != nil {
		t.Fatal(err)
	}
	if err := as.ShadowData(0x1000, 2, nil); err != nil {
		t.Fatal(err)
	}
	// Data view: the zero shadow.
	b, f := as.LoadByte(0x1000)
	if f != nil || b != 0 {
		t.Fatalf("shadowed read: %v %#x", f, b)
	}
	// Instruction view: the real bytes.
	var buf [2]byte
	if _, f := as.Fetch(0x1000, buf[:]); f != nil || buf[0] != 0xC3 {
		t.Fatalf("fetch must see real code: %v % x", f, buf)
	}
	// Errors.
	if err := as.ShadowData(0x1001, 1, nil); err == nil {
		t.Error("unaligned shadow must fail")
	}
	if err := as.ShadowData(0x9000, 1, nil); err == nil {
		t.Error("shadow of unmapped page must fail")
	}
}

// windowSpace returns a space with a demand-zero window of n pages at va.
func windowSpace(t *testing.T, va uint64, n int) *AddressSpace {
	t.Helper()
	as := NewAddressSpace()
	if err := as.MapDemandZero(va, n); err != nil {
		t.Fatal(err)
	}
	return as
}

// TestDemandZeroWindowOverMappedPages: a window may not cover a page that
// is already mapped, and the error names the lowest such page; pages just
// outside the window do not count.
func TestDemandZeroWindowOverMappedPages(t *testing.T) {
	const win = 0x100000
	as := NewAddressSpace()
	for _, va := range []uint64{win - PageSize, win + 8*PageSize, win + 5*PageSize, win + 3*PageSize} {
		if _, err := as.Map(va, 1, PermRW); err != nil {
			t.Fatal(err)
		}
	}
	err := as.MapDemandZero(win, 8)
	if err == nil || err.Error() != "mem: page 0x103000 already mapped" {
		t.Fatalf("window over mapped pages: %v", err)
	}
	if err := as.MapDemandZero(win, 3); err != nil {
		t.Fatalf("window between mapped pages: %v", err)
	}
}

// TestDemandZeroWindow: untouched window pages read zero, and each of the
// ways a page gets a frame of its own — a store, then a FramesAt that hands
// the frame out for aliasing; a Protect; an Unmap and MapFrames back over
// the tombstone — keeps one frame identity behind every mapping.
func TestDemandZeroWindow(t *testing.T) {
	const win = 0x100000
	t.Run("store then alias", func(t *testing.T) {
		as := windowSpace(t, win, 8)
		if v, f := as.Read(win+0x1008, 8); f != nil || v != 0 {
			t.Fatalf("untouched page read %#x, %v", v, f)
		}
		if got := as.PhysStats(); got != (PhysStats{Pages: 8}) {
			t.Fatalf("a read materialized: %+v", got)
		}
		if f := as.Write(win+0x1008, 0xfeed, 8); f != nil {
			t.Fatal(f)
		}
		frames, err := as.FramesAt(win+0x1000, 2)
		if err != nil {
			t.Fatal(err)
		}
		pg1, _ := as.pages.get(vpn(win + 0x1000))
		pg2, _ := as.pages.get(vpn(win + 0x2000))
		if frames[0] != pg1.frame || frames[1] != pg2.frame {
			t.Fatal("FramesAt handed out a frame the window does not map")
		}
		if got := as.PhysStats(); got.Materialized != 2 {
			t.Fatalf("PhysStats %+v, want 2 materialized", got)
		}
		if err := as.MapFrames(0x9000, frames, PermR); err != nil {
			t.Fatal(err)
		}
		if v, f := as.Read(0x9008, 8); f != nil || v != 0xfeed {
			t.Fatalf("alias does not see the window store: %#x, %v", v, f)
		}
		if f := as.Write(win+0x2000, 7, 1); f != nil {
			t.Fatal(f)
		}
		if b, _ := as.LoadByte(0xa000); b != 7 {
			t.Fatalf("alias of a FramesAt-materialized page does not see later stores: %d", b)
		}
	})
	t.Run("protect untouched", func(t *testing.T) {
		as := windowSpace(t, win, 4)
		if err := as.Protect(win+PageSize, 1, PermR); err != nil {
			t.Fatal(err)
		}
		pg, _ := as.pages.get(vpn(win + PageSize))
		if pg == nil || pg.frame == zeroFrame || pg.perm != PermR {
			t.Fatalf("Protect left %+v, want a private read-only frame", pg)
		}
		if f := as.Write(win+PageSize, 1, 1); f == nil || f.Kind != FaultNoWrite {
			t.Fatalf("write to the protected page: %v", f)
		}
		if f := as.Write(win, 1, 1); f != nil {
			t.Fatalf("neighbouring window page must stay writable: %v", f)
		}
	})
	t.Run("tombstone and back", func(t *testing.T) {
		as := windowSpace(t, win, 4)
		if f := as.Write(win, 0x55, 1); f != nil {
			t.Fatal(f)
		}
		frames, err := as.FramesAt(win, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := as.Unmap(win, 2); err != nil {
			t.Fatal(err)
		}
		if as.Mapped(win) || as.Mapped(win+PageSize) {
			t.Fatal("tombstoned pages still mapped")
		}
		if _, f := as.LoadByte(win); f == nil || f.Kind != FaultNotMapped {
			t.Fatalf("read through a tombstone: %v", f)
		}
		if got := as.PhysStats(); got != (PhysStats{Pages: 4, Holes: 2}) {
			t.Fatalf("PhysStats %+v, want 2 holes", got)
		}
		if err := as.Unmap(win, 1); err == nil {
			t.Fatal("unmapping a tombstone must fail")
		}
		if err := as.MapFrames(win+2*PageSize, frames[:1], PermRW); err == nil {
			t.Fatal("mapping over an untouched window page must fail")
		}
		if err := as.MapFrames(win, frames, PermRW); err != nil {
			t.Fatalf("mapping back over tombstones: %v", err)
		}
		if b, f := as.LoadByte(win); f != nil || b != 0x55 {
			t.Fatalf("remapped frame lost its bytes: %#x, %v", b, f)
		}
		if got := as.Ranges(); len(got) != 1 || got[0] != (MappedRange{Start: win, End: win + 4*PageSize, Perm: PermRW}) {
			t.Fatalf("Ranges %v, want the whole window back", got)
		}
	})
	t.Run("rollback to demand-zero", func(t *testing.T) {
		as := windowSpace(t, win, 4)
		as.Checkpoint()
		if f := as.Write(win, 9, 1); f != nil {
			t.Fatal(f)
		}
		if err := as.Rollback(); err != nil {
			t.Fatal(err)
		}
		if _, ok := as.pages.get(vpn(win)); ok {
			t.Fatal("rollback kept the materialized page")
		}
		if b, f := as.LoadByte(win); f != nil || b != 0 {
			t.Fatalf("rolled-back page reads %#x, %v", b, f)
		}
	})
	t.Run("zero frame is frozen", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("Zap of the zero frame must panic")
			}
		}()
		zeroFrame.Zap()
	})
}

// TestDemandZeroLoadsKeepMapGen: a load-only walk over untouched demand-zero
// pages — every access size, in-page and page-straddling, word loads and
// ReadRun, plain, under an armed checkpoint and in a fork — reads zeros,
// refills the data TLB, and leaves MapGen and the page table alone; walking
// off the window faults without moving MapGen either. The CPU's lean
// compiled self-loops skip their MapGen re-check on exactly this basis.
func TestDemandZeroLoadsKeepMapGen(t *testing.T) {
	const win, pages = 0x100000, 3
	for _, tc := range []struct {
		name  string
		space func(t *testing.T) *AddressSpace
	}{
		{"plain", func(t *testing.T) *AddressSpace { return windowSpace(t, win, pages) }},
		{"checkpointed", func(t *testing.T) *AddressSpace {
			as := windowSpace(t, win, pages)
			as.Checkpoint()
			return as
		}},
		{"forked", func(t *testing.T) *AddressSpace {
			child, err := windowSpace(t, win, pages).Fork()
			if err != nil {
				t.Fatal(err)
			}
			return child
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			as := tc.space(t)
			gen, misses := as.MapGen(), as.DataTLBStats().Misses
			// An odd stride puts some accesses across page boundaries.
			for va := uint64(win); va+8 <= win+pages*PageSize; va += 61 {
				for _, sz := range []uint8{1, 2, 4, 8} {
					if v, f := as.Read(va, sz); f != nil || v != 0 {
						t.Fatalf("Read(%#x, %d) = %#x, %v", va, sz, v, f)
					}
				}
				if b, f := as.ReadRun(va); f != nil || len(b) == 0 || b[0] != 0 {
					t.Fatalf("ReadRun(%#x) = %d bytes, %v", va, len(b), f)
				}
			}
			if _, f := as.Read(win+pages*PageSize-4, 8); f == nil || f.Kind != FaultNotMapped {
				t.Fatalf("a load off the window's end: %v", f)
			}
			if got := as.MapGen(); got != gen {
				t.Fatalf("loads moved MapGen %d -> %d", gen, got)
			}
			if got := as.PhysStats(); got != (PhysStats{Pages: pages}) {
				t.Fatalf("loads changed the page table: %+v", got)
			}
			if as.DataTLBStats().Misses == misses {
				t.Fatal("the walk never refilled the data TLB")
			}
		})
	}
}
