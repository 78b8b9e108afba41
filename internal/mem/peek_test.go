package mem

import (
	"encoding/binary"
	"testing"
)

// TestPeekUint64MatchesPeek: the allocation-free word read returns what
// Peek(va, 8) returns, within a page, across a page boundary, through
// permissions that forbid data reads, and not at all where Peek fails.
func TestPeekUint64MatchesPeek(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Map(0x1000, 2, PermRW); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2*PageSize; i += 8 {
		if f := as.Write(0x1000+i, 0x0123456789abcdef^i*0x9e3779b97f4a7c15, 8); f != nil {
			t.Fatal(f)
		}
	}
	if err := as.Protect(0x2000, 1, PermX); err != nil {
		t.Fatal(err)
	}
	for _, va := range []uint64{0x1000, 0x1ab8, 0x1ff8, 0x1ffb, 0x1fff, 0x2ff8, 0x2ff9, 0x3000, 0x0ffc} {
		v, ok := as.PeekUint64(va)
		b, err := as.Peek(va, 8)
		if ok != (err == nil) {
			t.Fatalf("%#x: PeekUint64 ok=%v, Peek err=%v", va, ok, err)
		}
		if ok && v != binary.LittleEndian.Uint64(b) {
			t.Fatalf("%#x: PeekUint64 %#x, Peek % x", va, v, b)
		}
	}
	if n := testing.AllocsPerRun(10, func() { as.PeekUint64(0x1ffb) }); n != 0 {
		t.Fatalf("PeekUint64 allocates %.0f times", n)
	}
}

// TestFrameAtAndReadable: FrameAt reports the frame behind a page whatever
// its permissions, the shared zero frame for an untouched demand-zero page
// (without materializing it), and nothing for an unmapped page. Readable
// agrees with LoadByte.
func TestFrameAtAndReadable(t *testing.T) {
	as := NewAddressSpace()
	frames, err := as.Map(0x1000, 1, PermX)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.MapDemandZero(0x10000, 4); err != nil {
		t.Fatal(err)
	}
	if f, ok := as.FrameAt(0x1234); !ok || f != frames[0] {
		t.Fatalf("FrameAt(exec-only page) = %p, %v; want %p", f, ok, frames[0])
	}
	if f, ok := as.FrameAt(0x11000); !ok || f != zeroFrame {
		t.Fatalf("FrameAt(untouched window page) = %p, %v; want the zero frame", f, ok)
	}
	if as.PhysStats().Materialized != 0 {
		t.Fatal("FrameAt materialized a window page")
	}
	if f, ok := as.FrameAt(0x5000); ok || f != nil {
		t.Fatalf("FrameAt(unmapped) = %p, %v", f, ok)
	}
	for _, ept := range []bool{false, true} {
		as.EPT = ept
		for _, va := range []uint64{0x1000, 0x11000, 0x5000} {
			_, f := as.LoadByte(va)
			if got := as.Readable(va); got != (f == nil) {
				t.Fatalf("EPT=%v %#x: Readable %v, LoadByte fault %v", ept, va, got, f)
			}
		}
	}
}
