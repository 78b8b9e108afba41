package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// loadRef is the byte-at-a-time model the bulk LoadBytes fast path must
// match exactly: same bytes, or a fault naming the same first bad byte.
func loadRef(as *AddressSpace, va uint64, n int) ([]byte, *Fault) {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		b, f := as.LoadByte(va + uint64(i))
		if f != nil {
			return nil, f
		}
		out[i] = b
	}
	return out, nil
}

// storeRef is the byte-at-a-time model for StoreBytes: bytes preceding the
// first unwritable byte persist, and the fault names that byte.
func storeRef(as *AddressSpace, va uint64, b []byte) *Fault {
	for i := range b {
		if f := as.StoreByte(va+uint64(i), b[i]); f != nil {
			return f
		}
	}
	return nil
}

func sameFault(a, b *Fault) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.Addr == b.Addr && a.Kind == b.Kind
}

// layout builds the shared test topology: three RW pages at 0x1000..0x3fff,
// a hole at 0x4000, a read-only page at 0x5000.
func layout(t *testing.T) *AddressSpace {
	t.Helper()
	as := NewAddressSpace()
	if _, err := as.Map(0x1000, 3, PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Map(0x5000, 1, PermR); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	fill := make([]byte, 3*PageSize)
	rng.Read(fill)
	if err := as.Poke(0x1000, fill); err != nil {
		t.Fatal(err)
	}
	return as
}

func TestBulkLoadEquivalence(t *testing.T) {
	as := layout(t)
	cases := []struct {
		va uint64
		n  int
	}{
		{0x1000, 1},
		{0x1ff0, 64},              // crosses one page boundary
		{0x1001, 2*PageSize + 17}, // unaligned, multi-page
		{0x3ff0, 32},              // runs into the hole at 0x4000
		{0x4000, 8},               // starts in the hole
		{0x3fff, 1},               // last mapped byte
	}
	for _, c := range cases {
		want, wf := loadRef(as, c.va, c.n)
		got, gf := as.LoadBytes(c.va, c.n)
		if !sameFault(wf, gf) {
			t.Errorf("LoadBytes(%#x,%d): fault %v, byte-loop %v", c.va, c.n, gf, wf)
			continue
		}
		if wf == nil && !bytes.Equal(got, want) {
			t.Errorf("LoadBytes(%#x,%d): data mismatch", c.va, c.n)
		}
	}
}

func TestBulkStoreEquivalence(t *testing.T) {
	cases := []struct {
		va uint64
		n  int
	}{
		{0x1000, 1},
		{0x1ff0, 64},
		{0x1003, 2*PageSize + 5},
		{0x3fc0, 128}, // faults at the hole boundary 0x4000
		{0x4ff0, 32},  // unmapped, then would hit read-only
	}
	for _, c := range cases {
		bulk, ref := layout(t), layout(t)
		data := make([]byte, c.n)
		rand.New(rand.NewSource(int64(c.va))).Read(data)

		gf := bulk.StoreBytes(c.va, data)
		wf := storeRef(ref, c.va, data)
		if !sameFault(wf, gf) {
			t.Errorf("StoreBytes(%#x,%d): fault %v, byte-loop %v", c.va, c.n, gf, wf)
			continue
		}
		// Partial progress must match byte for byte: compare every mapped
		// region in both spaces.
		for _, r := range []struct {
			va uint64
			n  int
		}{{0x1000, 3 * PageSize}, {0x5000, PageSize}} {
			b, err1 := bulk.Peek(r.va, r.n)
			w, err2 := ref.Peek(r.va, r.n)
			if err1 != nil || err2 != nil {
				t.Fatalf("peek: %v %v", err1, err2)
			}
			if !bytes.Equal(b, w) {
				t.Errorf("StoreBytes(%#x,%d): divergent memory at %#x", c.va, c.n, r.va)
			}
		}
	}
	// A store crossing into the read-only page faults with FaultNoWrite at
	// the page boundary, preceding bytes written.
	as := layout(t)
	if _, err := as.Map(0x4000, 1, PermRW); err != nil {
		t.Fatal(err)
	}
	f := as.StoreBytes(0x4ffe, []byte{1, 2, 3, 4})
	if f == nil || f.Kind != FaultNoWrite || f.Addr != 0x5000 {
		t.Fatalf("store into read-only: %v", f)
	}
	got, _ := as.Peek(0x4ffe, 2)
	if !bytes.Equal(got, []byte{1, 2}) {
		t.Fatalf("bytes before the fault must persist: % x", got)
	}
}

func TestPokePeekBulk(t *testing.T) {
	as := layout(t)
	// Poke ignores permissions: the read-only page accepts it.
	if err := as.Poke(0x5000, []byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	got, err := as.Peek(0x5000, 3)
	if err != nil || !bytes.Equal(got, []byte{9, 9, 9}) {
		t.Fatalf("poke/peek round trip: %v % x", err, got)
	}
	// Cross-page poke, then peek the same window back.
	blob := make([]byte, PageSize+64)
	rand.New(rand.NewSource(3)).Read(blob)
	if err := as.Poke(0x1fc0, blob); err != nil {
		t.Fatal(err)
	}
	got, err = as.Peek(0x1fc0, len(blob))
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("cross-page poke/peek: %v", err)
	}
	// Poke into the hole: bytes on preceding pages persist, the error
	// names the first unmapped page.
	if err := as.Poke(0x3ffe, []byte{7, 7, 7, 7}); err == nil {
		t.Fatal("poke into hole must fail")
	}
	got, _ = as.Peek(0x3ffe, 2)
	if !bytes.Equal(got, []byte{7, 7}) {
		t.Fatalf("poke progress before the hole must persist: % x", got)
	}
	if _, err := as.Peek(0x3fff, 2); err == nil {
		t.Fatal("peek into hole must fail")
	}
}

// TestGenSemantics pins which operations bump the frame content generation
// and which must not — the decode cache invalidates on exactly these.
func TestGenSemantics(t *testing.T) {
	as := layout(t)
	frames, err := as.FramesAt(0x1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := frames[0]

	g := f.Gen()
	as.StoreByte(0x1000, 1)
	if f.Gen() == g {
		t.Error("StoreByte must bump Gen")
	}
	g = f.Gen()
	as.Write(0x1008, 42, 8)
	if f.Gen() == g {
		t.Error("Write must bump Gen")
	}
	g = f.Gen()
	as.StoreBytes(0x1010, []byte{1, 2, 3})
	if f.Gen() == g {
		t.Error("StoreBytes must bump Gen")
	}
	g = f.Gen()
	if err := as.Poke(0x1018, []byte{4}); err != nil {
		t.Fatal(err)
	}
	if f.Gen() == g {
		t.Error("Poke must bump Gen")
	}
	g = f.Gen()
	f.Zap()
	if f.Gen() == g {
		t.Error("Zap must bump Gen")
	}

	// Pure reads bump nothing.
	g = f.Gen()
	mg := as.MapGen()
	as.Read(0x1000, 8)
	as.LoadBytes(0x1000, 64)
	if _, err := as.Peek(0x1000, 64); err != nil {
		t.Fatal(err)
	}
	var buf [16]byte
	as.Fetch(0x1000, buf[:])
	if f.Gen() != g {
		t.Error("reads must not bump Gen")
	}
	if as.MapGen() != mg {
		t.Error("reads must not bump MapGen")
	}

	// Content writes must not bump the structural generation.
	mg = as.MapGen()
	as.StoreByte(0x1000, 2)
	if as.MapGen() != mg {
		t.Error("StoreByte must not bump MapGen")
	}
}

// TestMapGenSemantics pins which operations change the translation
// structure: the decode cache re-resolves frames on exactly these.
func TestMapGenSemantics(t *testing.T) {
	as := layout(t)

	bumps := []struct {
		name string
		op   func() error
	}{
		{"Map", func() error { _, err := as.Map(0x8000, 1, PermRW); return err }},
		{"Protect", func() error { return as.Protect(0x8000, 1, PermR) }},
		{"Unmap", func() error { return as.Unmap(0x8000, 1) }},
		{"MapFrames", func() error {
			fr, err := as.FramesAt(0x1000, 1)
			if err != nil {
				return err
			}
			return as.MapFrames(0x9000, fr, PermRW)
		}},
		{"ShadowData", func() error {
			return as.ShadowData(0x1000, 1, nil)
		}},
	}
	for _, b := range bumps {
		mg := as.MapGen()
		if err := b.op(); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if as.MapGen() == mg {
			t.Errorf("%s must bump MapGen", b.name)
		}
	}
}

// TestRollbackGenerations pins the incremental Rollback contract: a
// content-only rollback bumps the restored frames' generations but leaves
// the structure (and MapGen) alone; a structural rollback bumps MapGen.
func TestRollbackGenerations(t *testing.T) {
	as := layout(t)
	frames, err := as.FramesAt(0x1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := frames[0]
	orig, _ := as.Peek(0x1000, 8)

	as.Checkpoint()
	mg := as.MapGen()

	// Content-only dirtying.
	as.StoreByte(0x1000, 0xEE)
	g := f.Gen()
	if err := as.Rollback(); err != nil {
		t.Fatal(err)
	}
	if as.MapGen() != mg {
		t.Error("content-only Rollback must not bump MapGen")
	}
	if f.Gen() == g {
		t.Error("Rollback restoring a frame must bump its Gen")
	}
	got, _ := as.Peek(0x1000, 8)
	if !bytes.Equal(got, orig) {
		t.Fatalf("rollback did not restore: % x want % x", got, orig)
	}

	// Rollback is repeatable on the same checkpoint: dirty, roll back,
	// dirty again, roll back again.
	as.StoreByte(0x1000, 0xAA)
	if err := as.Rollback(); err != nil {
		t.Fatal(err)
	}
	as.StoreByte(0x1001, 0xBB)
	if err := as.Rollback(); err != nil {
		t.Fatal(err)
	}
	got, _ = as.Peek(0x1000, 8)
	if !bytes.Equal(got, orig) {
		t.Fatalf("second rollback did not restore: % x", got)
	}

	// Structural dirtying: a map added after the checkpoint disappears and
	// MapGen moves.
	mg = as.MapGen()
	if _, err := as.Map(0xa000, 1, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := as.Rollback(); err != nil {
		t.Fatal(err)
	}
	if as.Mapped(0xa000) {
		t.Error("structural rollback must drop the new mapping")
	}
	if as.MapGen() == mg {
		t.Error("structural Rollback must bump MapGen")
	}
}

// TestRangesCache: repeated Ranges calls return the same contents, and
// every structural mutation updates the maintained list.
func TestRangesCache(t *testing.T) {
	as := layout(t)
	r1 := as.Ranges()
	r2 := as.Ranges()
	if len(r1) != len(r2) {
		t.Fatalf("unstable ranges: %v vs %v", r1, r2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("unstable ranges at %d: %v vs %v", i, r1[i], r2[i])
		}
	}
	if _, err := as.Map(0x7000, 1, PermX); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range as.Ranges() {
		if r.Start <= 0x7000 && 0x7000 < r.End && r.Perm == PermX {
			found = true
		}
	}
	if !found {
		t.Fatal("Ranges stale after Map")
	}
	if err := as.Protect(0x7000, 1, PermR); err != nil {
		t.Fatal(err)
	}
	for _, r := range as.Ranges() {
		if r.Start <= 0x7000 && 0x7000 < r.End && r.Perm != PermR {
			t.Fatal("Ranges stale after Protect")
		}
	}
}
