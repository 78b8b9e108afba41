package mem

import (
	"bytes"
	"sync"
	"testing"
)

// forkPair maps a small layout, freezes+forks, and returns parent and child.
func forkPair(t *testing.T) (*AddressSpace, *AddressSpace) {
	t.Helper()
	as := NewAddressSpace()
	if _, err := as.Map(0x1000, 2, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := as.Poke(0x1000, []byte("parent data")); err != nil {
		t.Fatal(err)
	}
	child, err := as.Fork()
	if err != nil {
		t.Fatal(err)
	}
	return as, child
}

func peek(t *testing.T, as *AddressSpace, va uint64, n int) []byte {
	t.Helper()
	b, err := as.Peek(va, n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestForkSharesUntilWrite(t *testing.T) {
	parent, child := forkPair(t)
	pf, _ := parent.FramesAt(0x1000, 1)
	cf, _ := child.FramesAt(0x1000, 1)
	if pf[0] != cf[0] {
		t.Fatal("fork should share frames")
	}
	if got := child.CowStats(); got.SharedFrames != 2 || got.Breaks != 0 {
		t.Fatalf("child CowStats = %+v, want 2 shared / 0 breaks", got)
	}

	// Child write breaks CoW: the parent's bytes must not move.
	if f := child.StoreByte(0x1000, 'X'); f != nil {
		t.Fatal(f)
	}
	if got := peek(t, parent, 0x1000, 6); !bytes.Equal(got, []byte("parent")) {
		t.Fatalf("parent sees child's write: %q", got)
	}
	if got := peek(t, child, 0x1000, 6); !bytes.Equal(got, []byte("Xarent")) {
		t.Fatalf("child write lost: %q", got)
	}
	cf2, _ := child.FramesAt(0x1000, 1)
	if cf2[0] == pf[0] {
		t.Fatal("child still maps the shared frame after a write")
	}
	if got := child.CowStats(); got.Breaks != 1 || got.PrivateFrames != 1 {
		t.Fatalf("child CowStats after break = %+v", got)
	}

	// Parent writes break too — the parent's frames froze at Fork.
	if f := parent.StoreByte(0x1001, 'Y'); f != nil {
		t.Fatal(f)
	}
	if got := peek(t, child, 0x1001, 1); got[0] != 'a' {
		t.Fatalf("child sees parent's post-fork write: %q", got)
	}
}

func TestForkAliasedFramesBreakTogether(t *testing.T) {
	// Model the physmap: one frame mapped at two virtual addresses. A CoW
	// break through either synonym must repoint both, or the synonym
	// invariant (writes through one visible through the other) dies.
	as := NewAddressSpace()
	frames, err := as.Map(0x1000, 1, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.MapFrames(0x9000, frames, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := as.Poke(0x1000, []byte("alias")); err != nil {
		t.Fatal(err)
	}
	child, err := as.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if f := child.StoreByte(0x9002, 'Z'); f != nil {
		t.Fatal(f)
	}
	if got := peek(t, child, 0x1000, 5); !bytes.Equal(got, []byte("alZas")) {
		t.Fatalf("child synonym broken: %q", got)
	}
	if got := peek(t, as, 0x1000, 5); !bytes.Equal(got, []byte("alias")) {
		t.Fatalf("parent disturbed: %q", got)
	}
	c1, _ := child.FramesAt(0x1000, 1)
	c9, _ := child.FramesAt(0x9000, 1)
	if c1[0] != c9[0] {
		t.Fatal("child synonyms point at different frames after the break")
	}
}

func TestForkAliasRegisteredAfterFreeze(t *testing.T) {
	// A frozen frame gaining a new synonym post-fork (text_poke's scratch
	// alias) must still break as a unit.
	as := NewAddressSpace()
	frames, err := as.Map(0x1000, 1, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Poke(0x1000, []byte("orig")); err != nil {
		t.Fatal(err)
	}
	child, err := as.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.MapFrames(0xa000, frames, PermRW); err != nil {
		t.Fatal(err)
	}
	if f := child.StoreByte(0xa000, 'T'); f != nil {
		t.Fatal(f)
	}
	if got := peek(t, child, 0x1000, 4); !bytes.Equal(got, []byte("Trig")) {
		t.Fatalf("scratch-alias write not visible through original mapping: %q", got)
	}
	if got := peek(t, as, 0x1000, 4); !bytes.Equal(got, []byte("orig")) {
		t.Fatalf("parent disturbed through scratch alias: %q", got)
	}
}

func TestForkOfFork(t *testing.T) {
	parent, child := forkPair(t)
	if f := child.StoreByte(0x1000, 'C'); f != nil {
		t.Fatal(f)
	}
	// Fork the dirtied child: its private frame re-freezes, so the
	// grandchild shares it until either side writes again.
	grand, err := child.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if got := peek(t, grand, 0x1000, 2); !bytes.Equal(got, []byte("Ca")) {
		t.Fatalf("grandchild state: %q", got)
	}
	if f := grand.StoreByte(0x1001, 'G'); f != nil {
		t.Fatal(f)
	}
	if got := peek(t, child, 0x1000, 2); !bytes.Equal(got, []byte("Ca")) {
		t.Fatalf("child sees grandchild write: %q", got)
	}
	if f := child.StoreByte(0x1000, 'D'); f != nil {
		t.Fatal(f)
	}
	if got := peek(t, grand, 0x1000, 2); !bytes.Equal(got, []byte("CG")) {
		t.Fatalf("grandchild sees child's re-write: %q", got)
	}
	if got := peek(t, parent, 0x1000, 2); !bytes.Equal(got, []byte("pa")) {
		t.Fatalf("parent disturbed two forks down: %q", got)
	}
}

func TestForkShadowPages(t *testing.T) {
	// HideM split-TLB forks: data reads see the shared shadow, stores land
	// on a private copy of the real frame, and the shadow itself — frozen —
	// is never written.
	as := NewAddressSpace()
	if _, err := as.Map(0x1000, 1, PermRWX); err != nil {
		t.Fatal(err)
	}
	if err := as.Poke(0x1000, []byte("realcode")); err != nil {
		t.Fatal(err)
	}
	sh := new(Frame)
	copy(sh.Data[:], "shadowed")
	if err := as.ShadowData(0x1000, 1, []*Frame{sh}); err != nil {
		t.Fatal(err)
	}
	child, err := as.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if b, f := child.LoadByte(0x1000); f != nil || b != 's' {
		t.Fatalf("child data read should see shadow: %q %v", b, f)
	}
	if f := child.StoreByte(0x1000, 'W'); f != nil {
		t.Fatal(f)
	}
	// The store broke CoW on the real frame; the shadow still rules reads.
	if b, _ := child.LoadByte(0x1000); b != 's' {
		t.Fatalf("child read after store should still see shadow, got %q", b)
	}
	if got := peek(t, child, 0x1000, 4); !bytes.Equal(got, []byte("Weal")) {
		t.Fatalf("child real frame: %q", got)
	}
	if got := peek(t, as, 0x1000, 4); !bytes.Equal(got, []byte("real")) {
		t.Fatalf("parent real frame disturbed: %q", got)
	}
}

func TestForkRollbackInChild(t *testing.T) {
	// Checkpoint/rollback inside a child must restore the child without
	// touching shared frames — the fuzzing loop's per-iteration pattern.
	parent, child := forkPair(t)
	child.Checkpoint()
	if f := child.StoreByte(0x1000, 'A'); f != nil {
		t.Fatal(f)
	}
	if err := child.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := peek(t, child, 0x1000, 6); !bytes.Equal(got, []byte("parent")) {
		t.Fatalf("child rollback: %q", got)
	}
	// Repeat: the broken (now private) frame stays writable and rollable.
	if f := child.StoreByte(0x1000, 'B'); f != nil {
		t.Fatal(f)
	}
	if err := child.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := peek(t, child, 0x1000, 6); !bytes.Equal(got, []byte("parent")) {
		t.Fatalf("child second rollback: %q", got)
	}
	if got := peek(t, parent, 0x1000, 6); !bytes.Equal(got, []byte("parent")) {
		t.Fatalf("parent disturbed by child rollback: %q", got)
	}
}

func TestForkRollbackRestoresSynonyms(t *testing.T) {
	// A checkpoint-time synonym unmapped before a CoW break must come back
	// (after rollback) still aliasing the SAME frame as its counterpart.
	as := NewAddressSpace()
	frames, err := as.Map(0x1000, 1, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.MapFrames(0x9000, frames, PermRW); err != nil {
		t.Fatal(err)
	}
	child, err := as.Fork()
	if err != nil {
		t.Fatal(err)
	}
	child.Checkpoint()
	if err := child.Unmap(0x9000, 1); err != nil {
		t.Fatal(err)
	}
	if f := child.StoreByte(0x1000, 'Q'); f != nil {
		t.Fatal(f)
	}
	if err := child.Rollback(); err != nil {
		t.Fatal(err)
	}
	a, _ := child.FramesAt(0x1000, 1)
	b, _ := child.FramesAt(0x9000, 1)
	if a[0] != b[0] {
		t.Fatal("rollback resurrected the synonym on a different frame")
	}
	if f := child.StoreByte(0x1000, 'R'); f != nil {
		t.Fatal(f)
	}
	if got, _ := child.LoadByte(0x9000); got != 'R' {
		t.Fatalf("post-rollback synonym not coherent: %q", got)
	}
}

func TestForkWithDirtyUndoLogFails(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Map(0x1000, 1, PermRW); err != nil {
		t.Fatal(err)
	}
	as.Checkpoint()
	if f := as.StoreByte(0x1000, 'D'); f != nil {
		t.Fatal(f)
	}
	if _, err := as.Fork(); err == nil {
		t.Fatal("fork with a dirty undo log should fail")
	}
	if err := as.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Fork(); err != nil {
		t.Fatalf("fork after rollback should succeed: %v", err)
	}
}

func TestZapFrozenPanics(t *testing.T) {
	as := NewAddressSpace()
	frames, err := as.Map(0x1000, 1, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.Fork(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Zap of a frozen frame should panic")
		}
	}()
	frames[0].Zap()
}

func TestForkExecBreakBumpsMapGen(t *testing.T) {
	// Breaking CoW on an executable page must bump mapGen (the decode
	// cache's re-resolution trigger); a data-only break must not (the data
	// TLB is shot down directly instead).
	as := NewAddressSpace()
	if _, err := as.Map(0x1000, 1, PermRWX); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Map(0x2000, 1, PermRW); err != nil {
		t.Fatal(err)
	}
	child, err := as.Fork()
	if err != nil {
		t.Fatal(err)
	}
	g := child.MapGen()
	if f := child.StoreByte(0x2000, 1); f != nil {
		t.Fatal(f)
	}
	if child.MapGen() != g {
		t.Fatal("data-only CoW break bumped mapGen")
	}
	// The dtlb was shot down, so the same vpn re-resolves to the private
	// frame even without a mapGen change.
	if b, _ := child.LoadByte(0x2000); b != 1 {
		t.Fatalf("stale dtlb after data-only break: got %d", b)
	}
	if f := child.StoreByte(0x1000, 0x90); f != nil {
		t.Fatal(f)
	}
	if child.MapGen() == g {
		t.Fatal("executable CoW break did not bump mapGen")
	}
	ef, ok := child.ExecFrame(0x1000)
	if !ok || ef.Data[0] != 0x90 {
		t.Fatal("exec view did not follow the CoW break")
	}
	pf, _ := as.ExecFrame(0x1000)
	if pf.Data[0] == 0x90 {
		t.Fatal("parent exec frame disturbed")
	}
}

func TestForkChildMapGenMatchesParent(t *testing.T) {
	// A forked CPU's cloned decode cache validates against mapGen; the
	// child must present the parent's value or every cloned page would
	// re-resolve (correct but cold).
	parent, child := forkPair(t)
	if parent.MapGen() != child.MapGen() {
		t.Fatalf("mapGen diverged at fork: parent %d child %d", parent.MapGen(), child.MapGen())
	}
}

// TestForkDemandZero: forks share the demand-zero window like any other
// mapping. A child's first store to an untouched page materializes a frame
// in the child alone; sibling forks may materialize the same page at once
// (the shared zero frame is only ever read — run under -race); and a CoW
// break of a region frame through its kernel address repoints the frame's
// physmap entry in the writing space only.
func TestForkDemandZero(t *testing.T) {
	const win, region = 0x100000, 0x9000
	newParent := func(t *testing.T) *AddressSpace {
		t.Helper()
		as := NewAddressSpace()
		if err := as.MapDemandZero(win, 16); err != nil {
			t.Fatal(err)
		}
		return as
	}
	t.Run("child store", func(t *testing.T) {
		parent := newParent(t)
		child, err := parent.Fork()
		if err != nil {
			t.Fatal(err)
		}
		if f := child.Write(win+PageSize, 0xabcd, 8); f != nil {
			t.Fatal(f)
		}
		if v, f := parent.Read(win+PageSize, 8); f != nil || v != 0 {
			t.Fatalf("parent sees the child's store: %#x, %v", v, f)
		}
		if v, _ := child.Read(win+PageSize, 8); v != 0xabcd {
			t.Fatalf("child store lost: %#x", v)
		}
		if got := parent.PhysStats().Materialized; got != 0 {
			t.Fatalf("parent materialized %d pages", got)
		}
		if got := child.PhysStats().Materialized; got != 1 {
			t.Fatalf("child materialized %d pages, want 1", got)
		}
	})
	t.Run("concurrent siblings", func(t *testing.T) {
		parent := newParent(t)
		kids := make([]*AddressSpace, 4)
		for i := range kids {
			c, err := parent.Fork()
			if err != nil {
				t.Fatal(err)
			}
			kids[i] = c
		}
		var wg sync.WaitGroup
		for i, c := range kids {
			wg.Add(1)
			go func(i int, c *AddressSpace) {
				defer wg.Done()
				c.Checkpoint()
				for round := 0; round < 3; round++ {
					for p := uint64(0); p < 16; p++ {
						if b, f := c.LoadByte(win + p*PageSize); f != nil || b != 0 {
							t.Errorf("sibling %d: untouched page %d reads %#x, %v", i, p, b, f)
						}
						if f := c.StoreByte(win+p*PageSize, byte(i+1)); f != nil {
							t.Error(f)
						}
					}
					if err := c.Rollback(); err != nil {
						t.Error(err)
					}
				}
				if f := c.StoreByte(win, byte(i+1)); f != nil {
					t.Error(f)
				}
			}(i, c)
		}
		wg.Wait()
		for i, c := range kids {
			if b, _ := c.LoadByte(win); b != byte(i+1) {
				t.Errorf("sibling %d reads %d, want its own store", i, b)
			}
		}
		if b, _ := parent.LoadByte(win); b != 0 {
			t.Fatalf("parent disturbed: %d", b)
		}
	})
	t.Run("region break repoints physmap", func(t *testing.T) {
		parent := newParent(t)
		frames, err := parent.FramesAt(win+3*PageSize, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := parent.MapFrames(region, frames, PermRW); err != nil {
			t.Fatal(err)
		}
		if err := parent.Poke(region, []byte("data")); err != nil {
			t.Fatal(err)
		}
		child, err := parent.Fork()
		if err != nil {
			t.Fatal(err)
		}
		if f := child.StoreByte(region, 'D'); f != nil {
			t.Fatal(f)
		}
		if got := peek(t, child, win+3*PageSize, 4); !bytes.Equal(got, []byte("Data")) {
			t.Fatalf("child physmap synonym not repointed: %q", got)
		}
		cr, _ := child.FramesAt(region, 1)
		cp, _ := child.FramesAt(win+3*PageSize, 1)
		if cr[0] != cp[0] || cr[0] == frames[0] {
			t.Fatal("child synonyms must share one private frame")
		}
		if got := peek(t, parent, win+3*PageSize, 4); !bytes.Equal(got, []byte("data")) {
			t.Fatalf("parent physmap entry disturbed: %q", got)
		}
		if pp, _ := parent.FramesAt(win+3*PageSize, 1); pp[0] != frames[0] {
			t.Fatal("parent physmap entry repointed by the child's break")
		}
	})
}
