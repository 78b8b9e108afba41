package kernel

import (
	"errors"
	"maps"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/kas"
	"repro/internal/mem"
	"repro/internal/sfi"
)

// warmup drives a short, deterministic syscall mix — enough to touch the
// dispatcher, the file layer, and the mm layer so the decode cache has real
// content before a fork.
func warmup(t *testing.T, k *Kernel) {
	t.Helper()
	sysOK(t, k, SysNull)
	sysOK(t, k, SysGetpid)
	if err := k.WriteUser(0, append([]byte("forkfile"), 0)); err != nil {
		t.Fatal(err)
	}
	fd := sysOK(t, k, SysOpen, UserBuf)
	sysOK(t, k, SysWrite, fd, UserBuf+512, 32)
	sysOK(t, k, SysClose, fd)
	base := sysOK(t, k, SysMmap, 2)
	sysOK(t, k, SysMunmap, base, 2)
}

func TestRestoreStaleSnapshot(t *testing.T) {
	k := boot(t, core.Vanilla)
	old := k.Snapshot()
	cur := k.Snapshot()

	err := k.Restore(old)
	var stale *StaleSnapshotError
	if !errors.As(err, &stale) {
		t.Fatalf("Restore(superseded) = %v, want *StaleSnapshotError", err)
	}
	if stale.Foreign || stale.Seq != 1 || stale.Current != 2 {
		t.Fatalf("stale error = %+v, want {Seq:1 Current:2 Foreign:false}", stale)
	}
	// The current snapshot still restores, repeatedly.
	if err := k.Restore(cur); err != nil {
		t.Fatalf("Restore(current): %v", err)
	}
	if err := k.Restore(cur); err != nil {
		t.Fatalf("Restore(current) again: %v", err)
	}
}

func TestRestoreForeignSnapshot(t *testing.T) {
	k1 := boot(t, core.Vanilla)
	k2 := boot(t, core.Vanilla)
	s1 := k1.Snapshot()

	err := k2.Restore(s1)
	var stale *StaleSnapshotError
	if !errors.As(err, &stale) {
		t.Fatalf("Restore(foreign) = %v, want *StaleSnapshotError", err)
	}
	if !stale.Foreign {
		t.Fatalf("stale error = %+v, want Foreign", stale)
	}

	// A fork is a different kernel: the parent's snapshot is foreign to it.
	child, err := k1.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Restore(s1); !errors.As(err, &stale) || !stale.Foreign {
		t.Fatalf("child.Restore(parent snapshot) = %v, want foreign *StaleSnapshotError", err)
	}
	// And the parent still honors it.
	if err := k1.Restore(s1); err != nil {
		t.Fatalf("parent Restore after fork: %v", err)
	}
}

// TestForkWarmCache: a fork of a kernel with a warm decode cache starts
// with an empty one — the cache is host state, not machine state — and
// still replays the warm-up exactly as the warm parent does: same retired
// instructions, same cycles.
func TestForkWarmCache(t *testing.T) {
	k := boot(t, core.Vanilla)
	k.CPU.SetDecodeCache(true)
	warmup(t, k)
	warmup(t, k) // second pass so every path is fully decoded

	child, err := k.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if s := child.CPU.DecodeCacheStats(); s.Pages != 0 || s.Entries != 0 {
		t.Fatalf("fork carried the parent's decode cache: %+v", s)
	}
	if !child.CPU.DecodeCacheEnabled() || !child.CPU.BlockEngineEnabled() {
		t.Fatal("fork dropped the parent's decode-cache or block-engine setting")
	}
	warmup(t, child)
	warmup(t, k)
	if child.CPU.Instrs != k.CPU.Instrs || child.CPU.Cycles != k.CPU.Cycles {
		t.Errorf("cold fork replay: instrs %d cycles %d, warm parent instrs %d cycles %d",
			child.CPU.Instrs, child.CPU.Cycles, k.CPU.Instrs, k.CPU.Cycles)
	}
	if s := child.CPU.DecodeCacheStats(); s.Decoded == 0 {
		t.Error("cold fork replayed the warm-up without decoding")
	}
}

// TestForkPhysmapAliasWrite writes kernel text through its physmap synonym
// inside a fork: both views of the child must agree on the new byte (one
// private frame behind two virtual addresses) while the parent's text — and
// its own synonym — keep the original bytes.
func TestForkPhysmapAliasWrite(t *testing.T) {
	k := boot(t, core.Vanilla)
	text := k.Sym("_text")
	syn, ok := k.Space.SynonymAddr(text)
	if !ok {
		t.Fatal("no physmap synonym for _text under vanilla")
	}
	orig, f := k.Space.AS.Peek(text, 1)
	if f != nil {
		t.Fatal(f)
	}

	child, err := k.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if f := child.Space.AS.StoreBytes(syn, []byte{0xCC}); f != nil {
		t.Fatal(f)
	}
	if b, f := child.Space.AS.Peek(text, 1); f != nil || b[0] != 0xCC {
		t.Fatalf("child text view after synonym write = %v, %v; want CC", b, f)
	}
	if b, f := child.Space.AS.Peek(syn, 1); f != nil || b[0] != 0xCC {
		t.Fatalf("child synonym view = %v, %v; want CC", b, f)
	}
	if b, f := k.Space.AS.Peek(text, 1); f != nil || b[0] != orig[0] {
		t.Fatalf("parent text changed by child write: %v, %v; want %v", b, f, orig)
	}
	if b, f := k.Space.AS.Peek(syn, 1); f != nil || b[0] != orig[0] {
		t.Fatalf("parent synonym changed by child write: %v, %v; want %v", b, f, orig)
	}
	if st := child.Space.AS.CowStats(); st.Breaks == 0 || st.PrivateFrames == 0 {
		t.Errorf("child CowStats after aliased write = %+v, want a recorded break", st)
	}
}

// checkPhysmap asserts the demand-zero physmap's boot invariant: the frames
// with page-table entries in the physmap window are exactly the allocated
// ones (materialized, or tombstoned where kR^X closed a code synonym), and
// every code-synonym address faults not-mapped — the property the audit's
// synonym check reads.
func checkPhysmap(t *testing.T, k *Kernel, when string) {
	t.Helper()
	st, mark := k.Space.AS.PhysStats(), k.Space.Pool.Mark()
	if st.Pages != PhysMemBytes>>mem.PageShift {
		t.Errorf("%s %s: physmap window of %d pages, want %d", k.Cfg.Name(), when, st.Pages, PhysMemBytes>>mem.PageShift)
	}
	if st.Materialized+st.Holes != uint64(mark) {
		t.Errorf("%s %s: %d materialized + %d holes, want the %d allocated frames",
			k.Cfg.Name(), when, st.Materialized, st.Holes, mark)
	}
	var codePages uint64
	for _, r := range k.Img.Layout.Regions {
		if !r.Code || r.Size == 0 || k.Img.Layout.Kind != kas.KRX {
			continue
		}
		for va := r.Start; va < r.End(); va += mem.PageSize {
			codePages++
			syn, _ := k.Space.SynonymAddr(va)
			if _, f := k.Space.AS.LoadByte(syn); f == nil || f.Kind != mem.FaultNotMapped {
				t.Fatalf("%s %s: code synonym %#x of %#x: fault %v, want not-mapped", k.Cfg.Name(), when, syn, va, f)
			}
		}
	}
	if st.Holes != codePages {
		t.Errorf("%s %s: %d physmap holes, want the %d code-synonym pages", k.Cfg.Name(), when, st.Holes, codePages)
	}
}

// TestBootPhysmapDemandZero boots every preset and checks that boot
// materializes exactly what it allocates, and that the code synonyms stay
// closed in a fork and across a Snapshot/Restore that allocated and stored
// into untouched physmap frames in between.
func TestBootPhysmapDemandZero(t *testing.T) {
	for _, cfg := range core.Presets() {
		k, err := Boot(cfg, WithCache())
		if err != nil {
			t.Fatal(err)
		}
		checkPhysmap(t, k, "after boot")
		child, err := k.Fork()
		if err != nil {
			t.Fatal(err)
		}
		checkPhysmap(t, child, "after fork")

		s := k.Snapshot()
		before := k.Space.AS.PhysStats()
		if _, err := k.Space.AllocMapped(2); err != nil {
			t.Fatal(err)
		}
		far := kas.PhysmapAddr(int(before.Pages) - 1)
		if f := k.Space.AS.Write(far, 1, 8); f != nil {
			t.Fatal(f)
		}
		if got := k.Space.AS.PhysStats().Materialized; got != before.Materialized+3 {
			t.Fatalf("%s: %d materialized after 2 allocations and a store, want %d", cfg.Name(), got, before.Materialized+3)
		}
		if err := k.Restore(s); err != nil {
			t.Fatal(err)
		}
		checkPhysmap(t, k, "after restore")
		if v, f := k.Space.AS.Read(far, 8); f != nil || v != 0 {
			t.Fatalf("%s: restored physmap page reads %#x, %v; want demand-zero", cfg.Name(), v, f)
		}
		checkPhysmap(t, child, "after the parent's restore")
	}
}

// TestGoldenForksShareKeys: the forks of one golden share the golden's Keys
// map, which is read-only after boot, instead of each copying it, and the
// map holds what a fresh boot's does.
func TestGoldenForksShareKeys(t *testing.T) {
	cfg := core.Config{
		XOM: core.XOMSFI, SFILevel: sfi.O3,
		Diversify: true, RAProt: diversify.RAEncrypt,
		Seed: 99,
	}
	var forks [2]*Kernel
	for i := range forks {
		k, err := Boot(cfg, WithCache())
		if err != nil {
			t.Fatal(err)
		}
		forks[i] = k
	}
	goldenMu.Lock()
	g := goldens[goldenKey{res: forks[0].Build, cfg: cfg}]
	goldenMu.Unlock()
	if g == nil || g.k == nil {
		t.Fatal("no golden behind the cached boots")
	}
	if want := boot(t, cfg).Keys; len(want) == 0 || !maps.Equal(g.k.Keys, want) {
		t.Fatalf("golden keys %v, want a fresh boot's %v", g.k.Keys, want)
	}
	for i, k := range forks {
		if reflect.ValueOf(k.Keys).UnsafePointer() != reflect.ValueOf(g.k.Keys).UnsafePointer() {
			t.Errorf("fork %d holds its own copy of the golden's keys", i)
		}
	}
}
