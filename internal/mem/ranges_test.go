package mem

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refRanges is the sort-based algorithm Ranges used before the range list
// was maintained incrementally: sort every mapped page number and fold the
// sorted pages into maximal equal-permission runs. It is the oracle the
// maintained list must match.
func refRanges(perms map[uint64]Perm) []MappedRange {
	if len(perms) == 0 {
		return nil
	}
	vpns := make([]uint64, 0, len(perms))
	for k := range perms {
		vpns = append(vpns, k)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	var out []MappedRange
	cur := MappedRange{Start: vpns[0] << PageShift, End: (vpns[0] + 1) << PageShift, Perm: perms[vpns[0]]}
	for _, v := range vpns[1:] {
		p := perms[v]
		if v<<PageShift == cur.End && p == cur.Perm {
			cur.End += PageSize
			continue
		}
		out = append(out, cur)
		cur = MappedRange{Start: v << PageShift, End: (v + 1) << PageShift, Perm: p}
	}
	return append(out, cur)
}

// pagePerms reads the permissions out of the live page table.
func pagePerms(as *AddressSpace) map[uint64]Perm {
	out := make(map[uint64]Perm, len(as.pages))
	for _, e := range as.pages {
		out[e.vpn] = e.pg.perm
	}
	return out
}

// TestProtectAcrossHole: a Protect span that crosses an unmapped page is
// an error that changes nothing — no page's permissions, no MapGen bump
// (which would be needed to invalidate cached translations), no range.
func TestProtectAcrossHole(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x1000, 2, PermRW)
	mustMap(t, as, 0x4000, 1, PermRW)
	// Warm the data TLB so a partial rewrite would also leave it stale.
	if f := as.Write(0x1000, 1, 8); f != nil {
		t.Fatal(f)
	}
	perms, gen := pagePerms(as), as.MapGen()
	ranges := slices.Clone(as.Ranges())
	if err := as.Protect(0x1000, 4, PermRWX); err == nil {
		t.Fatal("Protect across a hole must fail")
	}
	if got := pagePerms(as); !maps.Equal(got, perms) {
		t.Errorf("pages changed: %v, want %v", got, perms)
	}
	if as.MapGen() != gen {
		t.Errorf("MapGen moved %d -> %d", gen, as.MapGen())
	}
	if got := as.Ranges(); !slices.Equal(got, ranges) {
		t.Errorf("Ranges changed: %v, want %v", got, ranges)
	}
	if f := as.Write(0x1000, 2, 8); f != nil {
		t.Errorf("the page must stay writable: %v", f)
	}
}

// rangeModel is one live address space in the oracle test and the page
// table and data shadows it is expected to hold.
type rangeModel struct {
	as     *AddressSpace
	pages  map[uint64]page   // expected vpn -> frame and perm
	shadow map[uint64]*Frame // expected vpn -> data shadow
	// The expected state at the last Checkpoint; snap is nil before one.
	snap       map[uint64]page
	snapShadow map[uint64]*Frame
}

// modelPerms is pagePerms for a model's page table.
func modelPerms(pages map[uint64]page) map[uint64]Perm {
	out := make(map[uint64]Perm, len(pages))
	for v, pg := range pages {
		out[v] = pg.perm
	}
	return out
}

// Some oracle seeds give their spaces a demand-zero window over these page
// numbers, straddled by the op spans from both sides.
const oracleWinBase, oracleWinPages = 32, 16

func oracleInWindow(v uint64) bool { return v-oracleWinBase < oracleWinPages }

// modelMapped reports whether the model maps page v: an entry that is not
// a tombstone, or an untouched page of the window.
func modelMapped(pages map[uint64]page, win bool, v uint64) bool {
	if pg, ok := pages[v]; ok {
		return pg.frame != nil
	}
	return win && oracleInWindow(v)
}

// effectivePerms is what the model maps: the window's RW pages overridden
// by explicit entries, tombstones removed.
func effectivePerms(pages map[uint64]page, win bool) map[uint64]Perm {
	out := make(map[uint64]Perm, len(pages)+oracleWinPages)
	if win {
		for v := uint64(oracleWinBase); v < oracleWinBase+oracleWinPages; v++ {
			out[v] = PermRW
		}
	}
	for v, pg := range pages {
		if pg.frame == nil {
			delete(out, v)
		} else {
			out[v] = pg.perm
		}
	}
	return out
}

// modelPhys is PhysStats for a model.
func modelPhys(pages map[uint64]page, win bool) PhysStats {
	if !win {
		return PhysStats{}
	}
	s := PhysStats{Pages: oracleWinPages}
	for v, pg := range pages {
		switch {
		case !oracleInWindow(v):
		case pg.frame == nil:
			s.Holes++
		default:
			s.Materialized++
		}
	}
	return s
}

// pageValues copies a page table's entries by value: a CoW break gives
// pages and snapPages separate but equal structs for the same vpn.
func pageValues(t pageTable) map[uint64]page {
	out := make(map[uint64]page, len(t))
	for _, e := range t {
		out[e.vpn] = *e.pg
	}
	return out
}

// sortedTable reports whether a page table's vpns strictly increase: a
// duplicate or misplaced entry would hide from lookups.
func sortedTable(t pageTable) bool {
	for i := 1; i < len(t); i++ {
		if t[i-1].vpn >= t[i].vpn {
			return false
		}
	}
	return true
}

// topVPN is one past the highest page number: a range ending there has an
// End that wraps to 0.
const topVPN = 1 << (64 - PageShift)

// TestRangesOracle runs random Map/Unmap/Protect/ShadowData
// sequences — spans across holes and at the top of the address space
// included — mixed with Poke (CoW breaks once a space has forked, which
// bump MapGen when the page is executable), Checkpoint/Rollback, and Fork
// over up to four live spaces. Odd seeds start with a demand-zero window:
// untouched window pages must read zero, and a store, Poke or Protect gives
// one a private frame as an explicit entry; Unmap leaves tombstones, which
// Map covers again. After every operation each space's page table
// (tombstones included) and shadows must equal its model frame for frame,
// Ranges() must equal the sort-based reference over the model's effective
// mappings, PhysStats must count the model's window entries, and the
// rollback journal must be empty while no checkpoint is armed. After every
// Rollback the live table and shadows must equal the checkpointed ones
// entry for entry, with the journal empty.
func TestRangesOracle(t *testing.T) {
	perms := []Perm{0, PermR, PermRW, PermRX, PermRWX}
	execBreaks, zeroStores := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		win := seed%2 == 1
		root := NewAddressSpace()
		if win {
			if err := root.MapDemandZero(oracleWinBase<<PageShift, oracleWinPages); err != nil {
				t.Fatal(err)
			}
		}
		spaces := []*rangeModel{{as: root, pages: map[uint64]page{}, shadow: map[uint64]*Frame{}}}
		frozen := map[*Frame]bool{} // frames some Fork froze
		for step := 0; step < 400; step++ {
			m := spaces[rng.Intn(len(spaces))]
			// Spans come from a low window or the top of the space.
			n := 1 + rng.Intn(6)
			base := uint64(16 + rng.Intn(48))
			if rng.Intn(4) == 0 {
				base = topVPN - uint64(n+rng.Intn(24-n))
			}
			va := base << PageShift
			span := func(mapped bool) bool { // every page of the span is (un)mapped
				for i := uint64(0); i < uint64(n); i++ {
					if modelMapped(m.pages, win, base+i) != mapped {
						return false
					}
				}
				return true
			}
			// untouched reports whether page v reads through to the zero frame.
			untouched := func(v uint64) bool {
				_, ok := m.pages[v]
				return win && !ok && oracleInWindow(v)
			}
			// materialized checks that a window page the op just touched got a
			// fresh private frame, and records it in the model.
			materialized := func(v uint64, p Perm) {
				pg, ok := m.as.pages.get(v)
				if !ok || pg.frame == nil || pg.frame == zeroFrame || frozen[pg.frame] {
					t.Fatalf("seed %d step %d: page %#x was not materialized: %+v", seed, step, v, pg)
				}
				m.pages[v] = page{frame: pg.frame, perm: p}
			}
			gen := m.as.MapGen()
			var err error
			var want bool // the op must succeed
			op := rng.Intn(100)
			switch {
			case op < 26:
				p := perms[rng.Intn(len(perms))]
				var frames []*Frame
				frames, err = m.as.Map(va, n, p)
				if want = span(false); want && err == nil {
					for i := uint64(0); i < uint64(n); i++ {
						m.pages[base+i] = page{frame: frames[i], perm: p}
					}
				}
			case op < 42:
				err = m.as.Unmap(va, n)
				if want = span(true); want {
					for i := uint64(0); i < uint64(n); i++ {
						if win && oracleInWindow(base+i) {
							m.pages[base+i] = page{} // tombstone
						} else {
							delete(m.pages, base+i)
						}
					}
				}
			case op < 62:
				p := perms[rng.Intn(len(perms))]
				fresh := make([]bool, n)
				for i := range fresh {
					fresh[i] = untouched(base + uint64(i))
				}
				err = m.as.Protect(va, n, p)
				if want = span(true); want {
					for i := uint64(0); i < uint64(n); i++ {
						if fresh[i] {
							materialized(base+i, p)
						} else {
							m.pages[base+i] = page{frame: m.pages[base+i].frame, perm: p}
						}
					}
				}
			case op < 67:
				frames := make([]*Frame, n)
				for i := range frames {
					frames[i] = new(Frame)
				}
				err = m.as.ShadowData(va, n, frames)
				if want = span(true); want {
					for i := uint64(0); i < uint64(n); i++ {
						m.shadow[base+i] = frames[i]
					}
				}
			case op < 75 && win:
				// A load and a store on a window page: untouched pages read
				// zero, and the store materializes them.
				v := oracleWinBase + uint64(rng.Intn(oracleWinPages))
				wva := v<<PageShift | uint64(rng.Intn(PageSize))
				fresh := untouched(v)
				if fresh {
					if b, f := m.as.LoadByte(wva); f != nil || b != 0 {
						t.Fatalf("seed %d step %d: untouched window page read %#x, %v", seed, step, b, f)
					}
				}
				pg, mapped := m.pages[v]
				writable := fresh || (mapped && pg.frame != nil && pg.perm&PermW != 0)
				want = true // checked here: the store may fault
				if f := m.as.StoreByte(wva, byte(step)|1); (f == nil) != writable {
					t.Fatalf("seed %d step %d: store to window page %#x: %v, want success=%v", seed, step, v, f, writable)
				}
				switch {
				case fresh:
					materialized(v, PermRW)
					zeroStores++
				case writable && frozen[pg.frame]:
					cur, _ := m.as.pages.get(v)
					m.pages[v] = page{frame: cur.frame, perm: pg.perm}
					if s, ok := m.snap[v]; ok && s.frame == pg.frame {
						m.snap[v] = page{frame: m.pages[v].frame, perm: s.perm}
					}
				}
				if _, sh := m.shadow[v]; writable && !sh { // writable perms here are readable too
					if b, f := m.as.LoadByte(wva); f != nil || b != byte(step)|1 {
						t.Fatalf("seed %d step %d: store to window page %#x not read back: %#x, %v", seed, step, v, b, f)
					}
				}
			case op < 80:
				fresh := untouched(base)
				err = m.as.Poke(va, []byte{byte(step)})
				var old page
				old, want = m.pages[base]
				want = want && old.frame != nil
				if fresh {
					want = true
					materialized(base, PermRW)
				}
				if want && frozen[old.frame] {
					// A CoW break: this space, checkpoint included, now
					// maps a private copy; every other space keeps old.
					cur, _ := m.as.pages.get(base)
					pf := cur.frame
					if pf == old.frame {
						t.Fatalf("seed %d step %d: Poke of a frozen frame did not privatize it", seed, step)
					}
					m.pages[base] = page{frame: pf, perm: old.perm}
					if s, ok := m.snap[base]; ok && s.frame == old.frame {
						m.snap[base] = page{frame: pf, perm: s.perm}
					}
					if old.perm&PermX != 0 {
						execBreaks++
					}
				}
			case op < 87:
				m.as.Checkpoint()
				m.snap, m.snapShadow = maps.Clone(m.pages), maps.Clone(m.shadow)
				want = true
			case op < 94:
				err = m.as.Rollback()
				if want = m.snap != nil; want {
					m.pages, m.shadow = maps.Clone(m.snap), maps.Clone(m.snapShadow)
				}
				if err == nil {
					if !maps.Equal(pageValues(m.as.pages), pageValues(m.as.snapPages)) || !maps.Equal(m.as.shadow, m.as.snapShadow) {
						t.Fatalf("seed %d step %d: Rollback left pages or shadow unequal to the checkpoint", seed, step)
					}
					if len(m.as.journal) != 0 {
						t.Fatalf("seed %d step %d: %d journal entries survive Rollback", seed, step, len(m.as.journal))
					}
				}
			case op < 98:
				if len(spaces) < 4 {
					child, ferr := m.as.Fork()
					if ferr == nil {
						for _, pgs := range []map[uint64]page{m.pages, m.snap} {
							for _, pg := range pgs {
								if pg.frame != nil {
									frozen[pg.frame] = true
								}
							}
						}
						for _, shs := range []map[uint64]*Frame{m.shadow, m.snapShadow} {
							for _, f := range shs {
								frozen[f] = true
							}
						}
						spaces = append(spaces, &rangeModel{as: child, pages: maps.Clone(m.pages), shadow: maps.Clone(m.shadow)})
					}
				}
				continue
			default:
				if len(spaces) > 1 {
					i := rng.Intn(len(spaces))
					spaces = append(spaces[:i], spaces[i+1:]...)
				}
				continue
			}
			if (err == nil) != want {
				t.Fatalf("seed %d step %d op %d at %#x+%d: err=%v, want success=%v", seed, step, op, va, n, err, want)
			}
			if err != nil && m.as.MapGen() != gen {
				t.Fatalf("seed %d step %d: a failed op moved MapGen", seed, step)
			}
			for si, s := range spaces {
				if !sortedTable(s.as.pages) || !sortedTable(s.as.snapPages) {
					t.Fatalf("seed %d step %d space %d: page table out of order", seed, step, si)
				}
				if !maps.Equal(pageValues(s.as.pages), s.pages) {
					t.Fatalf("seed %d step %d space %d: page table %v, want %v", seed, step, si, pagePerms(s.as), modelPerms(s.pages))
				}
				if !maps.Equal(s.as.shadow, s.shadow) {
					t.Fatalf("seed %d step %d space %d: %d shadows, want %d", seed, step, si, len(s.as.shadow), len(s.shadow))
				}
				if got, want := s.as.Ranges(), refRanges(effectivePerms(s.pages, win)); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d space %d: Ranges %v, want %v", seed, step, si, got, want)
				}
				if got, want := s.as.PhysStats(), modelPhys(s.pages, win); got != want {
					t.Fatalf("seed %d step %d space %d: PhysStats %+v, want %+v", seed, step, si, got, want)
				}
				if s.as.snapPages == nil && len(s.as.journal) != 0 {
					t.Fatalf("seed %d step %d space %d: %d journal entries without a checkpoint", seed, step, si, len(s.as.journal))
				}
			}
		}
	}
	if execBreaks == 0 {
		t.Fatal("no Poke broke CoW on an executable page: the MapGen-bumping break path went unexercised")
	}
	if zeroStores == 0 {
		t.Fatal("no store reached an untouched window page: materialization went unexercised")
	}
}
