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
	for v, pg := range as.pages {
		out[v] = pg.perm
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
// table it is expected to hold.
type rangeModel struct {
	as    *AddressSpace
	perms map[uint64]Perm // expected vpn -> perm
	snap  map[uint64]Perm // expected page table at the last Checkpoint; nil before
}

// topVPN is one past the highest page number: a range ending there has an
// End that wraps to 0.
const topVPN = 1 << (64 - PageShift)

// TestRangesOracle runs random Map/Unmap/Protect sequences — spans across
// holes and at the top of the address space included — mixed with Poke
// (CoW breaks), Checkpoint/Rollback, and Fork over up to four live spaces.
// After every operation each space's page table must equal its model, and
// Ranges() must equal the sort-based reference over that model.
func TestRangesOracle(t *testing.T) {
	perms := []Perm{0, PermR, PermRW, PermRX, PermRWX}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spaces := []*rangeModel{{as: NewAddressSpace(), perms: map[uint64]Perm{}}}
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
					if _, ok := m.perms[base+i]; ok != mapped {
						return false
					}
				}
				return true
			}
			gen := m.as.MapGen()
			var err error
			var want bool // the op must succeed
			op := rng.Intn(100)
			switch {
			case op < 30:
				p := perms[rng.Intn(len(perms))]
				_, err = m.as.Map(va, n, p)
				if want = span(false); want {
					for i := uint64(0); i < uint64(n); i++ {
						m.perms[base+i] = p
					}
				}
			case op < 50:
				err = m.as.Unmap(va, n)
				if want = span(true); want {
					for i := uint64(0); i < uint64(n); i++ {
						delete(m.perms, base+i)
					}
				}
			case op < 75:
				p := perms[rng.Intn(len(perms))]
				err = m.as.Protect(va, n, p)
				if want = span(true); want {
					for i := uint64(0); i < uint64(n); i++ {
						m.perms[base+i] = p
					}
				}
			case op < 82:
				err = m.as.Poke(va, []byte{byte(step)})
				_, want = m.perms[base]
			case op < 88:
				m.as.Checkpoint()
				m.snap = maps.Clone(m.perms)
				want = true
			case op < 94:
				err = m.as.Rollback()
				if want = m.snap != nil; want {
					m.perms = maps.Clone(m.snap)
				}
			case op < 98:
				if len(spaces) < 4 {
					child, ferr := m.as.Fork()
					if ferr == nil {
						spaces = append(spaces, &rangeModel{as: child, perms: maps.Clone(m.perms)})
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
				if got := pagePerms(s.as); !maps.Equal(got, s.perms) {
					t.Fatalf("seed %d step %d space %d: page table %v, want %v", seed, step, si, got, s.perms)
				}
				if got, want := s.as.Ranges(), refRanges(s.perms); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d space %d: Ranges %v, want %v", seed, step, si, got, want)
				}
			}
		}
	}
}
