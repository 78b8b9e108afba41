// Copy-on-write forking of address spaces.
//
// Freeze marks every frame reachable from the page table, the shadow map,
// and the armed checkpoint as frozen — immutable forever. Fork then clones
// the page table itself (one slice copy) into a child space that shares
// every frozen frame with its parent. Any write, in parent or child, breaks
// the sharing for that frame first: breakCoW copies the frame, repoints
// every synonym mapping of the *writing* space at the copy, and leaves the
// frozen original — and therefore every other member of the fork family —
// untouched.
//
// Why consumers' warm caches survive forking: the CPU's decode cache and
// superblock chains validate cached views against frame identity plus
// Frame.Gen, and cached translations against MapGen. A frozen frame's gen
// never changes, so decode-cache pages cloned into a forked CPU stay valid
// indefinitely; a CoW break substitutes a NEW frame (fresh identity, higher
// gen) behind a MapGen bump whenever an executable mapping moves, which the
// existing validation catches exactly like a text_poke remap. No new
// invalidation protocol is needed — immutability plus the generation
// machinery already on hand do all the work.

package mem

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// CowStats reports copy-on-write frame sharing for one address space.
type CowStats struct {
	// SharedFrames is the number of distinct frames this space may still
	// share with its fork family: the count frozen at the last Freeze scan,
	// minus the ones this space has privatized since.
	SharedFrames uint64
	// Breaks counts the CoW breaks this space performed.
	Breaks uint64
	// PrivateFrames is the number of private frame copies this space
	// allocated — equal to Breaks (a break privatizes exactly one frame),
	// kept separate because the two answer different capacity questions.
	PrivateFrames uint64
}

// CowStats returns a snapshot of the space's copy-on-write counters.
func (as *AddressSpace) CowStats() CowStats {
	s := CowStats{Breaks: as.cowBreaks, PrivateFrames: as.cowBreaks}
	if as.frozenFrames > as.cowBreaks {
		s.SharedFrames = as.frozenFrames - as.cowBreaks
	}
	return s
}

// Freeze marks every frame reachable from the page table, the data-shadow
// map, and the armed checkpoint as frozen, and records the synonym sets of
// multi-mapped frames so a later CoW break can repoint them together. It is
// the preparation step of Fork and is idempotent; frames only ever go
// unfrozen→frozen, never back.
//
// Freezing with dirtied frames in the undo log is an error: Rollback would
// later restore their pre-images in place, mutating frames that forks might
// share by then. Roll back (or checkpoint afresh) first.
func (as *AddressSpace) Freeze() error {
	if len(as.undo) > 0 {
		return fmt.Errorf("mem: freeze with %d dirty frames in the undo log (rollback first)", len(as.undo))
	}
	// seen holds the first page number each frame is mapped at; a frame
	// seen at a second one moves its list into aliases. Most frames have
	// one mapping, so most never allocate a list.
	seen := make(map[*Frame]uint64, len(as.pages))
	aliases := make(map[*Frame][]uint64) // a fresh map, never an edit of the old one: forks share alias maps
	note := func(f *Frame, v uint64) {
		first, ok := seen[f]
		if !ok {
			seen[f] = v
			return
		}
		vs := aliases[f]
		if vs == nil {
			vs = []uint64{first}
		}
		aliases[f] = append(vs, v)
	}
	for _, e := range as.pages {
		if f := e.pg.frame; f != nil { // tombstones hold no frame
			note(f, e.vpn)
		}
	}
	as.frozenFrames = uint64(len(seen))
	// Checkpoint-time mappings matter too: a structural Rollback can remap a
	// frame at synonyms the current page table no longer shows, and a break
	// after that must know to repoint them as well.
	for _, e := range as.snapPages {
		f := e.pg.frame
		if f == nil {
			continue
		}
		if cur, ok := as.pages.get(e.vpn); !ok || cur.frame != f {
			note(f, e.vpn)
		}
	}
	for f := range seen {
		// Write the frozen bit only when it flips: re-freezing a family's
		// long-shared frames must not issue writes that would race with
		// sibling forks concurrently reading them.
		if !f.frozen {
			f.frozen = true
		}
	}
	for _, vs := range aliases {
		slices.Sort(vs)
	}
	as.aliases = aliases
	for _, sh := range as.shadow {
		if !sh.frozen {
			sh.frozen = true
		}
	}
	for _, sh := range as.snapShadow {
		if !sh.frozen {
			sh.frozen = true
		}
	}
	as.frozenClean = true
	return nil
}

// Fork returns a copy-on-write child of the address space: a structural
// clone of the page table (and shadow map) sharing every frame with the
// parent. The child inherits the parent's mapGen — cached translations
// cloned alongside (a forked CPU's decode cache) remain valid — but not its
// checkpoint state: the child arms its own with Checkpoint.
//
// Fork freezes the space first if anything unfrozen is reachable (the first
// fork always pays this scan; consecutive forks of an untouched parent are
// a handful of map clones). Forking with a dirty undo log is an error, for
// the reason Freeze documents.
func (as *AddressSpace) Fork() (*AddressSpace, error) {
	if !as.frozenClean {
		if err := as.Freeze(); err != nil {
			return nil, fmt.Errorf("mem: fork: %w", err)
		}
	}
	return &AddressSpace{
		pages:        as.pages.clone(),
		winBase:      as.winBase,
		winPages:     as.winPages,
		EPT:          as.EPT,
		shadow:       maps.Clone(as.shadow),
		ranges:       as.ranges,
		mapGen:       as.mapGen,
		aliases:      as.aliases,
		frozenFrames: as.frozenFrames,
		frozenClean:  true,
	}, nil
}

// breakCoW privatizes the frozen frame mapped at virtual page number v: it
// allocates a private copy and repoints every mapping of that frame in THIS
// space — v's synonyms included — at the copy, leaving the frozen original
// (shared with the rest of the fork family) untouched. The copy's content
// generation starts above the original's, so any cached derived view of the
// old bytes fails its generation compare. mapGen is bumped only when an
// executable mapping moved: data-only breaks stay invisible to the decode
// cache and block engine, whose views cover executable pages only.
//
// Armed checkpoints are rewritten alongside: a snapPages entry holding the
// frozen frame switches to the private copy, which holds byte-identical
// contents (Freeze and Fork require a clean undo log, so a frozen frame
// always still carries its checkpoint-time bytes). Rollback then restores
// the private copy's pre-image from the undo log exactly as if the space
// had never been forked.
//
// The shared zero frame of an untouched demand-zero page has no synonyms
// and no checkpoint entry to rewrite: its break is a materialization.
//
// Returns the private frame, now mapped at v.
func (as *AddressSpace) breakCoW(v uint64) *Frame {
	pg, _ := as.lookup(v)
	if pg == zeroPage {
		return as.materialize(v, PermRW)
	}
	f := pg.frame
	pf := new(Frame)
	pf.Data = f.Data
	pf.gen = f.gen + 1
	var one [1]uint64
	vs := as.aliases[f]
	if vs == nil {
		one[0] = v
		vs = one[:]
	}
	bumpMap := false
	for _, av := range vs {
		if apg, ok := as.pages.get(av); ok && apg.frame == f {
			as.pages.set(av, &page{frame: pf, perm: apg.perm})
			if apg.perm&PermX != 0 {
				bumpMap = true
			}
			// Data-only breaks do not bump mapGen, so the data TLB cannot
			// self-invalidate; shoot the affected slots down directly.
			if sl := &as.dtlb[av&(dtlbSize-1)]; sl.frame != nil && sl.vpn == av {
				*sl = dtlbEntry{}
			}
		}
		// Rewrite the checkpoint even where the current table no longer maps
		// f (or never did): a structural Rollback puts journaled entries
		// back from snapPages, and checkpoint-time synonyms must come back
		// aliasing ONE frame. Neither rewrite needs a journal entry: where
		// both entries held f they both move to pf, and where only one did
		// the entries already differed, so the vpn is journaled already.
		if s, ok := as.snapPages.get(av); ok && s.frame == f {
			as.snapPages.set(av, &page{frame: pf, perm: s.perm})
		}
	}
	if bumpMap {
		as.mapGen++
	}
	as.cowBreaks++
	as.frozenClean = false
	return pf
}

// registerFrozenAliases refreshes the alias lists of the frozen frames just
// (re)mapped by MapFrames: a frozen frame gaining a new synonym (text_poke
// scratch mappings, the module loader re-aliasing pool frames) must have its
// full mapping set on record, or a later CoW break would repoint only part
// of it. The space gets an edited copy of its alias map, never an edit in
// place, because forks share alias maps.
func (as *AddressSpace) registerFrozenAliases(frames []*Frame) {
	aliases := maps.Clone(as.aliases)
	if aliases == nil {
		aliases = make(map[*Frame][]uint64)
	}
	set := make(map[*Frame]map[uint64]bool, len(frames))
	for _, f := range frames {
		if f.frozen && set[f] == nil {
			set[f] = make(map[uint64]bool)
		}
	}
	add := func(f *Frame, v uint64) {
		if m, ok := set[f]; ok {
			m[v] = true
		}
	}
	for _, t := range []pageTable{as.pages, as.snapPages} {
		for _, e := range t {
			add(e.pg.frame, e.vpn)
		}
	}
	for f, m := range set {
		for _, v := range as.aliases[f] {
			m[v] = true
		}
		vs := make([]uint64, 0, len(m))
		for v := range m {
			vs = append(vs, v)
		}
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		aliases[f] = vs
	}
	as.aliases = aliases
}
