// Package mem models physical frames and paged virtual address spaces with
// x86-64 permission semantics. The crucial property, faithfully reproduced
// from the paper's problem statement, is that on x86 the execute permission
// implies read access: a page mapped X can always be read by data loads.
// Native execute-only memory therefore does not exist, and kR^X must enforce
// R^X in software (SFI range checks) or with MPX bound checks.
//
// An AddressSpace can optionally be switched to "EPT mode", modelling the
// nested-page-table hardware used by hypervisor-based schemes (Readactor,
// KHide), where R and X are independent bits. This is the hierarchically-
// privileged baseline kR^X explicitly avoids; it exists here for ablation
// benchmarks.
//
// A space may also declare one demand-zero window: a linear run of RW pages
// that reads as zeros without any page-table entries behind it, which is how
// the kernel's physmap — a direct mapping of all of physical memory — costs
// only the frames a machine actually touches. An untouched window page is
// served by a shared, frozen zero frame; the first store to it (or a Protect,
// or a request for its frame by FramesAt) materializes a private frame as an
// ordinary page-table entry, and unmapping a window page leaves a tombstone
// entry the window rule does not see through. Everything that walks or clones
// the page table (Checkpoint, Rollback, Freeze, Fork) therefore handles only
// the touched part of the window, with no code path of its own.
package mem

import (
	"encoding/binary"
	"fmt"
	"maps"
	"sync/atomic"
)

// Page geometry.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
)

// Perm is a page permission bit set.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << 0
	PermW Perm = 1 << 1
	PermX Perm = 1 << 2

	PermRW  = PermR | PermW
	PermRX  = PermR | PermX
	PermRWX = PermR | PermW | PermX
)

// String renders the permission like "r-x".
func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Frame is a physical page frame. Frames may be mapped at multiple virtual
// addresses (synonyms/aliases), which is how the physmap direct mapping is
// modelled: writes through one mapping are visible through all others.
type Frame struct {
	Data [PageSize]byte

	// gen counts content mutations. Every store path through the address
	// space (StoreByte/StoreBytes, Write, Poke, Rollback's pre-image
	// restore) and Zap bump it, so consumers that cache derived views of
	// the frame's bytes — the CPU's predecoded translation cache — can
	// validate with one integer compare per use. The counter lives on the
	// frame, not the page-table entry, because frames are the physical
	// truth: a write through a synonym mapping (text_poke's scratch alias)
	// must invalidate the view cached under every other virtual address.
	gen uint64

	// undoEpoch caches "this frame is already in the undo log of the
	// address space whose current undo epoch this is" (epochs are globally
	// unique, so a match can only mean that). It spares the store fast
	// path a map probe per store — preimage()'s log-membership test was
	// the single hottest line of a fuzzing iteration. Purely a cache: on
	// a mismatch preimage still consults the log itself.
	undoEpoch uint64

	// frozen marks the frame as potentially shared between a forked address
	// space and the rest of its fork family (see AddressSpace.Freeze). A
	// frozen frame is immutable forever: every store path breaks
	// copy-on-write first — repointing the writing space's mappings at a
	// private copy — so the bytes, gen, and undoEpoch of a frozen frame
	// never change again. That immutability is what lets forks share
	// frames, warm decode caches, and superblocks with their parent without
	// any cross-space invalidation protocol, and without data races between
	// concurrently executing forks.
	frozen bool
}

// Gen returns the frame's content generation. It changes (strictly
// increases) whenever the frame's bytes may have changed.
func (f *Frame) Gen() uint64 { return f.gen }

// Zap clears the frame's contents (used when modules are unloaded, to
// prevent code-layout inference attacks per §5.1.1). Zapping a frozen frame
// panics: the zap would be observable in every fork sharing it. Unload the
// module before forking, or in the fork family's golden parent only.
func (f *Frame) Zap() {
	if f.frozen {
		panic("mem: Zap of a frozen (fork-shared) frame")
	}
	for i := range f.Data {
		f.Data[i] = 0
	}
	f.gen++
}

// FaultKind classifies a memory access fault.
type FaultKind uint8

// Fault kinds.
const (
	FaultNone FaultKind = iota
	FaultNotMapped
	FaultNoRead
	FaultNoWrite
	FaultNoExec
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultNotMapped:
		return "not-mapped"
	case FaultNoRead:
		return "no-read"
	case FaultNoWrite:
		return "no-write"
	case FaultNoExec:
		return "no-exec"
	}
	return "unknown"
}

// Fault describes a failed memory access (the simulation's #PF).
type Fault struct {
	Addr  uint64
	Kind  FaultKind
	Write bool
	Fetch bool
}

// Error implements the error interface.
func (f *Fault) Error() string {
	mode := "read"
	if f.Write {
		mode = "write"
	}
	if f.Fetch {
		mode = "fetch"
	}
	return fmt.Sprintf("page fault: %s at 0x%x (%s)", mode, f.Addr, f.Kind)
}

// page is one page-table entry. Once inserted a page struct is never
// mutated — Protect and CoW breaks replace the struct — so the page table can
// be cloned structurally into a checkpoint (snapPages) or a fork, with both
// sides sharing the immutable entry structs, and a structural Rollback can
// put a checkpointed entry back by pointer. An entry with a nil frame is a
// tombstone: an unmapped page inside the demand-zero window, which the
// window rule would otherwise report as mapped.
type page struct {
	frame *Frame
	perm  Perm
}

// zeroFrame backs every untouched page of a demand-zero window, in every
// address space at once. It is frozen from the start, so every store path
// breaks copy-on-write before reaching it, and for this frame the break
// materializes a private page instead of copying (see breakCoW). Nothing
// ever writes it: concurrently running forks may all read it.
var zeroFrame = &Frame{frozen: true}

// zeroPage is the entry lookup reports for an untouched window page, and
// hole the tombstone Unmap leaves inside the window.
var (
	zeroPage = &page{frame: zeroFrame, perm: PermRW}
	hole     = &page{}
)

// The data-side TLB.
//
// Every data access used to walk the page table — a Go map lookup — per
// byte or per access. The hot exec path (the CPU's load/store/push/pop)
// touches the same handful of pages over and over, so a small direct-mapped
// translation cache (the data-side analogue of the decode cache's 16-entry
// exec-page TLB) turns the steady state into one array index plus one
// generation compare.
//
// Validation is by construction: an entry records the mapGen it was filled
// at, and every structural mutation that could make it stale — Map/Unmap,
// Protect, ShadowData, and a structural Rollback — already bumps
// mapGen, which invalidates every entry at once. No explicit invalidation
// hooks are needed. A content-only Rollback deliberately does NOT bump
// mapGen: it restores frame bytes in place, so the cached page and data
// pointers remain both valid and correct.
//
// What an entry caches and what it must not:
//
//   - frame and perm, copied from the page-table entry, and the permissions
//     derived from them at fill: rd (a data read is allowed) and wr (a
//     store is allowed). A page struct is immutable and every change of a
//     page's frame or permission (Map/Unmap, Protect, materialize) bumps
//     mapGen — a data-only CoW break, which does not, clears the slot
//     itself (breakCoW) — so frame, perm and wr are exact for the entry's
//     lifetime. rd also depends on the EPT flag, a plain field a caller
//     may flip at any time without touching mapGen, so the entry records
//     the EPT value rd was computed under (ept), and the hit accessor for
//     reads (ReadHits) trusts rd only while as.EPT still matches it. The slow paths (LoadByte, Read, ReadRun) re-derive
//     readability from perm and the live flag on every access.
//   - data, the data-READ view: the shadow frame when a HideM shadow is
//     installed, the real frame otherwise. Writes never go through it —
//     they target frame, preserving the split-TLB semantics where
//     stores land on the real frame even while reads see the shadow.
//   - Faults are never cached: an unmapped vpn misses every time.
//
// The hit accessors are the inlinable front of Read and Write for callers
// that specialize by access size (the CPU's compiled load and store thunks):
// one probe decides the hit, and anything else — a miss, a straddle, a
// permission fault, a frozen frame or a frame not yet in the undo log —
// returns nil without counting, so the caller's fallback to Read or Write
// counts and faults exactly as if the accessor had never been asked.
//
// dtlbSize is a power of two; vpn low bits index the array directly.
const dtlbSize = 64

type dtlbEntry struct {
	vpn   uint64
	gen   uint64          // mapGen at fill time
	frame *Frame          // the page's real frame: stores land here
	data  *[PageSize]byte // data-read view (shadow-aware)
	perm  Perm
	rd    bool // data reads allowed, under EPT == ept
	wr    bool // stores allowed (perm has PermW)
	ept   bool // the space's EPT flag when rd was computed
}

// DataTLBStats reports data-TLB behaviour for one address space.
type DataTLBStats struct {
	Hits   uint64
	Misses uint64 // fills; faulting accesses are not cached and count neither
}

// AddressSpace is a sparse paged virtual address space.
type AddressSpace struct {
	pages pageTable

	// The demand-zero window: page numbers [winBase, winBase+winPages) with
	// no pages entry read as zeros with permission RW (see lookup). Entries
	// inside the window override the rule — materialized frames, remapped
	// frames, and tombstones alike.
	winBase, winPages uint64

	// EPT selects hypervisor-style nested-paging semantics where the read
	// and execute bits are independent, enabling native execute-only
	// memory. When false (the default, plain x86-64), X implies R for data
	// reads — the paper's core constraint.
	EPT bool

	// shadow maps virtual page numbers to an alternate frame served to
	// *data* accesses while instruction fetches keep using the real frame
	// — the split-TLB desynchronization trick of HideM (Gionta et al.,
	// §2 of the paper): the ITLB and DTLB of the same virtual address
	// point at different physical pages.
	shadow map[uint64]*Frame

	// mapGen counts page-table structure mutations: Map/MapFrames, Unmap,
	// Protect, ShadowData, and Rollback all bump it. Consumers
	// that cache address translations (the CPU's decode cache) re-resolve
	// a page only when this changes; frame *content* changes are tracked
	// separately, per frame (Frame.Gen). Pure reads — Peek included, which
	// deliberately bypasses permissions but mutates nothing — never bump
	// either counter.
	mapGen uint64

	// Checkpoint state: the page-table structure captured by Checkpoint
	// plus a copy-on-write undo log of frame pre-images, so Rollback can
	// return the space to exactly the checkpointed state (the substrate of
	// Kernel.Snapshot/Restore — crashed fuzzing runs must not poison
	// subsequent iterations).
	snapPages  pageTable
	snapShadow map[uint64]*Frame
	snapRanges []MappedRange
	// journal lists the vpns whose pages or shadow entry changed since the
	// last Checkpoint/Rollback sync point (duplicates allowed), so a
	// structural Rollback puts back just those entries instead of cloning
	// the whole checkpointed table. Every vpn where pages or shadow differs
	// from snapPages or snapShadow is on it. It grows only while a
	// checkpoint is armed; see journalSpan.
	journal []uint64
	undo    map[*Frame]*[PageSize]byte
	// undoEpoch identifies the current undo-log cycle (checkpoint to
	// rollback). Epochs are drawn from a process-global counter so no two
	// spaces — and no two cycles of the same space — ever share one, which
	// is what lets Frame.undoEpoch == undoEpoch prove log membership
	// without touching the map. Refreshed by Checkpoint and by every
	// Rollback (the log empties there, so prior stamps must stop matching).
	undoEpoch uint64
	// snapMapGen is mapGen as of the last Checkpoint/Rollback sync point;
	// when it still matches at Rollback time, no structural mutation
	// happened, the journal is empty, and the structural step is skipped
	// entirely.
	snapMapGen uint64
	// undoPool recycles pre-image buffers across Rollback cycles so the
	// per-iteration restore loop (the fuzzer's hottest mem path) does not
	// re-allocate a 4KB copy per dirtied frame every iteration.
	undoPool      []*[PageSize]byte
	rollbackStats RollbackStats

	// Copy-on-write fork state (see cow.go). aliases maps a frozen frame to
	// every virtual page number it is (or, at freeze time, was in the armed
	// checkpoint) mapped at, so a CoW break can repoint all synonym mappings
	// at the private copy in one step; Freeze and registerFrozenAliases
	// replace the map rather than edit it, so Fork shares it with the child
	// the way ranges are shared. frozenFrames and cowBreaks feed
	// CowStats; frozenClean records that every frame reachable from the page
	// table was frozen by Freeze and nothing unfrozen has been mapped or
	// created since — the invariant Fork needs, letting consecutive forks
	// skip the re-freeze scan.
	aliases      map[*Frame][]uint64
	frozenFrames uint64
	cowBreaks    uint64
	frozenClean  bool

	// ranges is the layout Ranges() reports: the maximal runs of the page
	// table, kept sorted by MapFrames, Unmap and Protect through setRange.
	// A new slice replaces it on every change and it is never written in
	// place, so checkpoints and forks share it as they share page structs.
	ranges []MappedRange

	// The data-side TLB (see the dtlbEntry comment). Entries self-
	// invalidate through the mapGen compare; the stats are cumulative.
	dtlb      [dtlbSize]dtlbEntry
	dtlbStats DataTLBStats
}

// undoEpochCounter feeds nextUndoEpoch. Global (not per-space) because a
// frame mapped into several spaces carries a single undoEpoch stamp: unique
// epochs guarantee a stale stamp can never equal another space's live one.
var undoEpochCounter atomic.Uint64

func nextUndoEpoch() uint64 { return undoEpochCounter.Add(1) }

// NewAddressSpace returns an empty address space with x86 semantics.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{}
}

func vpn(va uint64) uint64 { return va >> PageShift }

// inWindow reports whether page number v lies in the demand-zero window.
func (as *AddressSpace) inWindow(v uint64) bool { return v-as.winBase < as.winPages }

// lookup resolves page number v to its page-table entry: an explicit entry
// if there is one (a tombstone reports unmapped), else the shared zero page
// inside the demand-zero window. Every page-table read goes through here.
func (as *AddressSpace) lookup(v uint64) (*page, bool) {
	if pg, ok := as.pages.get(v); ok {
		return pg, pg.frame != nil
	}
	if as.inWindow(v) {
		return zeroPage, true
	}
	return nil, false
}

// MapDemandZero declares the space's demand-zero window: n RW pages at va
// that read as zeros and get a private frame on first store. A space has at
// most one window, declared before any checkpoint is armed, over pages not
// yet mapped; it is never rolled back or removed, only punched by Unmap.
func (as *AddressSpace) MapDemandZero(va uint64, n int) error {
	if !PageAligned(va) {
		return fmt.Errorf("mem: demand-zero window at unaligned address 0x%x", va)
	}
	if as.winPages != 0 {
		return fmt.Errorf("mem: demand-zero window already declared at 0x%x", as.winBase<<PageShift)
	}
	if as.snapPages != nil {
		return fmt.Errorf("mem: demand-zero window declared under an armed checkpoint")
	}
	base := vpn(va)
	// The table is sorted: the first entry at or above base is the only
	// candidate, so the check is one search, not one per window page.
	if i, _ := as.pages.find(base); i < len(as.pages) && as.pages[i].vpn-base < uint64(n) {
		return fmt.Errorf("mem: page 0x%x already mapped", as.pages[i].vpn<<PageShift)
	}
	as.winBase, as.winPages = base, uint64(n)
	as.ranges = setRange(as.ranges, base, n, PermRW, true)
	as.mapGen++
	return nil
}

// materialize gives the untouched window page v a private zero-filled frame
// as an ordinary page-table entry. It is journaled like any mapping, so a
// Rollback returns the page to demand-zero, and it bumps mapGen: the data
// TLB slot that cached the zero frame for v self-invalidates.
func (as *AddressSpace) materialize(v uint64, perm Perm) *Frame {
	f := new(Frame)
	as.journalSpan(v, 1)
	as.pages.set(v, &page{frame: f, perm: perm})
	as.frozenClean = false
	as.mapGen++
	return f
}

// PhysStats reports how much of the demand-zero window has page-table
// entries behind it.
type PhysStats struct {
	// Pages is the window's size.
	Pages uint64
	// Materialized counts window pages backed by a frame of their own.
	Materialized uint64
	// Holes counts window pages unmapped by a tombstone.
	Holes uint64
}

// PhysStats counts the window's entries in the page table; nothing on a
// hot path keeps the counters.
func (as *AddressSpace) PhysStats() PhysStats {
	s := PhysStats{Pages: as.winPages}
	lo, _ := as.pages.find(as.winBase)
	hi, _ := as.pages.find(as.winBase + as.winPages)
	for _, e := range as.pages[lo:hi] {
		if e.pg.frame == nil {
			s.Holes++
		} else {
			s.Materialized++
		}
	}
	return s
}

// MapGen returns the page-table structure generation. It changes whenever
// a translation cached outside the address space could have gone stale for
// structural reasons: pages mapped, unmapped, re-protected, shadowed, or
// rolled back.
func (as *AddressSpace) MapGen() uint64 { return as.mapGen }

// ExecFrame resolves the frame backing va for instruction fetch: the page
// must be mapped with the execute permission. Fetches always see the real
// frame — HideM data shadows desynchronize only the data view.
func (as *AddressSpace) ExecFrame(va uint64) (*Frame, bool) {
	pg, ok := as.lookup(vpn(va))
	if !ok || pg.perm&PermX == 0 {
		return nil, false
	}
	return pg.frame, true
}

// PageAligned reports whether va is page-aligned.
func PageAligned(va uint64) bool { return va&PageMask == 0 }

// PagesFor returns the number of pages needed to hold size bytes.
func PagesFor(size uint64) int { return int((size + PageMask) >> PageShift) }

// Map allocates fresh frames for n pages at va with the given permissions.
// It returns the frames so callers can alias them elsewhere.
func (as *AddressSpace) Map(va uint64, n int, perm Perm) ([]*Frame, error) {
	if !PageAligned(va) {
		return nil, fmt.Errorf("mem: map at unaligned address 0x%x", va)
	}
	frames := make([]*Frame, n)
	for i := range frames {
		frames[i] = new(Frame)
	}
	if err := as.MapFrames(va, frames, perm); err != nil {
		return nil, err
	}
	return frames, nil
}

// MapFrames maps existing frames at va (creating synonyms if the frames are
// already mapped elsewhere). Inside the demand-zero window only tombstones
// count as unmapped.
func (as *AddressSpace) MapFrames(va uint64, frames []*Frame, perm Perm) error {
	if !PageAligned(va) {
		return fmt.Errorf("mem: map at unaligned address 0x%x", va)
	}
	base := vpn(va)
	for i := range frames {
		if _, exists := as.lookup(base + uint64(i)); exists {
			return fmt.Errorf("mem: page 0x%x already mapped", (base+uint64(i))<<PageShift)
		}
	}
	as.journalSpan(base, len(frames))
	frozen := false
	for i, f := range frames {
		as.pages.set(base+uint64(i), &page{frame: f, perm: perm})
		if f.frozen {
			frozen = true
		} else {
			// An unfrozen frame entered a (possibly) frozen-clean space; the
			// next Fork must re-scan.
			as.frozenClean = false
		}
	}
	if frozen {
		as.registerFrozenAliases(frames)
	}
	as.ranges = setRange(as.ranges, base, len(frames), perm, true)
	as.mapGen++
	return nil
}

// Unmap removes n pages starting at va; inside the demand-zero window each
// becomes a tombstone. Unmapping a hole is an error.
func (as *AddressSpace) Unmap(va uint64, n int) error {
	if !PageAligned(va) {
		return fmt.Errorf("mem: unmap at unaligned address 0x%x", va)
	}
	base := vpn(va)
	for i := 0; i < n; i++ {
		if _, ok := as.lookup(base + uint64(i)); !ok {
			return fmt.Errorf("mem: unmap of unmapped page 0x%x", (base+uint64(i))<<PageShift)
		}
	}
	as.journalSpan(base, n)
	for i := 0; i < n; i++ {
		if v := base + uint64(i); as.inWindow(v) {
			as.pages.set(v, hole)
		} else {
			as.pages.del(v)
		}
	}
	as.ranges = setRange(as.ranges, base, n, 0, false)
	as.mapGen++
	return nil
}

// Protect changes the permissions of n pages starting at va. A span that
// crosses an unmapped page is an error and changes nothing. An untouched
// demand-zero page gets a private frame of its own, like a first store.
func (as *AddressSpace) Protect(va uint64, n int, perm Perm) error {
	if !PageAligned(va) {
		return fmt.Errorf("mem: protect at unaligned address 0x%x", va)
	}
	base := vpn(va)
	for i := 0; i < n; i++ {
		if _, ok := as.lookup(base + uint64(i)); !ok {
			return fmt.Errorf("mem: protect of unmapped page 0x%x", (base+uint64(i))<<PageShift)
		}
	}
	as.journalSpan(base, n)
	for i := 0; i < n; i++ {
		v := base + uint64(i)
		pg, _ := as.lookup(v)
		if pg == zeroPage {
			as.materialize(v, perm)
			continue
		}
		// Replace, never mutate: the struct may be shared with a checkpoint
		// or a fork (see the page type comment).
		as.pages.set(v, &page{frame: pg.frame, perm: perm})
	}
	as.ranges = setRange(as.ranges, base, n, perm, true)
	as.mapGen++
	return nil
}

// Mapped reports whether va falls on a mapped page.
func (as *AddressSpace) Mapped(va uint64) bool {
	_, ok := as.lookup(vpn(va))
	return ok
}

// PermAt returns the permissions of the page containing va.
func (as *AddressSpace) PermAt(va uint64) (Perm, bool) {
	pg, ok := as.lookup(vpn(va))
	if !ok {
		return 0, false
	}
	return pg.perm, true
}

// FramesAt returns the n frames mapped starting at page-aligned va. An
// untouched demand-zero page is materialized first, so the frame handed out
// is the one every later access through va sees — mapping it elsewhere
// creates a true synonym.
func (as *AddressSpace) FramesAt(va uint64, n int) ([]*Frame, error) {
	if !PageAligned(va) {
		return nil, fmt.Errorf("mem: FramesAt unaligned address 0x%x", va)
	}
	base := vpn(va)
	for i := 0; i < n; i++ {
		if _, ok := as.lookup(base + uint64(i)); !ok {
			return nil, fmt.Errorf("mem: FramesAt unmapped page 0x%x", (base+uint64(i))<<PageShift)
		}
	}
	out := make([]*Frame, n)
	for i := range out {
		v := base + uint64(i)
		pg, _ := as.lookup(v)
		if pg == zeroPage {
			out[i] = as.materialize(v, PermRW)
		} else {
			out[i] = pg.frame
		}
	}
	return out, nil
}

// readable reports whether a data read of the page is permitted under the
// address space's semantics.
func (as *AddressSpace) readable(p Perm) bool {
	if p&PermR != 0 {
		return true
	}
	// x86: execute implies read. Under EPT (nested paging), it does not.
	return !as.EPT && p&PermX != 0
}

// Readable reports whether a data load at va would succeed: the page is
// mapped and its permissions allow reads. Unlike LoadByte it builds no
// fault when they do not, and it leaves the data TLB alone.
func (as *AddressSpace) Readable(va uint64) bool {
	pg, ok := as.lookup(vpn(va))
	return ok && as.readable(pg.perm)
}

// dataPage resolves a virtual page number for a data access through the
// data-side TLB, filling the entry on a miss. It returns nil when the page
// is unmapped (faults are never cached). Permission checks are the
// caller's: reads re-evaluate readable() per access, writes check wr.
func (as *AddressSpace) dataPage(v uint64) *dtlbEntry {
	e := &as.dtlb[v&(dtlbSize-1)]
	if e.frame != nil && e.gen == as.mapGen && e.vpn == v {
		as.dtlbStats.Hits++
		return e
	}
	pg, ok := as.lookup(v)
	if !ok {
		return nil
	}
	data := &pg.frame.Data
	if as.shadow != nil {
		if sh, ok := as.shadow[v]; ok {
			// HideM split-TLB semantics: the DTLB view differs from the
			// ITLB view — data reads see the shadow frame.
			data = &sh.Data
		}
	}
	*e = dtlbEntry{vpn: v, gen: as.mapGen, frame: pg.frame, data: data, perm: pg.perm,
		rd: as.readable(pg.perm), wr: pg.perm&PermW != 0, ept: as.EPT}
	as.dtlbStats.Misses++
	return e
}

// ReadHits is the hit half of Read for n reads that all lie inside
// [va, va+span), span at most PageSize; a single read of size bytes is
// ReadHits(va, size, 1). When the span stays inside va's page and hits the
// data TLB with read permission, it counts n hits, which is what the n
// reads would have counted one by one (they resolve the same page, so after
// a hit every one of them hits), and returns the page's data-read view
// (shadow-aware, as Read sees it), which the caller indexes with
// va&PageMask. Otherwise it returns nil and counts nothing; the caller then
// calls Read for each read, which resolves the miss, the straddle or the
// fault exactly as it would have anyway.
func (as *AddressSpace) ReadHits(va, span, n uint64) *[PageSize]byte {
	v := va >> PageShift
	e := &as.dtlb[v&(dtlbSize-1)]
	if va&PageMask > PageSize-span || e.vpn != v || e.gen != as.mapGen || !e.rd || e.ept != as.EPT {
		return nil
	}
	as.dtlbStats.Hits += n
	return e.data
}

// WriteHit is the hit half of Write for a size-byte store at va, size at
// most PageSize: when the store stays inside va's page, hits the data TLB
// with write permission, and the page's frame is neither frozen nor outside
// the armed undo log (so Write would neither break copy-on-write nor log a
// pre-image), it counts the hit, bumps the frame's content generation and
// returns the frame's bytes, which the caller must then store into at
// va&PageMask. Otherwise it returns nil and counts nothing, and the caller
// calls Write.
func (as *AddressSpace) WriteHit(va, size uint64) *[PageSize]byte {
	v := va >> PageShift
	e := &as.dtlb[v&(dtlbSize-1)]
	f := e.frame
	if va&PageMask > PageSize-size || e.vpn != v || e.gen != as.mapGen || !e.wr || f.frozen || f.undoEpoch != as.undoEpoch {
		return nil
	}
	as.dtlbStats.Hits++
	f.gen++
	return &f.Data
}

// DataTLBStats returns a snapshot of the data-TLB counters.
func (as *AddressSpace) DataTLBStats() DataTLBStats { return as.dtlbStats }

// LoadByte performs a data load of one byte.
func (as *AddressSpace) LoadByte(va uint64) (byte, *Fault) {
	e := as.dataPage(vpn(va))
	if e == nil {
		return 0, &Fault{Addr: va, Kind: FaultNotMapped}
	}
	if !as.readable(e.perm) {
		return 0, &Fault{Addr: va, Kind: FaultNoRead}
	}
	return e.data[va&PageMask], nil
}

// ShadowData installs a HideM-style data shadow for n pages at va: fetches
// keep executing the real frames while data loads observe the shadow
// (typically zero-filled) frames. Passing nil frames allocates fresh
// zeroed shadows.
func (as *AddressSpace) ShadowData(va uint64, n int, frames []*Frame) error {
	if !PageAligned(va) {
		return fmt.Errorf("mem: shadow at unaligned address 0x%x", va)
	}
	base := vpn(va)
	for i := 0; i < n; i++ {
		if _, ok := as.lookup(base + uint64(i)); !ok {
			return fmt.Errorf("mem: shadow of unmapped page 0x%x", (base+uint64(i))<<PageShift)
		}
	}
	if as.shadow == nil {
		as.shadow = make(map[uint64]*Frame)
	}
	as.journalSpan(base, n)
	for i := 0; i < n; i++ {
		var f *Frame
		if frames != nil {
			f = frames[i]
		} else {
			f = new(Frame)
		}
		if !f.frozen {
			as.frozenClean = false
		}
		as.shadow[base+uint64(i)] = f
	}
	as.mapGen++
	return nil
}

// StoreByte performs a data store of one byte. Stores always land on the
// real frame, never a data shadow — the ITLB/DTLB split desynchronizes
// reads only.
func (as *AddressSpace) StoreByte(va uint64, v byte) *Fault {
	e := as.dataPage(vpn(va))
	if e == nil {
		return &Fault{Addr: va, Kind: FaultNotMapped, Write: true}
	}
	if !e.wr {
		return &Fault{Addr: va, Kind: FaultNoWrite, Write: true}
	}
	f := e.frame
	if f.frozen {
		f = as.breakCoW(vpn(va))
	}
	as.preimage(f)
	f.Data[va&PageMask] = v
	f.gen++
	return nil
}

// preimage records a frame's contents in the undo log before its first
// modification after a checkpoint. Frames already logged keep their original
// (checkpoint-time) pre-image.
func (as *AddressSpace) preimage(f *Frame) {
	if f.frozen {
		// Every store path breaks copy-on-write before reaching here; a
		// frozen frame in the undo log would be restored by Rollback —
		// mutating state shared with every other fork.
		panic("mem: write reached a frozen (fork-shared) frame without a CoW break")
	}
	if as.undo == nil || f.undoEpoch == as.undoEpoch {
		return
	}
	if _, ok := as.undo[f]; ok {
		// Logged, but the stamp was overwritten (a frame shared with
		// another checkpointed space). Re-stamp; the log stays authoritative.
		f.undoEpoch = as.undoEpoch
		return
	}
	var cp *[PageSize]byte
	if n := len(as.undoPool); n > 0 {
		cp = as.undoPool[n-1]
		as.undoPool = as.undoPool[:n-1]
	} else {
		cp = new([PageSize]byte)
	}
	*cp = f.Data
	as.undo[f] = cp
	f.undoEpoch = as.undoEpoch
}

// Checkpoint captures the current page-table structure (mappings, permissions,
// shadows) and begins copy-on-write tracking of frame contents. A subsequent
// Rollback restores the space to this exact state. Calling Checkpoint again
// replaces the previous checkpoint.
func (as *AddressSpace) Checkpoint() {
	// Page structs are immutable once inserted, so the checkpoint is a
	// structural clone sharing the entry structs (maps.Clone of a nil shadow
	// map is nil, which is exactly the no-shadow representation).
	as.snapPages = as.pages.clone()
	as.snapShadow = maps.Clone(as.shadow)
	as.snapRanges = as.ranges
	as.journal = as.journal[:0]
	as.undo = make(map[*Frame]*[PageSize]byte)
	as.undoEpoch = nextUndoEpoch()
	as.snapMapGen = as.mapGen
}

// Rollback restores the space to the state captured by the last Checkpoint:
// every modified frame gets its pre-image back, and every page-table entry
// mapped, unmapped, re-protected or (un)shadowed since is put back. The
// checkpoint stays armed, so Rollback can be called repeatedly — the fuzzing
// loop restores once per iteration.
func (as *AddressSpace) Rollback() error {
	if as.snapPages == nil {
		return fmt.Errorf("mem: rollback without a checkpoint")
	}
	// Content: restore only the frames dirtied since the last restore, and
	// recycle their pre-image buffers. The undo log empties here, so the
	// next cycle's work is proportional to what it actually wrote — not to
	// everything ever written since the checkpoint.
	for f, img := range as.undo {
		f.Data = *img
		f.gen++
		as.undoPool = append(as.undoPool, img)
		delete(as.undo, f)
	}
	as.undoEpoch = nextUndoEpoch()
	// Structure: only if a structural mutation (Map/Unmap/Protect/Shadow,
	// or a CoW break of an executable page) happened since the last sync
	// point — mapGen tracks exactly that; plain stores leave it alone. The
	// journal names every entry that can differ from the checkpoint, so the
	// work is proportional to what the cycle changed, not to the table.
	if as.mapGen != as.snapMapGen {
		for _, v := range as.journal {
			if pg, ok := as.snapPages.get(v); ok {
				as.pages.set(v, pg)
			} else {
				as.pages.del(v)
			}
			if sh, ok := as.snapShadow[v]; ok {
				as.shadow[v] = sh
			} else {
				delete(as.shadow, v)
			}
		}
		as.rollbackStats.Structural++
		as.rollbackStats.Journaled += uint64(len(as.journal))
		as.journal = as.journal[:0]
		as.ranges = as.snapRanges
		// The replay can remap frames that were unmapped when Freeze last
		// scanned; be conservative and let the next Fork re-scan.
		as.frozenClean = false
		as.mapGen++
		as.snapMapGen = as.mapGen
	}
	as.rollbackStats.Rollbacks++
	return nil
}

// journalSpan records that the pages or shadow entries of the n pages from
// page number base are about to change, so a structural Rollback can put
// them back. Without an armed checkpoint there is nothing to roll back to
// and nothing is recorded: boot's mappings never grow the journal.
func (as *AddressSpace) journalSpan(base uint64, n int) {
	if as.snapPages == nil {
		return
	}
	for i := 0; i < n; i++ {
		as.journal = append(as.journal, base+uint64(i))
	}
}

// RollbackStats counts one address space's Rollbacks.
type RollbackStats struct {
	// Rollbacks counts every successful Rollback.
	Rollbacks uint64
	// Structural counts the Rollbacks that found the page-table structure
	// changed since the last sync point and put entries back.
	Structural uint64
	// Journaled is the total of journal entries those Rollbacks replayed.
	Journaled uint64
}

// RollbackStats returns a snapshot of the rollback counters.
func (as *AddressSpace) RollbackStats() RollbackStats { return as.rollbackStats }

// Read performs a little-endian data load of size bytes (1, 2, 4, or 8).
// Accesses contained in one page resolve that page once through the data
// TLB and load word-at-a-time; only accesses straddling a page boundary
// fall back to the byte loop (whose per-byte faults are the partial-
// progress semantics). Fault outcomes are identical on both paths: the
// in-page case cannot make partial progress, so the first failing byte —
// which the byte loop would report — is the access's own first byte.
func (as *AddressSpace) Read(va uint64, size uint8) (uint64, *Fault) {
	if va&PageMask+uint64(size) <= PageSize {
		e := as.dataPage(vpn(va))
		if e == nil {
			return 0, &Fault{Addr: va, Kind: FaultNotMapped}
		}
		if !as.readable(e.perm) {
			return 0, &Fault{Addr: va, Kind: FaultNoRead}
		}
		off := va & PageMask
		switch size {
		case 8:
			return binary.LittleEndian.Uint64(e.data[off : off+8]), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(e.data[off : off+4])), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(e.data[off : off+2])), nil
		case 1:
			return uint64(e.data[off]), nil
		}
		var v uint64
		for i := uint8(0); i < size; i++ {
			v |= uint64(e.data[off+uint64(i)]) << (8 * i)
		}
		return v, nil
	}
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

// Write performs a little-endian data store of size bytes. Like Read, the
// in-page case resolves the page once and stores word-at-a-time; page
// straddlers keep the byte loop and its partial-progress fault semantics.
func (as *AddressSpace) Write(va uint64, v uint64, size uint8) *Fault {
	if va&PageMask+uint64(size) <= PageSize {
		e := as.dataPage(vpn(va))
		if e == nil {
			return &Fault{Addr: va, Kind: FaultNotMapped, Write: true}
		}
		if !e.wr {
			return &Fault{Addr: va, Kind: FaultNoWrite, Write: true}
		}
		f := e.frame
		if f.frozen {
			f = as.breakCoW(vpn(va))
		}
		as.preimage(f)
		off := va & PageMask
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(f.Data[off:off+8], v)
		case 4:
			binary.LittleEndian.PutUint32(f.Data[off:off+4], uint32(v))
		case 2:
			binary.LittleEndian.PutUint16(f.Data[off:off+2], uint16(v))
		case 1:
			f.Data[off] = byte(v)
		default:
			for i := uint8(0); i < size; i++ {
				f.Data[off+uint64(i)] = byte(v >> (8 * i))
			}
		}
		f.gen++
		return nil
	}
	for i := uint8(0); i < size; i++ {
		if f := as.StoreByte(va+uint64(i), byte(v>>(8*i))); f != nil {
			return f
		}
	}
	return nil
}

// ReadRun resolves va through the data TLB and returns the data-read view
// (shadow-aware, like Read) of its page from va to the page end. The caller
// owns splitting accesses at the page boundary; the window never spans one.
// Built for the CPU's REP string fast path: one translation and permission
// check covers a whole in-page run instead of one per element.
func (as *AddressSpace) ReadRun(va uint64) ([]byte, *Fault) {
	e := as.dataPage(vpn(va))
	if e == nil {
		return nil, &Fault{Addr: va, Kind: FaultNotMapped}
	}
	if !as.readable(e.perm) {
		return nil, &Fault{Addr: va, Kind: FaultNoRead}
	}
	return e.data[va&PageMask:], nil
}

// WriteRun is ReadRun's store-side counterpart: it returns a writable window
// over va's page from va to the page end, targeting the real frame (never a
// data shadow, same as Write). The pre-image is logged and the content
// generation bumped before the window is handed out, so the caller may store
// through it directly; callers must request a window only when they will
// write at least one byte.
func (as *AddressSpace) WriteRun(va uint64) ([]byte, *Fault) {
	e := as.dataPage(vpn(va))
	if e == nil {
		return nil, &Fault{Addr: va, Kind: FaultNotMapped, Write: true}
	}
	if !e.wr {
		return nil, &Fault{Addr: va, Kind: FaultNoWrite, Write: true}
	}
	f := e.frame
	if f.frozen {
		f = as.breakCoW(vpn(va))
	}
	as.preimage(f)
	f.gen++
	return f.Data[va&PageMask:], nil
}

// Fetch reads up to len(buf) instruction bytes at va. Fetching requires the
// execute permission. It returns the number of bytes fetched, stopping early
// at a non-executable or unmapped page boundary (a fault is returned only if
// no bytes at all could be fetched).
func (as *AddressSpace) Fetch(va uint64, buf []byte) (int, *Fault) {
	n := 0
	for n < len(buf) {
		a := va + uint64(n)
		pg, ok := as.lookup(vpn(a))
		if !ok {
			if n == 0 {
				return 0, &Fault{Addr: va, Kind: FaultNotMapped, Fetch: true}
			}
			return n, nil
		}
		if pg.perm&PermX == 0 {
			if n == 0 {
				return 0, &Fault{Addr: va, Kind: FaultNoExec, Fetch: true}
			}
			return n, nil
		}
		n += copy(buf[n:], pg.frame.Data[a&PageMask:])
	}
	return n, nil
}

// LoadBytes copies n bytes at va into a fresh slice, honouring read
// permissions (used by loaders, debuggers, and the attack framework's
// "arbitrary read" plumbing).
func (as *AddressSpace) LoadBytes(va uint64, n int) ([]byte, *Fault) {
	out := make([]byte, n)
	for i := 0; i < n; {
		a := va + uint64(i)
		pg, ok := as.lookup(vpn(a))
		if !ok {
			return nil, &Fault{Addr: a, Kind: FaultNotMapped}
		}
		if !as.readable(pg.perm) {
			return nil, &Fault{Addr: a, Kind: FaultNoRead}
		}
		src := &pg.frame.Data
		if as.shadow != nil {
			if sh, ok := as.shadow[vpn(a)]; ok {
				src = &sh.Data
			}
		}
		i += copy(out[i:], src[a&PageMask:])
	}
	return out, nil
}

// StoreBytes stores b at va, honouring write permissions. On a fault,
// bytes on preceding pages have already been stored (the same partial
// progress a byte-at-a-time store would make) and the fault names the
// first unwritable byte.
func (as *AddressSpace) StoreBytes(va uint64, b []byte) *Fault {
	for i := 0; i < len(b); {
		a := va + uint64(i)
		pg, ok := as.lookup(vpn(a))
		if !ok {
			return &Fault{Addr: a, Kind: FaultNotMapped, Write: true}
		}
		if pg.perm&PermW == 0 {
			return &Fault{Addr: a, Kind: FaultNoWrite, Write: true}
		}
		f := pg.frame
		if f.frozen {
			f = as.breakCoW(vpn(a))
		}
		as.preimage(f)
		i += copy(f.Data[a&PageMask:], b[i:])
		f.gen++
	}
	return nil
}

// Poke stores bytes ignoring permissions. It models privileged installation
// of memory contents (boot-time image loading, the module loader writing
// text through the still-mapped physmap synonym) and is not reachable from
// emulated code.
func (as *AddressSpace) Poke(va uint64, b []byte) error {
	for i := 0; i < len(b); {
		a := va + uint64(i)
		pg, ok := as.lookup(vpn(a))
		if !ok {
			return fmt.Errorf("mem: poke of unmapped page 0x%x", a)
		}
		f := pg.frame
		if f.frozen {
			f = as.breakCoW(vpn(a))
		}
		as.preimage(f)
		i += copy(f.Data[a&PageMask:], b[i:])
		f.gen++
	}
	return nil
}

// Peek loads bytes ignoring permissions (host-side inspection, e.g. by the
// evaluation harness when comparing images).
func (as *AddressSpace) Peek(va uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := 0; i < n; {
		a := va + uint64(i)
		pg, ok := as.lookup(vpn(a))
		if !ok {
			return nil, fmt.Errorf("mem: peek of unmapped page 0x%x", a)
		}
		i += copy(out[i:], pg.frame.Data[a&PageMask:])
	}
	return out, nil
}

// PeekUint64 loads the little-endian word at va ignoring permissions, as
// Peek(va, 8) does, without allocating. ok is false if a page the word
// touches is unmapped.
func (as *AddressSpace) PeekUint64(va uint64) (v uint64, ok bool) {
	if off := va & PageMask; off <= PageSize-8 {
		pg, mapped := as.lookup(vpn(va))
		if !mapped {
			return 0, false
		}
		return binary.LittleEndian.Uint64(pg.frame.Data[off:]), true
	}
	for i := uint64(0); i < 8; i++ {
		pg, mapped := as.lookup(vpn(va + i))
		if !mapped {
			return 0, false
		}
		v |= uint64(pg.frame.Data[(va+i)&PageMask]) << (8 * i)
	}
	return v, true
}

// FrameAt returns the frame va's page maps, ignoring permissions and
// without materializing an untouched demand-zero page (which reports the
// shared zero frame). Together with Frame.Gen it lets a host-side reader
// tell whether the bytes Peek would return have changed since it last
// looked.
func (as *AddressSpace) FrameAt(va uint64) (*Frame, bool) {
	pg, ok := as.lookup(vpn(va))
	if !ok {
		return nil, false
	}
	return pg.frame, true
}

// FrozenExecPages calls fn, in ascending address order, for every page the
// page table maps executable onto a frozen frame — the code a fork family
// shares byte for byte, since a frozen frame never changes again. Untouched
// demand-zero pages have no entry of their own and are not visited.
func (as *AddressSpace) FrozenExecPages(fn func(va uint64, f *Frame)) {
	for _, e := range as.pages {
		if pg := e.pg; pg.frame != nil && pg.frame.frozen && pg.perm&PermX != 0 {
			fn(e.vpn<<PageShift, pg.frame)
		}
	}
}

// MappedRange describes a maximal run of contiguously mapped pages with
// identical permissions.
type MappedRange struct {
	Start uint64
	End   uint64 // exclusive
	Perm  Perm
}

// Ranges returns the mapped ranges of the address space in ascending order,
// or nil for an empty space. It is a field read: the list is maintained by
// every page-table mutation. Callers must treat the slice as read-only.
func (as *AddressSpace) Ranges() []MappedRange { return as.ranges }

// span returns r's page-number interval [s, e). The length comes from
// End-Start, which stays right for a run ending at the top of the address
// space (whose End wraps to 0).
func (r MappedRange) span() (s, e uint64) {
	s = r.Start >> PageShift
	return s, s + (r.End-r.Start)>>PageShift
}

// setRange returns rs with the n pages from page number base set to perm
// (mapped) or removed (!mapped), merging neighbours of equal permissions so
// every run stays maximal. rs itself is never written: the result is a new
// slice, nil when nothing is mapped.
func setRange(rs []MappedRange, base uint64, n int, perm Perm, mapped bool) []MappedRange {
	if n <= 0 {
		return rs
	}
	lo, hi := base, base+uint64(n)
	out := make([]MappedRange, 0, len(rs)+2)
	add := func(s, e uint64, p Perm) {
		if s >= e {
			return
		}
		if k := len(out) - 1; k >= 0 {
			if _, ke := out[k].span(); ke == s && out[k].Perm == p {
				out[k].End = e << PageShift
				return
			}
		}
		out = append(out, MappedRange{Start: s << PageShift, End: e << PageShift, Perm: p})
	}
	for _, r := range rs {
		if s, e := r.span(); s < lo {
			add(s, min(e, lo), r.Perm)
		}
	}
	if mapped {
		add(lo, hi, perm)
	}
	for _, r := range rs {
		if s, e := r.span(); e > hi {
			add(max(s, hi), e, r.Perm)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
