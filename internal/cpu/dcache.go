package cpu

import (
	"errors"

	"repro/internal/isa"
	"repro/internal/mem"
)

// The predecoded translation cache.
//
// Kernel text is immutable between rare, explicit patch events, yet the
// baseline Step paid a byte-at-a-time page walk plus a full isa.Decode for
// every executed instruction. The cache decodes each executable page once —
// lazily, from the first offset actually executed up to the next block
// terminator — into {Instr, cost, len} entries indexed by page offset, so the
// steady-state Step is a slice index and a dispatch.
//
// Correctness rests on two generation counters, validated on every lookup:
//
//   - mem.AddressSpace.MapGen() changes whenever the translation structure
//     changes (Map/MapFrames, Unmap, Protect, ShadowData,
//     Rollback). A change forces re-resolution of the page's frame and
//     permissions through ExecFrame; a frame swap or lost PermX is observed
//     here. Cached *page pointers are never held across lookups — Rollback
//     puts checkpointed page structs back in place of the live ones, so
//     only the frame pointer (which the undo log preserves) is cached.
//
//   - mem.Frame.Gen() changes whenever the frame's bytes change (StoreByte,
//     StoreBytes, Write, Poke, Zap, Rollback pre-image restore). Content
//     generations live on the frame, not the virtual page, because frames
//     map at multiple addresses (physmap synonyms, patch.TextPoke's
//     temporary RW alias): a write through any alias must invalidate every
//     mapping's cached decodes. A mismatch flushes the page's entries.
//
// Pure reads (Peek, LoadBytes, Read, Fetch) bump nothing and cost the cache
// nothing.
//
// Page-tail rule: an instruction whose decode window is truncated by the
// page boundary and fails with ErrTruncated is NOT cached — the slow path's
// Fetch may cross into the next executable page and succeed, so the outcome
// depends on bytes outside this frame. Any decode over a full MaxInstrLen
// window, and any in-window deterministic failure (bad opcode / bad
// encoding), depends only on this frame's bytes and is cacheable — including
// the failure itself, which is cached as a deterministic #UD slot.

// DecodeCacheStats reports decode-cache behaviour for one CPU. All counters
// except Pages and Entries are cumulative-on-CPU, under the same reset
// contract as BlockStats: they live on the CPU (CPU.dstats), not on the
// cache they describe, so they survive page flushes, SetDecodeCache
// toggles, and SetBlockEngine toggles, and reset only with the CPU itself
// (a Fork's child restarts at zero). Pages and Entries are the current live
// footprint and read zero while the cache is disabled.
type DecodeCacheStats struct {
	Hits          uint64 // fast-path dispatches from a pre-existing entry
	Misses        uint64 // lookups that had to decode or fall to the slow path
	Decoded       uint64 // instructions decoded into cache entries (ever)
	Invalidations uint64 // page flushes due to frame content changes
	Remaps        uint64 // page frame re-resolutions that swapped the frame
	Pages         uint64 // pages currently tracked
	Entries       uint64 // decoded entries currently live
}

// dcEntry is one predecoded instruction.
type dcEntry struct {
	in    isa.Instr
	cost  uint64
	ilen  uint8
	flags uint8 // dcEnd/dcStore/dcFW/dcFR/dcTrap classification (bcache.go)
}

// dcPage caches the decoded instructions of one executable virtual page,
// plus the superblocks formed over them (bcache.go).
type dcPage struct {
	frame   *mem.Frame // resolved frame; nil when last resolution failed
	fgen    uint64     // frame.Gen() the entries were decoded against
	mgen    uint64     // AddressSpace.MapGen() the frame was resolved at
	entries []dcEntry
	blocks  []dcBlock
	// shared is the SharedBlocks entry of (frame, page address), or nil
	// when the frame is not an eligible frozen frame of the CPU's table.
	// Set whenever the page resolves a new frame; a frozen frame never
	// changes, so no content flush can stale it.
	shared *sharedPage
	// idx maps page offset -> decode slot: 0 = not yet decoded,
	// >0 = entries[idx-1], -1 = deterministic in-page decode failure (#UD).
	// Each offset decodes at most once between flushes, so a page holds at
	// most mem.PageSize entries and the slot fits an int16.
	idx [mem.PageSize]int16
	// blkIdx maps page offset -> superblock: 0 = not yet formed,
	// >0 = blocks[blkIdx-1], -1 = no block can start here (cached #UD or
	// an undecidable page-tail offset). At most one block starts at each
	// offset, so this fits an int16 too.
	blkIdx [mem.PageSize]int16
	// heat counts block-dispatch attempts per entry offset for the hotness
	// gate (bcache.go). Saturating bytes; deliberately NOT cleared by flush —
	// hotness measures the workload, not the cached bytes, so hot code
	// re-forms immediately after an invalidation.
	heat [mem.PageSize]uint8
	// taken has one bit per page offset: set once the conditional branch
	// at that offset has been seen taken (bcache.go). Formation does not
	// continue past such a branch. Like heat it survives flushes.
	taken [mem.PageSize / 64]uint64
}

// seenTaken reports whether the branch at page offset off was ever taken.
func (p *dcPage) seenTaken(off int) bool { return p.taken[off>>6]&(1<<(off&63)) != 0 }

// markTaken records that the branch at page offset off was taken.
func (p *dcPage) markTaken(off int) { p.taken[off>>6] |= 1 << (off & 63) }

// flush discards every cached decode — and every block formed over them —
// on the page.
func (p *dcPage) flush() {
	p.entries = p.entries[:0]
	p.blocks = p.blocks[:0]
	p.idx = [mem.PageSize]int16{}
	p.blkIdx = [mem.PageSize]int16{}
}

// fill decodes forward from off until it has decoded a block terminator
// (dcEnd), the page is exhausted, a previously decoded offset is reached, or
// an uncacheable page-tail decode stops it. Stopping at the terminator keeps
// decoding proportional to what executes: block formation and the single-
// step paths call fill again at any offset they reach that is not decoded.
func (p *dcPage) fill(off int, stats *DecodeCacheStats) {
	data := p.frame.Data[:]
	for off < mem.PageSize && p.idx[off] == 0 {
		end := off + isa.MaxInstrLen
		tail := false
		if end > mem.PageSize {
			end = mem.PageSize
			tail = true
		}
		in, ilen, err := isa.Decode(data[off:end])
		if err != nil {
			if tail && errors.Is(err, isa.ErrTruncated) {
				// The window was cut short by the page boundary: the slow
				// path's fetch may cross into the next executable page and
				// decode successfully, so the outcome depends on bytes this
				// frame does not own. Leave the offset undecided.
				return
			}
			// Deterministic failure on this frame's bytes alone.
			p.idx[off] = -1
			return
		}
		flags := entryFlags(in.Op)
		p.entries = append(p.entries, dcEntry{in: in, cost: in.Cost(), ilen: uint8(ilen), flags: flags})
		p.idx[off] = int16(len(p.entries))
		stats.Decoded++
		if flags&dcEnd != 0 {
			return
		}
		off += ilen
	}
}

// dcTLBSize is the direct-mapped page-translation cache size. Syscall-heavy
// code ping-pongs between the user stub page, the kernel entry page, and a
// handful of handler pages every few instructions; a single hot-page slot
// thrashes on that pattern, while a small direct-mapped array absorbs it.
const dcTLBSize = 16

// decodeCache is the per-CPU translation cache. stats points at the owning
// CPU's cumulative counters (CPU.dstats), so dropping and rebuilding the
// cache never resets them.
type decodeCache struct {
	pages map[uint64]*dcPage // keyed by page base address
	tlb   [dcTLBSize]struct {
		base uint64
		p    *dcPage
	}
	stats  *DecodeCacheStats
	shared *SharedBlocks // the CPU's translation table; nil when unshared
}

func newDecodeCache(stats *DecodeCacheStats, shared *SharedBlocks) *decodeCache {
	return &decodeCache{pages: make(map[uint64]*dcPage), stats: stats, shared: shared}
}

// resolvePage returns the cache page for rip with its frame resolved and
// both generations validated (flushing stale decodes), or nil when the
// address is not executable — the slow path's Fetch produces the
// authoritative fault. Shared by the single step (Step, blockStep's cold
// path) and the superblock lookup, so block entry revalidates exactly what a
// single step would.
func (dc *decodeCache) resolvePage(as *mem.AddressSpace, rip uint64) *dcPage {
	base := rip &^ uint64(mem.PageMask)
	sl := &dc.tlb[(rip>>mem.PageShift)&(dcTLBSize-1)]
	p := sl.p
	if p == nil || sl.base != base {
		p = dc.pages[base]
		if p == nil {
			p = &dcPage{}
			dc.pages[base] = p
		}
		sl.p, sl.base = p, base
	}

	if mgen := as.MapGen(); p.frame == nil || p.mgen != mgen {
		f, xok := as.ExecFrame(rip)
		if !xok {
			p.frame = nil
			dc.stats.Misses++
			return nil
		}
		if f != p.frame {
			if p.frame != nil {
				dc.stats.Remaps++
			}
			p.frame = f
			p.fgen = f.Gen()
			p.flush()
			p.shared = dc.shared.page(f, base)
		}
		p.mgen = mgen
	}
	if g := p.frame.Gen(); g != p.fgen {
		p.flush()
		p.fgen = g
		dc.stats.Invalidations++
	}
	return p
}

// SetDecodeCache enables or disables the predecoded translation cache.
// Disabling drops all cached state (decodes, blocks, links, and the
// hotness counters); the cumulative counters — both DecodeCacheStats and
// the block-engine BlockStats — live on the CPU and survive, so a
// disable/enable cycle never zeroes history (only the live Pages/Entries
// footprint reads zero while off). Execution semantics are bit-identical
// either way — only host wall-clock changes.
func (c *CPU) SetDecodeCache(on bool) {
	if on {
		if c.dc == nil {
			c.dc = newDecodeCache(&c.dstats, c.shared)
		}
		return
	}
	c.dc = nil
}

// DecodeCacheEnabled reports whether the translation cache is active.
func (c *CPU) DecodeCacheEnabled() bool { return c.dc != nil }

// DecodeCacheStats returns a snapshot of the cache counters. Pages and
// Entries reflect the current live footprint (zero while the cache is
// disabled); the rest are cumulative-on-CPU and survive cache toggles —
// the same contract as BlockStats.
func (c *CPU) DecodeCacheStats() DecodeCacheStats {
	s := c.dstats
	if c.dc == nil {
		return s
	}
	s.Pages = uint64(len(c.dc.pages))
	for _, p := range c.dc.pages {
		s.Entries += uint64(len(p.entries))
	}
	return s
}
