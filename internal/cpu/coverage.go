package cpu

import mathbits "math/bits"

// Block-granularity coverage.
//
// A fuzzer needs the set of instruction addresses a run executed. Collecting
// it through an ExecProbe costs an indirect call per instruction and, worse,
// disarms the superblock engine: Run single-steps whenever a probe is
// armed. Coverage is therefore a CPU feature instead, in the style of kcov's
// basic-block tracing. A block computes the (word, mask) pairs of its
// instruction RIPs once, and a completed dispatch ORs them into the sink in
// one pass. A dispatch cut short by a trap, a stop, a side exit, or a self-
// modification abort marks exactly the entries that began executing, the
// trapping one included, so the RIP set equals the one a per-instruction
// probe records. A self-loop that ran several passes in one dispatch marks
// the whole block once.
// The single-step paths mark one RIP in notifyExec: after exec,
// whether or not the instruction trapped. A cached #UD or a fetch fault
// executes nothing and marks nothing.

// covWord is one 64-RIP word of a block's coverage: the absolute word
// number (rip>>6) and the bits of the block's instruction RIPs in it. Both
// come from virtual addresses only.
type covWord struct {
	word uint64
	mask uint64
}

// Coverage is a RIP-coverage sink. RIPs inside the bitmap region (the
// kernel text, for the fuzzer) take a test-and-set on a word; RIPs outside
// it (user stubs, module code) go to a set. Touched words are remembered so
// Reset and RIPs cost time proportional to the coverage observed, not to
// the region size. A sink belongs to one CPU at a time: CPU.Fork and State
// do not carry it.
type Coverage struct {
	base, span uint64 // bitmap region [base, base+span)
	lo         uint64 // absolute word number of bits[0]
	// [fullLo, fullLo+fullN) are the absolute words lying wholly inside the
	// region: a block word in that range ORs in without per-bit checks.
	fullLo, fullN uint64
	bits          []uint64
	words         []uint32 // indices of the non-zero words of bits
	extra         map[uint64]struct{}
}

// NewCoverage returns an empty sink whose bitmap covers [base, base+span).
func NewCoverage(base, span uint64) *Coverage {
	cv := &Coverage{base: base, span: span, lo: base >> 6, extra: make(map[uint64]struct{})}
	if span > 0 {
		end := base + span // exclusive
		cv.bits = make([]uint64, (end-1)>>6-cv.lo+1)
		cv.fullLo = (base + 63) >> 6
		if hi := end >> 6; hi > cv.fullLo {
			cv.fullN = hi - cv.fullLo
		}
	}
	return cv
}

// mark records one executed RIP.
func (cv *Coverage) mark(rip uint64) {
	if rip-cv.base < cv.span {
		cv.or(uint32(rip>>6-cv.lo), 1<<(rip&63))
		return
	}
	cv.extra[rip] = struct{}{}
}

func (cv *Coverage) or(i uint32, m uint64) {
	old := cv.bits[i]
	if old == 0 {
		cv.words = append(cv.words, i)
	}
	cv.bits[i] = old | m
}

// markWords records a whole block's RIPs. Words on the region's edges or
// outside it fall back to per-RIP marking, so the set stays exact.
func (cv *Coverage) markWords(ws []covWord) {
	for _, w := range ws {
		if w.word-cv.fullLo < cv.fullN {
			cv.or(uint32(w.word-cv.lo), w.mask)
			continue
		}
		for m := w.mask; m != 0; m &= m - 1 {
			cv.mark(w.word<<6 | uint64(mathbits.TrailingZeros64(m)))
		}
	}
}

// Reset empties the sink.
func (cv *Coverage) Reset() {
	clear(cv.extra)
	for _, i := range cv.words {
		cv.bits[i] = 0
	}
	cv.words = cv.words[:0]
}

// RIPs returns the distinct RIPs recorded since the last Reset, unordered,
// in a slice sized to fit them exactly.
func (cv *Coverage) RIPs() []uint64 {
	n := len(cv.extra)
	for _, i := range cv.words {
		n += mathbits.OnesCount64(cv.bits[i])
	}
	out := make([]uint64, 0, n)
	for rip := range cv.extra {
		out = append(out, rip)
	}
	for _, i := range cv.words {
		base := (cv.lo + uint64(i)) << 6
		for bits := cv.bits[i]; bits != 0; bits &= bits - 1 {
			out = append(out, base+uint64(mathbits.TrailingZeros64(bits)))
		}
	}
	return out
}

// SetCoverage installs cv as the CPU's coverage sink; nil removes it. Unlike
// an ExecProbe, a sink keeps Run on the block fast path.
func (c *CPU) SetCoverage(cv *Coverage) {
	c.cov = cv
}

// blockCovWords groups the RIPs of a block's entries into words. A
// followed jump can revisit a word; it then appears once per visit.
func blockCovWords(ents []blkEnt) []covWord {
	var ws []covWord
	for i := range ents {
		rip := ents[i].rip
		w, m := rip>>6, uint64(1)<<(rip&63)
		if n := len(ws); n > 0 && ws[n-1].word == w {
			ws[n-1].mask |= m
		} else {
			ws = append(ws, covWord{word: w, mask: m})
		}
	}
	return ws
}

// coverBlock records the first n entries of block b. A full run uses the
// block's precomputed words, computed on its first covered completion; a
// partial one (trap, stop, side exit, or abort) marks its executed prefix
// one RIP at a time.
func (c *CPU) coverBlock(b *dcBlock, n uint64) {
	if n == b.count {
		if b.cov == nil {
			b.cov = blockCovWords(b.ents)
		}
		c.cov.markWords(b.cov)
		return
	}
	for i := range b.ents[:n] {
		c.cov.mark(b.ents[i].rip)
	}
}
