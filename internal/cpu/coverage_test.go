package cpu

import (
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

func sortedRIPs(cv *Coverage) []uint64 {
	out := cv.RIPs()
	slices.Sort(out)
	return out
}

// undefinedOpcode returns a byte that does not decode.
func undefinedOpcode() byte {
	for b := 0xFF; b >= 0; b-- {
		if !isa.Opcode(b).Valid() {
			return byte(b)
		}
	}
	panic("every opcode byte is valid")
}

// cutLimits are Run limits that cut the coverage rows' passes short at
// many positions, shorter than their first block among them.
var cutLimits = []uint64{1, 2, 3, 5, 7, 9, 11, 13, 17, 29, 37, 61, 100}

// TestCoverageEquivalence is the coverage differential oracle over the
// coverage rows — side exits, self-loops that run several passes in one
// dispatch, traps mid-block and with an unreached tail, self-modification
// aborts, fused cmp+jcc entries and cached #UD slots — in every engine,
// with and without an exec probe (whose RIP set the sink must equal), over
// a bitmap holding all code and a window with RIPs on both sides, and at
// Run limits that cut passes short.
func TestCoverageEquivalence(t *testing.T) {
	for _, p := range rows("coverage/") {
		full := point{engine: hot1, region: whole, passes: 6, limit: 1000}
		sweep(t, p, func(pt point, _ *outcome, c *CPU) {
			if pt == full {
				must(t, p.name, c, p.reach)
			}
		}, points(space{engines: allEngines, regions: []int{whole, window}, passes: []int{6}, limits: []uint64{1000}},
			space{engines: []int{hot1}, probe: []bool{true}, regions: []int{whole, window}, passes: []int{6}, limits: []uint64{1000}},
			space{engines: blockEngines, passes: []int{12}, limits: cutLimits}))
	}
}

// TestCoverageForkSharedBlocks: a forked CPU marks its own sink, never the
// parent's. It starts with an empty decode cache, so the blocks it runs are
// ones it forms itself.
func TestCoverageForkSharedBlocks(t *testing.T) {
	p := row(t, "coverage/cmp-jcc-fused")
	want, _ := runPoint(t, p, point{region: whole}, nil)
	parentOut, parent := runPoint(t, p, point{engine: hot1, region: whole, passes: 6, limit: 1000}, nil)
	parent.cov.Reset()

	child := forkOf(t, parent)
	if child.cov != nil {
		t.Fatal("Fork must not carry the coverage sink")
	}
	childCov := NewCoverage(dcCodeVA, 2*mem.PageSize)
	child.SetCoverage(childCov)
	startPass(t, child, p.seed, 0)
	child.Run(1000)

	if got := sortedRIPs(childCov); !slices.Equal(got, want.cover) {
		t.Errorf("child coverage %#x, want %#x", got, want.cover)
	}
	if got := parent.cov.RIPs(); len(got) != 0 {
		t.Errorf("child run marked the parent's sink: %#x", got)
	}
	if !slices.Equal(parentOut.cover, want.cover) {
		t.Errorf("parent coverage %#x, want %#x", parentOut.cover, want.cover)
	}
	if s := child.BlockStats(); s.Formed == 0 || s.Dispatches == 0 {
		t.Errorf("child must form and dispatch its own blocks: %+v", s)
	}
}

// TestCoverageRegionEdges pins the bitmap's edge handling: RIPs just
// inside and outside an unaligned region land in the right place, block
// words spanning an edge are split exactly, and Reset empties both parts.
func TestCoverageRegionEdges(t *testing.T) {
	cv := NewCoverage(0x1005, 0x80) // [0x1005, 0x1085)
	cv.mark(0x1004)
	cv.mark(0x1005)
	cv.mark(0x1084)
	cv.mark(0x1085)
	cv.markWords([]covWord{{word: 0x1000 >> 6, mask: 1<<3 | 1<<6}, {word: 0x1040 >> 6, mask: 1 << 1}})
	want := []uint64{0x1003, 0x1004, 0x1005, 0x1006, 0x1041, 0x1084, 0x1085}
	if got := sortedRIPs(cv); !slices.Equal(got, want) {
		t.Fatalf("got %#x, want %#x", got, want)
	}
	cv.Reset()
	if got := cv.RIPs(); len(got) != 0 {
		t.Fatalf("Reset left %#x", got)
	}
	if got := NewCoverage(0, 0); len(got.RIPs()) != 0 {
		t.Fatal("empty sink must be empty")
	}
}
