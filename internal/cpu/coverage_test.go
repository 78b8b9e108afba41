package cpu

import (
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// ripProbe records the distinct RIPs an exec probe observes: the reference
// coverage set that block-granularity coverage must reproduce.
type ripProbe struct{ rips map[uint64]struct{} }

func (p *ripProbe) OnExec(rip uint64, in *isa.Instr, cycles uint64) { p.rips[rip] = struct{}{} }

func (p *ripProbe) sorted() []uint64 {
	out := make([]uint64, 0, len(p.rips))
	for rip := range p.rips {
		out = append(out, rip)
	}
	slices.Sort(out)
	return out
}

func sortedRIPs(cv *Coverage) []uint64 {
	out := cv.RIPs()
	slices.Sort(out)
	return out
}

// covRegions are the bitmap regions every coverage case runs under: one
// holding all code, and one with unaligned edges that leaves RIPs on both
// sides of it, so edge words and the outside set are exercised.
var covRegions = []struct {
	name       string
	base, span uint64
}{
	{"whole", dcCodeVA, 2 * mem.PageSize},
	{"partial", dcCodeVA + 5, 50},
}

// engineMode is one engine configuration the equivalence tests compare.
type engineMode struct {
	name          string
	cache, blocks bool
	hot           int
	probed        bool
}

// covModes are the engine modes a coverage sink must agree across:
// covModes[0] is the uncached stepper, [2:4] the block engine modes. The
// probed mode keeps an exec probe armed, so Run single-steps and the sink
// is marked by Step.
var covModes = []engineMode{
	{"uncached", false, false, 1, false},
	{"cache-only", true, false, 1, false},
	{"compiled(hot=1)", true, true, 1, false},
	{"compiled(hot=default)", true, true, DefaultBlockHotThreshold, false},
	{"compiled+probe", true, true, 1, true},
}

// loopTo returns a raw JNE back to the start of body, which must end just
// before the branch.
func loopTo(t *testing.T, body ...isa.Instr) isa.Instr {
	t.Helper()
	j := isa.Instr{Op: isa.JCC, CC: isa.CondNE}
	jlen := len(encodeProg(t, j))
	j.Imm = -int64(len(encodeProg(t, body...)) + jlen)
	return j
}

// undefinedOpcode returns a byte that does not decode.
func undefinedOpcode(t *testing.T) byte {
	t.Helper()
	for b := 0xFF; b >= 0; b-- {
		if !isa.Opcode(b).Valid() {
			return byte(b)
		}
	}
	t.Fatal("every opcode byte is valid")
	return 0
}

// covCase is one program run several passes; limits, when set, bound pass i
// at limits[i%len(limits)] instructions.
type covCase struct {
	name   string
	code   []byte
	passes int
	limits []uint64
	check  func(t *testing.T, s BlockStats) // optional, on the compiled(hot=1) run
}

func coverageCases(t *testing.T) []covCase {
	// Trap mid-block: the loop's load walks off the data page on the ninth
	// iteration, long after the block has formed and compiled.
	trapBody := []isa.Instr{
		isa.MovRI(isa.RAX, 1),
		isa.Load(isa.RBX, isa.Mem(isa.RDX, 0)),
		isa.AddRI(isa.RDX, 0x200),
		isa.SubRI(isa.RCX, 1),
		isa.CmpRI(isa.RCX, 0),
	}
	trap := encodeProg(t, append(append([]isa.Instr{
		isa.MovRI(isa.RDX, dcDataVA),
		isa.MovRI(isa.RCX, 12),
	}, trapBody...), loopTo(t, trapBody...), isa.Ret())...)

	// A trap that always cuts the same block short: the entries after the
	// faulting load never execute, in any pass.
	trapTail := encodeProg(t,
		isa.MovRI(isa.RDX, dcDataVA+mem.PageSize),
		isa.MovRI(isa.RAX, 1),
		isa.Load(isa.RBX, isa.Mem(isa.RDX, 0)),
		isa.MovRI(isa.RCX, 2),
		isa.Ret(),
	)

	// Self-modification abort: each iteration's store rewrites the
	// immediate of a later instruction in the same block.
	head := []isa.Instr{isa.MovRI(isa.RCX, 6)}
	smc := []isa.Instr{
		isa.MovRR(isa.RBX, isa.RCX),
		isa.MovRI(isa.RSI, 0), // victim address, patched below
		isa.StoreSz(isa.Mem(isa.RSI, 0), isa.RBX, 1),
		isa.MovRI(isa.RAX, 1), // victim
		isa.SubRI(isa.RCX, 1),
		isa.CmpRI(isa.RCX, 0),
	}
	victim := dcCodeVA + uint64(len(encodeProg(t, head...))+len(encodeProg(t, smc[:3]...))) + 2
	smc[1] = isa.MovRI(isa.RSI, int64(victim))
	selfMod := encodeProg(t, append(append(head, smc...), loopTo(t, smc...), isa.Ret())...)

	// A counted loop ending in cmp+jcc, the pair the compiler fuses.
	loopBody := []isa.Instr{
		isa.AddRR(isa.RAX, isa.RCX),
		isa.SubRI(isa.RCX, 1),
		isa.CmpRI(isa.RCX, 0),
	}
	loop := encodeProg(t, append(append([]isa.Instr{isa.MovRI(isa.RCX, 10)}, loopBody...),
		loopTo(t, loopBody...), isa.Ret())...)

	// The loop falls through into an undefined opcode: a cached #UD.
	ud := append(encodeProg(t, append(append([]isa.Instr{isa.MovRI(isa.RCX, 10)}, loopBody...),
		loopTo(t, loopBody...))...), undefinedOpcode(t))

	// A kR^X-style range check inside a counted loop: the ja is not taken
	// while the loop forms (the block continues past it) and taken on the
	// eleventh iteration, leaving through the side exit to a handler. The
	// loop's jne back edge makes the block its own successor.
	rcBody := []isa.Instr{
		isa.AddRI(isa.RDX, 1),
		isa.CmpRI(isa.RDX, 10),
		{Op: isa.JCC, CC: isa.CondA},
		isa.SubRI(isa.RCX, 1),
	}
	rcHead := []isa.Instr{isa.MovRI(isa.RCX, 12), isa.MovRI(isa.RDX, 0)}
	rcLoop := append(append(append([]isa.Instr{}, rcHead...), rcBody...), loopTo(t, rcBody...), isa.Ret())
	handler := dcCodeVA + uint64(len(encodeProg(t, rcLoop...)))
	rips := ripsOf(t, dcCodeVA, rcLoop...)
	rcLoop[4] = branchTo(t, rcLoop[4], rips[4], handler)
	rangeCheck := encodeProg(t, append(rcLoop, isa.MovRI(isa.RAX, 7), isa.Ret())...)

	// The IR's loop shape: one block that runs many passes per dispatch.
	selfLoop := encodeProg(t, irLoop(t, 40)...)

	return []covCase{
		{name: "side-exit", code: rangeCheck, passes: 6, check: func(t *testing.T, s BlockStats) {
			if s.SideExits == 0 || s.LoopIters == 0 {
				t.Errorf("range-check loop never left through a side exit or looped: %+v", s)
			}
		}},
		{name: "self-loop", code: selfLoop, passes: 6, check: func(t *testing.T, s BlockStats) {
			if s.LoopIters == 0 || s.SideExits == 0 {
				t.Errorf("loop never ran several passes in one dispatch: %+v", s)
			}
		}},
		// Limits that cut a multi-pass dispatch short at many positions.
		{name: "self-loop-limits", code: selfLoop, passes: 12, limits: []uint64{9, 37, 61, 13, 100, 29}},
		{name: "trap-mid-block", code: trap, passes: 6},
		{name: "trap-tail-unreached", code: trapTail, passes: 6},
		{name: "self-mod-abort", code: selfMod, passes: 6, check: func(t *testing.T, s BlockStats) {
			if s.Aborts == 0 {
				t.Errorf("self-modifying loop never aborted a block: %+v", s)
			}
		}},
		{name: "cmp-jcc-fused", code: loop, passes: 6, check: func(t *testing.T, s BlockStats) {
			if s.Compiled == 0 || s.Instrs == 0 {
				t.Errorf("loop never ran compiled blocks: %+v", s)
			}
		}},
		// Every limit is shorter than the first block, so only the single
		// steps the engine falls back to ever run it.
		{name: "limit-short", code: loop, passes: 6, limits: []uint64{1, 2, 3}},
		{name: "limit-mixed", code: loop, passes: 12, limits: []uint64{3, 7, 11, 2, 17, 5}},
		{name: "cached-ud", code: ud, passes: 6},
	}
}

// runCovCase runs cs under one engine mode and bitmap region, with a sink
// and optionally a recording probe installed.
func runCovCase(t *testing.T, cs covCase, cache, blocks bool, hot int, base, span uint64, probe *ripProbe) (*Coverage, *CPU) {
	t.Helper()
	c := rawCPU(t, mem.PermRWX)
	if err := c.AS.Poke(dcCodeVA, cs.code); err != nil {
		t.Fatal(err)
	}
	c.SetDecodeCache(cache)
	c.SetBlockEngine(blocks)
	c.SetBlockHotThreshold(hot)
	cv := NewCoverage(base, span)
	c.SetCoverage(cv)
	if probe != nil {
		c.AddProbe(probe)
	}
	for i := 0; i < cs.passes; i++ {
		resetRaw(t, c)
		var limit uint64 = 1000
		if len(cs.limits) > 0 {
			limit = cs.limits[i%len(cs.limits)]
		}
		c.Run(limit)
	}
	return cv, c
}

// TestCoverageEquivalence is the coverage differential oracle: in every
// engine mode, the sink's RIP set equals the set an exec probe records on
// the uncached stepper, across side exits, self-loops that run several
// passes in one dispatch (and limits that cut them short), traps mid-block,
// self-modification aborts, fused cmp+jcc entries, limits shorter than a
// block, cached #UD slots, and RIPs outside the bitmap.
func TestCoverageEquivalence(t *testing.T) {
	for _, cs := range coverageCases(t) {
		for _, r := range covRegions {
			ref := &ripProbe{rips: map[uint64]struct{}{}}
			runCovCase(t, cs, false, false, 1, r.base, r.span, ref)
			want := ref.sorted()
			if len(want) == 0 {
				t.Fatalf("%s: reference executed nothing", cs.name)
			}
			for _, m := range covModes {
				var p *ripProbe
				if m.probed {
					p = &ripProbe{rips: map[uint64]struct{}{}}
				}
				cv, c := runCovCase(t, cs, m.cache, m.blocks, m.hot, r.base, r.span, p)
				if got := sortedRIPs(cv); !slices.Equal(got, want) {
					t.Errorf("%s/%s/%s: coverage %#x, want %#x", cs.name, r.name, m.name, got, want)
				}
				s := c.BlockStats()
				if m.probed && s.Dispatches != 0 {
					t.Errorf("%s/%s: probed run dispatched blocks: %+v", cs.name, m.name, s)
				}
				if m.name == "compiled(hot=1)" && r.name == "whole" && cs.check != nil {
					cs.check(t, s)
				}
			}
		}
	}
}

// TestCoverageForkSharedBlocks: a forked CPU runs the blocks (and coverage
// words) it shares with its parent into its own sink, never the parent's.
func TestCoverageForkSharedBlocks(t *testing.T) {
	var cs covCase
	for _, c := range coverageCases(t) {
		if c.name == "cmp-jcc-fused" {
			cs = c
		}
	}
	ref := &ripProbe{rips: map[uint64]struct{}{}}
	runCovCase(t, covCase{code: cs.code, passes: 1}, false, false, 1, dcCodeVA, mem.PageSize, ref)
	want := ref.sorted()

	parentCov, parent := runCovCase(t, cs, true, true, 1, dcCodeVA, mem.PageSize, nil)
	before := sortedRIPs(parentCov)
	parentCov.Reset()

	as, err := parent.AS.Fork()
	if err != nil {
		t.Fatal(err)
	}
	child := parent.Fork(as)
	if child.cov != nil {
		t.Fatal("Fork must not carry the coverage sink")
	}
	childCov := NewCoverage(dcCodeVA, mem.PageSize)
	child.SetCoverage(childCov)
	resetRaw(t, child)
	child.Run(1000)

	if got := sortedRIPs(childCov); !slices.Equal(got, want) {
		t.Errorf("child coverage %#x, want %#x", got, want)
	}
	if got := parentCov.RIPs(); len(got) != 0 {
		t.Errorf("child run marked the parent's sink: %#x", got)
	}
	if !slices.Equal(before, want) {
		t.Errorf("parent coverage %#x, want %#x", before, want)
	}
	if s := child.BlockStats(); s.Formed != 0 || s.Dispatches == 0 {
		t.Errorf("child must dispatch the parent's blocks without forming its own: %+v", s)
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
