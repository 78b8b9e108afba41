package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Raw-page harness: the decode-cache tests work on hand-encoded bytes in
// plain mapped pages (no linker, no kR^X layout) so that they control every
// byte the cache sees.
const (
	dcCodeVA  = 0x100000
	dcDataVA  = 0x200000
	dcStackVA = 0x300000
)

// rawCPU is newMachine's machine for prog at the default engine, with code
// pages of perm codePerm, rewound to the program entry by resetRaw.
func rawCPU(t *testing.T, codePerm mem.Perm, prog ...isa.Instr) *CPU {
	t.Helper()
	c := newMachine(t, &program{code: mustEncode(prog...), perm: codePerm}, gated)
	resetRaw(t, c)
	return c
}

// resetRaw rewinds the CPU to the program entry with a fresh stop sentinel.
func resetRaw(t *testing.T, c *CPU) {
	t.Helper()
	c.Mode = Kernel
	c.RIP = dcCodeVA
	c.Regs[isa.RSP] = dcStackVA + mem.PageSize - 16
	if f := c.AS.Write(c.Regs[isa.RSP], StopMagic, 8); f != nil {
		t.Fatal(f)
	}
}

func mustReturn(t *testing.T, c *CPU, limit uint64) *RunResult {
	t.Helper()
	res := c.Run(limit)
	if res.Reason != StopReturn {
		t.Fatalf("run: %v trap=%v", res.Reason, res.Trap)
	}
	return res
}

func TestDecodeCacheHitsAndStats(t *testing.T) {
	c := rawCPU(t, mem.PermX,
		isa.MovRI(isa.RAX, 5),
		isa.AddRI(isa.RAX, 7),
		isa.Ret(),
	)
	mustReturn(t, c, 100)
	s := c.DecodeCacheStats()
	if s.Decoded == 0 || s.Pages == 0 || s.Entries == 0 {
		t.Fatalf("cold run must populate the cache: %+v", s)
	}
	if s.Invalidations != 0 {
		t.Fatalf("nothing wrote code, yet %d invalidations", s.Invalidations)
	}

	// A second run of the same code is pure hits: no new decodes.
	resetRaw(t, c)
	mustReturn(t, c, 100)
	s2 := c.DecodeCacheStats()
	if s2.Decoded != s.Decoded {
		t.Errorf("warm run decoded %d new instructions", s2.Decoded-s.Decoded)
	}
	if s2.Hits != s.Hits+3 {
		t.Errorf("warm run: hits %d -> %d, want +3", s.Hits, s2.Hits)
	}
	if c.Reg(isa.RAX) != 12 {
		t.Errorf("rax = %d, want 12", c.Reg(isa.RAX))
	}
}

// TestDecodeCachePokeInvalidation: rewriting code through Poke (the module
// loader / boot path) must be observed on the very next Step.
func TestDecodeCachePokeInvalidation(t *testing.T) {
	c := rawCPU(t, mem.PermX,
		isa.MovRI(isa.RAX, 1),
		isa.Ret(),
	)
	mustReturn(t, c, 100)
	if c.Reg(isa.RAX) != 1 {
		t.Fatalf("rax = %d, want 1", c.Reg(isa.RAX))
	}

	if err := c.AS.Poke(dcCodeVA, mustEncode(isa.MovRI(isa.RAX, 2))); err != nil {
		t.Fatal(err)
	}
	resetRaw(t, c)
	mustReturn(t, c, 100)
	if c.Reg(isa.RAX) != 2 {
		t.Fatalf("stale decode executed: rax = %d, want 2", c.Reg(isa.RAX))
	}
	if s := c.DecodeCacheStats(); s.Invalidations == 0 {
		t.Error("poke must flush the page's decodes")
	}
}

// TestDecodeCacheAliasInvalidation: a store through a second mapping of the
// same frame (the physmap synonym attack surface, patch.TextPoke's
// mechanism) must invalidate decodes cached under the executable mapping.
func TestDecodeCacheAliasInvalidation(t *testing.T) {
	c := rawCPU(t, mem.PermX,
		isa.MovRI(isa.RAX, 1),
		isa.Ret(),
	)
	frames, err := c.AS.FramesAt(dcCodeVA, 1)
	if err != nil {
		t.Fatal(err)
	}
	const alias = uint64(0x800000)
	if err := c.AS.MapFrames(alias, frames, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	mustReturn(t, c, 100)

	// MOVri encodes [op][reg][imm64]; flip the immediate's low byte
	// through the writable alias.
	if f := c.AS.StoreByte(alias+2, 9); f != nil {
		t.Fatal(f)
	}
	resetRaw(t, c)
	mustReturn(t, c, 100)
	if c.Reg(isa.RAX) != 9 {
		t.Fatalf("alias write not observed: rax = %d, want 9", c.Reg(isa.RAX))
	}
}

// TestDecodeCacheCachedUD: a deterministic in-page decode failure is cached
// as a #UD slot and replayed without Instrs/Cycles side effects —
// bit-identical to the slow path's trap.
func TestDecodeCacheCachedUD(t *testing.T) {
	p := &program{code: []byte{undefinedOpcode()}}
	mkCPU := func(e int) *CPU {
		c := newMachine(t, p, e)
		c.Mode, c.RIP = Kernel, dcCodeVA
		return c
	}

	_, want := mkCPU(uncached).Step()
	c := mkCPU(cacheOnly)
	for i := 0; i < 2; i++ { // cold (fill -> -1 slot) then cached replay
		stop, trap := c.Step()
		if stop != StepContinue || trap == nil {
			t.Fatalf("step %d: stop=%v trap=%v", i, stop, trap)
		}
		if *trap != *want {
			t.Fatalf("step %d: trap %+v, slow path %+v", i, *trap, *want)
		}
		if c.Instrs != 0 || c.Cycles != 0 {
			t.Fatalf("step %d: #UD must not count: instrs=%d cycles=%d", i, c.Instrs, c.Cycles)
		}
	}
	if s := c.DecodeCacheStats(); s.Hits == 0 {
		t.Error("second #UD must replay from the cached slot")
	}
}

// TestDecodeCachePageTail: an instruction straddling the page boundary is
// never cached — its bytes extend past the frame — so a write to the second
// page alone must still be observed.
func TestDecodeCachePageTail(t *testing.T) {
	// A mov [op][reg][imm64] starts 3 bytes before the page boundary: 3
	// bytes on page 0, 7 on page 1.
	p := row(t, "block/page-tail-straddler")
	sweep(t, p, nil, points(space{engines: allEngines, limits: []uint64{2 * mem.PageSize}}))
	_, on := runPoint(t, p, point{engine: cacheOnly, limit: 2 * mem.PageSize}, nil)
	if on.Reg(isa.RBX) != 0x1122334455667788 {
		t.Fatalf("straddling mov: rbx = %#x", on.Reg(isa.RBX))
	}

	// Rewrite ONLY the second page's bytes (the straddling instruction's
	// immediate tail). If the straddler had been cached under page 0 —
	// whose frame never changed — this write would go unseen.
	if err := on.AS.Poke(dcCodeVA+mem.PageSize, make([]byte, 7)); err != nil {
		t.Fatal(err)
	}
	startPass(t, on, p.seed, 0)
	if res := on.Run(2 * mem.PageSize); res.Reason != StopReturn {
		t.Fatalf("rerun: %v trap=%v", res.Reason, res.Trap)
	}
	if got := on.Reg(isa.RBX); got != 0x88 {
		t.Fatalf("page-tail instruction served stale: rbx = %#x, want 0x88", got)
	}
}

// TestDecodeCacheProtectUnmap: structural changes (permissions, unmapping)
// are observed through the map generation — the cached page must not keep
// executing after losing PermX or its mapping.
func TestDecodeCacheProtectUnmap(t *testing.T) {
	c := rawCPU(t, mem.PermX,
		isa.MovRI(isa.RAX, 1),
		isa.Ret(),
	)
	mustReturn(t, c, 100)

	if err := c.AS.Protect(dcCodeVA, 1, mem.PermR); err != nil {
		t.Fatal(err)
	}
	resetRaw(t, c)
	_, trap := c.Step()
	if trap == nil || trap.Kind != TrapPageFault || trap.Fault.Kind != mem.FaultNoExec {
		t.Fatalf("exec after Protect(R): %+v", trap)
	}

	if err := c.AS.Protect(dcCodeVA, 1, mem.PermX); err != nil {
		t.Fatal(err)
	}
	resetRaw(t, c)
	mustReturn(t, c, 100)

	if err := c.AS.Unmap(dcCodeVA, 1); err != nil {
		t.Fatal(err)
	}
	resetRaw(t, c)
	_, trap = c.Step()
	if trap == nil || trap.Kind != TrapPageFault || trap.Fault.Kind != mem.FaultNotMapped {
		t.Fatalf("exec after Unmap: %+v", trap)
	}
}

// TestDecodeCacheRollback: Checkpoint/Rollback restores both the bytes and
// the decodes — execution after rollback must match the pre-poke program.
func TestDecodeCacheRollback(t *testing.T) {
	c := rawCPU(t, mem.PermX,
		isa.MovRI(isa.RAX, 1),
		isa.Ret(),
	)
	c.AS.Checkpoint()
	mustReturn(t, c, 100)

	if err := c.AS.Poke(dcCodeVA, mustEncode(isa.MovRI(isa.RAX, 2))); err != nil {
		t.Fatal(err)
	}
	resetRaw(t, c)
	mustReturn(t, c, 100)
	if c.Reg(isa.RAX) != 2 {
		t.Fatalf("post-poke rax = %d, want 2", c.Reg(isa.RAX))
	}

	if err := c.AS.Rollback(); err != nil {
		t.Fatal(err)
	}
	resetRaw(t, c)
	mustReturn(t, c, 100)
	if c.Reg(isa.RAX) != 1 {
		t.Fatalf("post-rollback rax = %d, want 1 (stale decode survived rollback)", c.Reg(isa.RAX))
	}
}

func TestSetDecodeCache(t *testing.T) {
	c := rawCPU(t, mem.PermX, isa.Nop(), isa.Ret())
	mustReturn(t, c, 100)
	if !c.DecodeCacheEnabled() {
		t.Fatal("cache must default on")
	}
	warm := c.DecodeCacheStats()
	if warm.Decoded == 0 || warm.Pages == 0 || warm.Entries == 0 {
		t.Fatalf("warm cache must report activity and footprint: %+v", warm)
	}
	c.SetDecodeCache(false)
	if c.DecodeCacheEnabled() {
		t.Fatal("disable failed")
	}
	// Cumulative counters survive the toggle (they live on the CPU, same
	// contract as BlockStats); only the live footprint reads zero while off.
	off := c.DecodeCacheStats()
	if off.Pages != 0 || off.Entries != 0 {
		t.Fatalf("disabled cache must report zero live footprint: %+v", off)
	}
	off.Pages, off.Entries = warm.Pages, warm.Entries
	if off != warm {
		t.Fatalf("cumulative stats must survive SetDecodeCache(false): got %+v, want %+v", off, warm)
	}
	resetRaw(t, c)
	mustReturn(t, c, 100) // slow path still executes correctly
	c.SetDecodeCache(true)
	resetRaw(t, c)
	mustReturn(t, c, 100)
	s := c.DecodeCacheStats()
	if s.Decoded <= warm.Decoded {
		t.Fatalf("re-enabled cache must keep accumulating on the surviving counters: %+v vs warm %+v", s, warm)
	}
}

// TestCacheStatsResetUnification pins the unified reset contract across
// every cache-layer toggle: both DecodeCacheStats and BlockStats counters
// are cumulative-on-CPU — SetDecodeCache and SetBlockEngine toggles must
// never zero history — and a forked CPU restarts both at zero.
func TestCacheStatsResetUnification(t *testing.T) {
	c := rawCPU(t, mem.PermX, isa.Nop(), isa.Ret())
	c.SetBlockHotThreshold(1)
	for i := 0; i < 4; i++ {
		resetRaw(t, c)
		mustReturn(t, c, 100)
	}
	ds, bs := c.DecodeCacheStats(), c.BlockStats()
	if ds.Hits == 0 || bs.Dispatches == 0 {
		t.Fatalf("warm-up produced no activity: dc=%+v blk=%+v", ds, bs)
	}

	// Toggling either layer off and on preserves every cumulative counter.
	c.SetBlockEngine(false)
	c.SetDecodeCache(false)
	c.SetDecodeCache(true)
	c.SetBlockEngine(true)
	ds2, bs2 := c.DecodeCacheStats(), c.BlockStats()
	ds2.Pages, ds2.Entries = ds.Pages, ds.Entries // live footprint: dropped by design
	bs2.Blocks = bs.Blocks
	if ds2 != ds {
		t.Fatalf("decode-cache counters reset across toggles: got %+v, want %+v", ds2, ds)
	}
	if bs2 != bs {
		t.Fatalf("block-engine counters reset across toggles: got %+v, want %+v", bs2, bs)
	}

	// A forked CPU is a new CPU for stats purposes: both sets restart at
	// zero.
	fas, err := c.AS.Fork()
	if err != nil {
		t.Fatal(err)
	}
	f := c.Fork(fas)
	fd, fb := f.DecodeCacheStats(), f.BlockStats()
	if fd.Hits != 0 || fd.Misses != 0 || fd.Decoded != 0 {
		t.Fatalf("forked CPU must restart decode-cache counters at zero: %+v", fd)
	}
	if fb.Dispatches != 0 || fb.Formed != 0 || fb.Instrs != 0 {
		t.Fatalf("forked CPU must restart block-engine counters at zero: %+v", fb)
	}
	// And the parent's counters are untouched by the fork.
	ds3 := c.DecodeCacheStats()
	if ds3.Hits != ds.Hits || ds3.Decoded != ds.Decoded {
		t.Fatalf("fork disturbed parent decode-cache counters: got %+v, want %+v", ds3, ds)
	}
}

// mustEncode encodes prog, which must encode.
func mustEncode(prog ...isa.Instr) []byte {
	var b []byte
	for _, in := range prog {
		var err error
		if b, err = in.Encode(b); err != nil {
			panic(err)
		}
	}
	return b
}

// FuzzDecodeCacheEquivalence fuzzes the decode cache alone: random bytes
// run as code on read-write-execute pages (so programs can and do
// overwrite themselves) in the cache-only engine at Run limit 512, with and
// without an exec probe, each point swept against the uncached stepper.
// Its seeds are FuzzBlockEquivalence's first three, which sweeps the same
// points among those of the compiled engines.
func FuzzDecodeCacheEquivalence(f *testing.F) {
	for _, p := range rows("fuzz/")[:3] {
		f.Add(p.code, p.seed)
	}
	pts := points(space{engines: []int{cacheOnly}, probe: both, limits: []uint64{512}})
	f.Fuzz(func(t *testing.T, code []byte, seed uint64) {
		if len(code) > 2*mem.PageSize {
			code = code[:2*mem.PageSize]
		}
		sweep(t, &program{name: "raw", code: code, seed: seed}, nil, pts)
	})
}
