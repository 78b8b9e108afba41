package cpu

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/mem"
)

// The superblock engine.
//
// The decode cache (dcache.go) removed per-instruction decode cost, but the
// Run loop still paid a full dispatch per instruction: a decode-cache lookup
// (TLB slot, map-generation compare, frame-generation compare, index load),
// the fetch privilege checks, the limit check, and the probe check. Classic
// DBT systems (QEMU's translation-block chaining, Embra's fast paths,
// Dynamo's traces) amortize that dispatch over straight-line regions and the
// paths through them; this engine does the same on top of the cached
// decodes.
//
// A block is a same-page superblock: a path of cached instructions of one
// page, at most maxBlockEnts long, that formation (formBlock) grows from its
// entry by these rules:
//
//   - An ordinary instruction continues at the next sequential address.
//   - A direct JMP continues at its target. The JMP stays in the block (it
//     retires and costs like any instruction); the next entry is the target.
//   - A JCC continues at its fallthrough unless the branch has been seen
//     taken (below). It becomes a side exit: a run whose branch goes the
//     other way leaves the block there.
//   - Any other terminator ends the block: indirect or far control transfer
//     (jmp reg/mem, call, ret, iret, syscall, sysret), a trapping or
//     serializing instruction (hlt, int3, ud2), or a string operation (whose
//     REP cost is dynamic).
//   - So does a continuation address that is off the page, already in the
//     block, a cached deterministic #UD, or a page-tail offset the decode
//     cache leaves undecided — and the entry cap.
//
// Every entry records its own RIP, because once jumps are followed an
// entry's address no longer follows from the block entry plus the lengths
// before it. Traps, coverage words, thunk successor constants and the
// fallthrough address all read it.
//
// Seen-taken bits. A JCC that has ever been taken — by a single step
// (stepCached) or as a side exit — gets its page-offset bit set in
// dcPage.taken, and later formations stop at it instead of continuing past
// it, so a branch that really alternates ends its block and chains through
// two links instead of leaving through a side exit every other time. kR^X's
// range checks (cmp $_krx_edata,%reg; ja krx_handler) are never taken on a
// clean run and never split a block. The bits survive flushes, like heat.
//
// Self-loops. A loop whose back edge returns to the block entry (the IR
// lowers loops as head: cmp; jae exit + body; jmp head, which forms one
// block at head) completes with RIP equal to its own entry. The runner
// then runs it again inside the same dispatch while the remaining
// budget covers a full pass, no trap is pending, the mode is unchanged, and
// the page's frame and map generations still match. That last check is what
// keeps a final-entry store sound: the store needs no re-check when the
// dispatcher revalidates next, but it does when the block itself runs again.
//
// Lean blocks. A block that writes no memory (no dcStore entry, no final
// call pushing a return address) and has a thunk in every slot is lean, and
// a lean self-loop checks only RIP and the budget between passes: nothing
// it runs can change the other four conditions (blockXlat.lean gives the
// reason for each). Loads are the case that needs care, since a lean
// block may load: AddressSpace.Read fills the data TLB through dataPage
// without bumping the map generation, a load of an untouched demand-zero
// page reads the shared zero frame instead of materializing one, and a load
// that faults returns a trap, which leaves the loop before the loop-back.
//
// Fixpoint fast-forward. Some lean self-loops are counted register loops
// whose passes, once their other registers stop changing, differ only in
// the counter. sys_select's fd loop is one: its bitmap register drains to
// zero within 64 passes, and every later pass, up to the exit or the
// watchdog, only increments %rcx. Formation marks such a loop fixpoint-
// eligible (fixpointLoop in fixpoint.go, kept in blockXlat.fix) when:
//
//   - every entry is a trap-free register op from a fixed list (moves, the
//     ALU and shift ops that have a thunk, cmp, test reg,reg, jmp, jcc): no
//     load, store, call, string op or nil thunk;
//   - its only JCC, fed by the cmp reg,reg or cmp reg,imm right before it,
//     leaves the loop on one outcome and goes round it on the other, under
//     an ordering or equality condition. Both rotations qualify: the IR's
//     head shape (fused cmp+jcc first, jmp last) and the rotated one that
//     forms once the jcc has been seen taken (body first, cmp; jcc last,
//     falling through to the entry);
//   - each induction register is written once a pass, by inc or by an add
//     or sub of 1 or -1 (dec has no thunk, so a loop with one is not lean),
//     and read by nothing but that update and the cmp. One of the cmp's
//     operands is an induction register (the counter), the other an
//     immediate or a register the block never writes.
//
// After each completed pass but a dispatch's first, the runner compares the
// block's other written registers with their values before the pass (the
// first only records them: what the CPU held from before belongs to another
// run). If none changed, every later pass repeats that one except for the
// induction registers, because:
//
//   - the other registers start each pass from the same values and read
//     nothing that changes (no induction register, no memory);
//   - the flags a pass starts with are dead. The JCC reads the cmp's flags,
//     and the only other flag reader, INC, carries CF into flags that the
//     cmp overwrites before anything observes them.
//
// So the runner skips N passes at once. N is the number of passes that
// certainly continue: the counter's value at each one's cmp stays within
// the run of values that satisfy the continue condition, in the cmp's
// signed or unsigned order and without wrapping around. N is capped at
// left/count - 1, so one real pass still fits the budget, which already
// carries the Run limit and the ticker's deadline. The skip adds N to the
// passes and N times its step to each induction register, and the batched
// accounting below charges Instrs, Cycles, decode-cache hits, coverage and
// LoopIters from the passes exactly as if they had run. A real pass always
// follows, so the flags, the exit, a budget stop and a tick all come from
// real execution. LoopSkipped counts the skipped passes.
//
// Three layers keep the dispatch cost amortized:
//
//   - Hotness-gated formation. Forming a block is not free: it decodes
//     forward, copies a dense blkEnt slice and compiles it. On short,
//     snapshot/restore-heavy runs (a fuzz iteration is a few hundred
//     instructions), eager formation at every executed RIP costs more than
//     it saves. A per-offset
//     heat counter on the page defers formation until an entry point has
//     been dispatched BlockHotThreshold times (SetBlockHotThreshold; default
//     DefaultBlockHotThreshold); cold offsets keep single-stepping through
//     the decode cache. Heat survives page flushes and engine toggles — it
//     measures the workload, not the cached bytes — so hot code re-forms
//     immediately after an invalidation.
//
//   - Block chaining. Each block carries three successor links — taken,
//     fallthrough, and side exit — resolved lazily the first time the block
//     leaves toward that successor. The side slot is a one-entry cache keyed
//     by RIP, shared by all of the block's side exits. While a link
//     validates, runChain executes block-to-block in a single loop without
//     returning to Run's dispatcher — no TLB probe, no map lookup, no blkIdx
//     load on the hot edge. Validation is exactly what blockLookup would do
//     (see chainNext): same frame identity, same content generation, same
//     map generation, and the link's own resolution generation; any mismatch
//     severs the link and falls back to the full lookup, which revalidates
//     (flushing and re-forming as needed) before anything executes.
//
//   - Self-loops, above: a loop body that is one block costs one dispatch
//     for as many passes as the budget allows.
//
// Validation is hoisted to block granularity: the page's frame is resolved
// and its MapGen/Frame.Gen generations are checked ONCE at block entry (by
// blockLookup through resolvePage, or by chainNext's equivalent link
// checks), and the block then executes in a tight loop with no
// per-instruction lookups. Three things make that sound:
//
//   - Control flow cannot leave the block silently: every instruction that
//     can set RIP anywhere but the next entry's address is either the last
//     entry or a JCC side exit, and after a side-exit entry the runner
//     compares RIP with the next entry's and leaves when they differ.
//
//   - The privilege mode cannot change mid-block: mode switches happen only
//     in terminators that end a block (syscall/sysret/iret) or through trap
//     delivery, which exits the block. The fetch privilege checks (user/
//     upper-half, SMEP) done once at block entry therefore hold for every
//     instruction in it — and runChain re-checks them before every chained
//     block entry, because a terminator may have switched the mode.
//
//   - Self-modification cannot outrun invalidation: after every instruction
//     that can store to memory (flagged dcStore at decode time), the frame
//     generation is re-checked; a mismatch means the block just overwrote
//     its own page, so execution aborts back to the dispatch loop, whose
//     next lookup flushes and redecodes. Stores to *other* pages need no
//     mid-block check — their cached blocks revalidate at next entry, and
//     their inbound chain links fail the generation checks and sever.
//
// Formation compiles: formBlock lowers every block it forms to thunks
// (thunk.go), so one runner executes every block and a block's translation
// (ents, comp, lean, cost, count) never changes after formation. The
// runner batches Instrs/Cycles from the compiler's cumulative sums, which
// give a mid-block trap exactly the counter state the single-step path
// would. The precomputed block cost and count feed the limit guard and the
// stats.
//
// Shared translations. A block is two records. Its translation (blockXlat:
// ents, comp, cost, count, lean) is a pure function of the page's bytes, its
// virtual address and the seen-taken bits its former had, and never changes
// once built. Its per-CPU state (dcBlock: the taken/fall/side links and the
// coverage words) belongs to the CPU that runs it, and so do the page's heat
// and seen-taken bits. A dcBlock holds its translation's slice headers by
// value, so runBlock and runChain load exactly what they would from a block
// the CPU formed itself.
//
// The forks of one golden kernel run the same frozen code, so a
// SharedBlocks table, owned by the golden and handed to every CPU forked
// from it, lets them form each block once between them:
//
//   - Eligibility. The table is keyed by (frame, page address), and its keys
//     are fixed when it is made (NewSharedBlocks): the executable pages the
//     space maps onto frozen frames at that moment. A frozen frame never
//     changes again, so a translation of it is valid for as long as a CPU's
//     page still resolves to it, which resolvePage checks on every lookup
//     as it always has. A copy-on-write copy, a text_poke'd page or a frame
//     frozen by a later Freeze is not a key: its page keeps private
//     translations, exactly as without a table.
//   - Adoption. When blockLookup or blockStep find no block at an offset of
//     an eligible page, they first ask the table. A published translation is
//     adopted at once: no hotness gate, no decode, no formation and no
//     compile. Only a miss goes through the gate and formBlock as before.
//   - Publication. A block formed over an eligible page is published under
//     its entry offset; the first publisher wins and later ones keep their
//     own copy. Every access takes the page's mutex, but only on a per-CPU
//     miss: a CPU that has adopted or formed a block never asks again until
//     its page flushes.
//   - The first fork. Sharing starts once a table's CPUs have been forked
//     twice: a page a CPU resolves before that stays private for as long
//     as it keeps its frame. A golden's only fork, which is all a one-
//     worker fuzz campaign or a one-off boot takes, therefore takes no
//     lock on a miss and leaves no blocks behind in the golden. Publishing
//     from that fork kept each campaign's blocks alive in its golden until
//     the next build cache replaced it, and a new campaign's set-up then
//     ran about a fifth slower (fuzz-vanilla setup_s).
//
// A block's shape follows its former's seen-taken history, so an adopter
// may run a block another fork would have cut elsewhere. Shapes are not
// semantics: every shape runs bit-identically to the single-step path, the
// same property that lets the hotness gate pick formation times freely.
// Only the block_engine counters show it: a fork that adopts forms, gates
// and compiles less, and when forks run concurrently, which of them forms
// a block first is a matter of scheduling.

// BlockStats reports superblock-engine behaviour for one CPU. All counters
// except Blocks are cumulative: they survive page flushes, SetBlockEngine
// toggles, and SetDecodeCache toggles (the counters live on the CPU, not on
// the cache they describe). Blocks is the current live footprint.
type BlockStats struct {
	Formed      uint64 // blocks ever formed (cumulative, survives flushes)
	Adopted     uint64 // blocks taken from a SharedBlocks table instead of formed
	Dispatches  uint64 // block executions entered via the Run fast path or a chain
	Instrs      uint64 // instructions executed inside dispatched blocks
	Aborts      uint64 // mid-block self-modification resyncs
	SideExits   uint64 // runs that left a block early through a taken side-exit JCC
	LoopIters   uint64 // extra passes self-loops ran inside one dispatch
	LoopSkipped uint64 // of LoopIters, passes fast-forwarded at a fixpoint instead of run
	Chained     uint64 // block-to-block transitions that bypassed the dispatcher
	Severed     uint64 // successor links invalidated by the generation checks
	Cold        uint64 // block dispatch attempts deferred by the hotness gate
	Compiled    uint64 // blocks lowered to specialized thunks (cumulative; equals Formed)
	Fused       uint64 // block entries whose flag computation the liveness pass elided
	Merged      uint64 // block entries compiled into multi-entry calls (run merging)
	ExecSlots   uint64 // block slots run through exec because their form has no thunk
	Blocks      uint64 // blocks currently live (on pages that would still validate)
}

// DefaultBlockHotThreshold is the default number of times an entry offset
// must be dispatched before a superblock is formed over it. Small: a hot
// path crosses it within a handful of executions, but one-shot code (boot
// straight-lines, cold fuzz-program bytes) never pays formation.
const DefaultBlockHotThreshold = 4

// Entry flag bits, computed once at decode time (dcache.fill).
const (
	// dcEnd marks a block terminator: control transfer, trapping or
	// serializing instruction, or a dynamic-cost string operation.
	dcEnd uint8 = 1 << iota
	// dcStore marks an instruction that can write memory on the straight-
	// line path (isa.Instr.WritesMemory minus the string ops, which are
	// terminators, plus the implicit stack/bound-table stores it excludes).
	dcStore
	// dcFW marks an instruction that unconditionally overwrites ALL of the
	// arithmetic flags (CF/OF/SF/ZF/PF) and cannot trap — the only kind of
	// overwrite the flag-liveness pass (compileBlock) may count as killing
	// an earlier flag result. Memory-operand ALU forms are excluded: they
	// can fault before writing flags.
	dcFW
	// dcFR marks an instruction that reads arithmetic flags (jcc, pushfq,
	// syscall's %r11 spill, inc/dec's CF preservation, repe cmps/scas), so
	// flags must be architectural when it executes.
	dcFR
	// dcTrap marks an instruction that may raise a trap mid-block: the trap
	// path observes %rflags, so flags must be architectural at its entry.
	dcTrap
)

// entryFlags classifies one decoded instruction for block formation and for
// the block compiler's flag-liveness pass (thunk.go). The classification is
// conservative by construction: an opcode missing from the trap-free list is
// dcTrap, an opcode missing from the writer list never kills liveness, and
// an opcode missing from the reader list is protected by the block-exit and
// dcTrap rules. Only misclassifying an op as dcFW (claiming it always writes
// all arithmetic flags and cannot fault) or omitting a genuine flag reader
// from dcFR could break bit-identity — both lists below name exactly the
// exec.go cases with those properties.
func entryFlags(op isa.Opcode) uint8 {
	var f uint8

	// Trap-free instructions: no memory access, no privilege check, no
	// decode-dependent #UD (the decoder already proved the opcode valid).
	switch op {
	case isa.NOP, isa.SWAPGS, isa.MOVri, isa.MOVrr, isa.LEA,
		isa.ADDri, isa.ADDrr, isa.SUBri, isa.SUBrr,
		isa.ANDri, isa.ANDrr, isa.ORri, isa.ORrr, isa.XORri, isa.XORrr,
		isa.SHLri, isa.SHRri, isa.SARri,
		isa.NOTr, isa.NEGr, isa.IMULrr, isa.IMULri, isa.INCr, isa.DECr,
		isa.CMPri, isa.CMPrr, isa.TESTrr, isa.TESTri,
		isa.JMP, isa.JMPR, isa.JCC, isa.CLD, isa.STD, isa.BNDMK:
		// trap-free
	default:
		f |= dcTrap
	}

	// Unconditional full arithmetic-flag writers (trap-free by the list
	// above — the rm/mi forms are deliberately absent). Shifts qualify
	// because this ISA's shift semantics write CF/OF/SF/ZF/PF even for a
	// masked-to-zero count (unlike hardware x86).
	switch op {
	case isa.ADDri, isa.ADDrr, isa.SUBri, isa.SUBrr,
		isa.ANDri, isa.ANDrr, isa.ORri, isa.ORrr, isa.XORri, isa.XORrr,
		isa.SHLri, isa.SHRri, isa.SARri, isa.NEGr, isa.IMULrr, isa.IMULri,
		isa.CMPri, isa.CMPrr, isa.TESTrr, isa.TESTri:
		f |= dcFW
	}

	// Arithmetic-flag readers. JCC evaluates its condition; PUSHFQ spills
	// %rflags; SYSCALL saves %rflags into %r11 (EnterKernel); INC/DEC
	// preserve CF, which is a read; REPE CMPS/SCAS test ZF between
	// elements (and POPFQ/IRET swap the whole register — they are dcTrap
	// anyway, but the read is real).
	switch op {
	case isa.JCC, isa.PUSHFQ, isa.SYSCALL, isa.INCr, isa.DECr,
		isa.CMPS, isa.SCAS, isa.POPFQ, isa.IRET:
		f |= dcFR
	}

	switch op {
	case isa.JMP, isa.JMPR, isa.JMPM, isa.JCC,
		isa.CALL, isa.CALLR, isa.CALLM,
		isa.RET, isa.RETI, isa.IRET,
		isa.SYSCALL, isa.SYSRET,
		isa.HLT, isa.INT3, isa.UD2,
		isa.MOVS, isa.STOS, isa.LODS, isa.CMPS, isa.SCAS:
		f |= dcEnd
	case isa.MOVmr, isa.MOVmi, isa.XORmr, isa.PUSH, isa.PUSHFQ, isa.BNDSTX:
		f |= dcStore
	}
	return f
}

// blkEnt is one instruction of a formed block: a dense copy of the decode
// cache's entry plus its own RIP, laid out contiguously so the dispatch loop
// walks a single cache-friendly array instead of chasing indices into
// dcPage.entries. Copies are safe because any event that could stale the
// decoded form (frame content change, remap) flushes the page's blocks
// wholesale; the RIP is fixed because a dcPage belongs to one virtual page.
type blkEnt struct {
	in    isa.Instr
	cost  uint64
	rip   uint64
	ilen  uint8
	flags uint8
}

// blkLink is one cached successor edge of a block, filled in lazily the
// first time the block exits toward that successor. Following it must be
// exactly as safe as a fresh blockLookup, which chainNext guarantees by
// re-deriving every generation blockLookup's resolvePage would check:
//
//   - frame must still be the page's resolved frame (identity, not just
//     generation — two frames' generation counters can coincide),
//   - fgen must equal both the page's decode generation (p.fgen) and the
//     frame's live generation: the page was neither flushed+re-formed nor
//     written since the link was resolved,
//   - the address space's MapGen must equal the page's mgen: no remap,
//     protect, shadow, or rollback has restructured the translation since
//     the page was last validated.
//
// A link can never dangle into wrong code: links live inside blocks, so
// every event that drops blocks (flush, SetBlockEngine(false)) destroys the
// links with them, and every event that re-forms a page's blocks bumps the
// generations the link pins.
type blkLink struct {
	p     *dcPage
	frame *mem.Frame
	bi    int16
	rip   uint64
	fgen  uint64
}

// blockXlat is a block's translation: a formed path through its page (see
// formBlock), compiled. It is built once and never changes afterwards, so
// CPUs sharing a SharedBlocks table share it, slices and all. comp holds
// one specialized thunk per entry (same indices as ents); ents stays the
// decoded source of truth, and a nil-fn slot runs through exec from it.
//
// lean: the block writes no memory and every slot has a thunk, so a
// completed pass of it as a self-loop re-checks only RIP and the budget
// (runBlock). The four checks it skips cannot change inside such a pass:
//
//   - Pending is written only by the injector's Tick, which runs between
//     dispatches, and by RestoreState.
//   - Mode changes only in exec (syscall, sysret, iret), which a lean
//     block never enters because every slot has a thunk, and in trap
//     delivery, which runs after the block has returned. No thunk writes it.
//   - The frame's generation moves only on stores, and a lean block has no
//     dcStore entry and no final call (whose return-address push is a store
//     that dcStore, a straight-line flag, does not cover).
//   - MapGen is not moved by loads: the compiled hit path (ReadHits) only
//     reads a data-TLB slot, and AddressSpace.Read resolves through
//     dataPage, which refills the data TLB without bumping it; materialize,
//     which does bump it, is reached only from store, Protect and FramesAt
//     paths, so a load of an untouched demand-zero page reads the shared
//     zero frame and leaves MapGen alone.
//
// A load that faults returns a trap, and the runner leaves through its trap
// check before it reaches the loop-back. Non-lean blocks keep every check.
type blockXlat struct {
	ents  []blkEnt
	comp  []cthunk // compiled thunks, one slot per entry
	count uint64   // len(ents): the Run fast path's limit guard
	cost  uint64   // cumulative static cycle cost of the block
	lean  bool     // store-free and fully thunked (see above)
	fix   *fixLoop // non-nil: a fixpoint-eligible self-loop (fixpoint.go)
}

// dcBlock is one superblock as a CPU runs it: its translation, held by
// value, plus the CPU's own lazily resolved successor links and coverage
// words (coverage.go), which are set once on the first covered completion.
type dcBlock struct {
	blockXlat
	cov   []covWord // coverage words; nil until the first covered completion
	taken blkLink   // exit through the last entry, anywhere but the fallthrough
	fall  blkLink   // exit to the address after the last entry
	side  blkLink   // exit through a side-exit JCC (the most recent one)
}

// SharedBlocks is the translation table the forks of one frozen address
// space share (see the top of this file): for each executable page the
// space mapped onto a frozen frame when the table was made, the blocks
// formed over it so far, by entry offset. Its key set never changes, so
// finding a page's entry needs no lock; the entries themselves are guarded
// per page. forks counts the CPUs forked from a CPU holding the table.
type SharedBlocks struct {
	pages map[sharedKey]*sharedPage
	forks atomic.Int64
}

// sharedKey names an eligible page: its frozen frame and its virtual
// address, which block entries and thunk constants fold in.
type sharedKey struct {
	frame *mem.Frame
	base  uint64
}

// sharedPage holds the published translations of one eligible page.
type sharedPage struct {
	mu     sync.Mutex
	blocks map[uint16]blockXlat
}

// NewSharedBlocks returns an empty table whose eligible pages are the
// executable pages as maps onto frozen frames (mem.AddressSpace.Freeze):
// call it after freezing the space the sharing CPUs are forked from.
func NewSharedBlocks(as *mem.AddressSpace) *SharedBlocks {
	t := &SharedBlocks{pages: make(map[sharedKey]*sharedPage)}
	as.FrozenExecPages(func(va uint64, f *mem.Frame) {
		t.pages[sharedKey{f, va}] = &sharedPage{blocks: make(map[uint16]blockXlat)}
	})
	return t
}

// page returns the shared entry for frame f mapped at page base, or nil
// when that pair is not eligible, t is nil, or t has had at most one fork
// (see the top of this file).
func (t *SharedBlocks) page(f *mem.Frame, base uint64) *sharedPage {
	if t == nil || t.forks.Load() < 2 {
		return nil
	}
	return t.pages[sharedKey{f, base}]
}

// get returns the translation published for the block entered at off, and
// how many blocks the page has published.
func (sp *sharedPage) get(off int) (x blockXlat, n int, ok bool) {
	sp.mu.Lock()
	x, ok = sp.blocks[uint16(off)]
	n = len(sp.blocks)
	sp.mu.Unlock()
	return x, n, ok
}

// publish records x as the translation of the block entered at off, unless
// another CPU published one first.
func (sp *sharedPage) publish(off int, x blockXlat) {
	sp.mu.Lock()
	if _, ok := sp.blocks[uint16(off)]; !ok {
		sp.blocks[uint16(off)] = x
	}
	sp.mu.Unlock()
}

// ShareBlocks makes c adopt and publish translations through t, and so
// does every CPU forked from c afterwards (CPU.Fork hands the table on).
// nil stops sharing. Pages c has already resolved keep what they hold
// until they next resolve a different frame.
func (c *CPU) ShareBlocks(t *SharedBlocks) {
	c.shared = t
	if c.dc != nil {
		c.dc.shared = t
	}
}

// blockExit is how a block run ended, as runBlock reports it to runChain.
type blockExit uint8

const (
	exitCut  blockExit = iota // trap, stop, or self-modification abort: no chaining
	exitEnd                   // ran through its last entry
	exitSide                  // left through a taken side-exit JCC
)

// maxBlockEnts caps a superblock's length: long enough that a kR^X-
// instrumented loop body forms one block, short enough that a cold path's
// formation cost stays bounded.
const maxBlockEnts = 64

// formBlock builds (and registers) the block entered at rip, decoding
// forward as needed, by the formation rules at the top of this file. It
// returns the blkIdx value for rip's offset: >0 for blocks[i-1], -1 when no
// block can start here (a cached #UD or an undecidable page-tail offset —
// the single-step path owns those). The block is compiled here, once: the
// hotness gate in front of formation is the only one, so a block that forms
// is reused often enough to repay its thunks.
func (p *dcPage) formBlock(rip uint64, c *CPU) int16 {
	dc := c.dc
	base := rip &^ uint64(mem.PageMask)
	start := int(rip & uint64(mem.PageMask))
	off := start
	// Gather into a stack buffer, then copy out exactly: blocks are
	// immutable once formed, so append's spare capacity would be waste.
	var buf [maxBlockEnts]blkEnt
	ents := buf[:0]
	var cost uint64
	for len(ents) < maxBlockEnts {
		i := p.idx[off]
		if i == 0 {
			dc.stats.Misses++
			p.fill(off, dc.stats)
			i = p.idx[off]
		}
		if i <= 0 {
			// #UD slot or page-tail straddler: the block ends before it;
			// the dispatch loop falls back to Step for the offset itself.
			break
		}
		e := &p.entries[i-1]
		va := base + uint64(off)
		ents = append(ents, blkEnt{in: e.in, cost: e.cost, rip: va, ilen: e.ilen, flags: e.flags})
		cost += e.cost
		next := va + uint64(e.ilen)
		if e.flags&dcEnd != 0 {
			if e.in.Op == isa.JMP {
				next += uint64(e.in.Imm)
			} else if e.in.Op != isa.JCC || p.seenTaken(off) {
				break
			}
		}
		if next&^uint64(mem.PageMask) != base || inBlock(ents, next) {
			break
		}
		off = int(next & uint64(mem.PageMask))
	}
	if len(ents) == 0 {
		p.blkIdx[start] = -1
		return -1
	}
	// A fresh variable, not ents: the block stores the clone, and escape
	// analysis would move buf to the heap (9 KiB per formation) if the
	// stored slice and buf shared one variable.
	be := slices.Clone(ents)
	comp, fused, merged := compileBlock(be)
	x := blockXlat{ents: be, comp: comp, lean: leanBlock(be, comp), count: uint64(len(be)), cost: cost}
	if x.lean {
		x.fix = fixpointLoop(be)
	}
	if p.shared != nil {
		p.shared.publish(start, x)
	}
	c.bstats.Formed++
	c.bstats.Compiled++
	c.bstats.Fused += fused
	c.bstats.Merged += merged
	return p.addBlock(start, x)
}

// addBlock registers translation x as the block entered at page offset off
// and returns its blkIdx value.
func (p *dcPage) addBlock(off int, x blockXlat) int16 {
	p.blocks = append(p.blocks, dcBlock{blockXlat: x})
	bi := int16(len(p.blocks))
	p.blkIdx[off] = bi
	return bi
}

// missBlock resolves an offset of p with no block yet: it adopts the
// translation the page's shared table holds for it, if any, and otherwise
// applies the hotness gate and forms (and publishes) one. It returns the
// offset's new blkIdx value, or 0 when the gate keeps the dispatch cold.
func (c *CPU) missBlock(p *dcPage, off int, rip uint64) int16 {
	if p.shared != nil {
		if x, n, ok := p.shared.get(off); ok {
			if p.blocks == nil {
				// A page that adopts once will likely adopt most of what
				// its siblings published: size its block list for that.
				p.blocks = make([]dcBlock, 0, n)
			}
			c.bstats.Adopted++
			return p.addBlock(off, x)
		}
	}
	if c.coldGate(p, off) {
		return 0
	}
	return p.formBlock(rip, c)
}

// inBlock reports whether an entry of ents starts at rip.
func inBlock(ents []blkEnt, rip uint64) bool {
	for i := range ents {
		if ents[i].rip == rip {
			return true
		}
	}
	return false
}

// blockLookup resolves rip to a formed superblock, validating the page's
// generations exactly as a single step does (resolvePage), and applying the
// hotness gate: an offset with no block yet must accumulate BlockHotThreshold
// dispatch attempts before formation happens; until then the caller single-
// steps (through the decode cache — the bytes are still cached, only the
// block-granular dispatch is deferred). It returns (nil, nil) when no block
// is available at rip — cold, not executable, a cached #UD, or a page-tail
// offset — and the caller must fall back to single-step.
func (c *CPU) blockLookup(rip uint64) (*dcPage, *dcBlock) {
	p := c.dc.resolvePage(c.AS, rip)
	if p == nil {
		return nil, nil
	}
	off := int(rip & uint64(mem.PageMask))
	bi := p.blkIdx[off]
	if bi == 0 {
		bi = c.missBlock(p, off, rip)
	}
	if bi <= 0 {
		return nil, nil
	}
	return p, &p.blocks[bi-1]
}

// blockStep is Run's fast-path dispatch when the engine is armed: one page
// resolution decides between entering the chain executor and single-stepping
// the instruction at RIP from the already-resolved page. The single lookup
// matters — the hotness gate makes cold single-stepping the common case on
// short runs, and routing it through Step would pay the page resolution and
// the fetch privilege checks (already done by Run's guard) a second time per
// instruction, which is how the gate could cost more than it saves. For the
// same reason it spells out blockLookup's resolvePage / blkIdx / missBlock
// sequence instead of calling it: blockLookup is not inlined, and the extra
// call on every Run dispatch measured about 2% slower on the fuzz campaign.
// The caller guarantees probe-free execution and the block-entry privilege
// preconditions.
func (c *CPU) blockStep(limit, done, startInstrs uint64) (StopReason, *Trap) {
	p := c.dc.resolvePage(c.AS, c.RIP)
	if p == nil {
		// Not executable (or unmapped): the slow fetch raises the
		// authoritative fault.
		return c.stepSlow()
	}
	off := int(c.RIP & uint64(mem.PageMask))
	bi := p.blkIdx[off]
	if bi == 0 {
		bi = c.missBlock(p, off, c.RIP)
	}
	if bi <= 0 {
		return c.stepCached(p, off)
	}
	b := &p.blocks[bi-1]
	if limit != 0 && limit-done < b.count {
		return c.stepCached(p, off)
	}
	return c.runChain(p, b, limit, startInstrs)
}

// stepCached executes the instruction at RIP, page offset off, from a
// resolved, validated cache page: the one single step over the decode cache,
// shared by Step and blockStep's cold path. The caller has passed the fetch
// privilege check. It marks coverage and notifies the exec probes as
// stepSlow does, and a JCC it takes gets its seen-taken bit, so the block
// formed here later stops at that branch.
func (c *CPU) stepCached(p *dcPage, off int) (StopReason, *Trap) {
	dc := c.dc
	i := p.idx[off]
	if i != 0 {
		dc.stats.Hits++
	} else {
		dc.stats.Misses++
		p.fill(off, dc.stats)
		i = p.idx[off]
	}
	switch {
	case i > 0:
		e := &p.entries[i-1]
		c.Instrs++
		before := c.Cycles
		c.Cycles += e.cost
		rip := c.RIP
		next := rip + uint64(e.ilen)
		stop, trap := c.exec(&e.in, next)
		if e.in.Op == isa.JCC && c.RIP != next {
			p.markTaken(off)
		}
		if c.cov != nil {
			c.cov.mark(rip)
		}
		if c.probe != nil {
			c.probe.OnExec(rip, &e.in, c.Cycles-before)
		}
		return stop, trap
	case i < 0:
		// Cached deterministic decode failure: same #UD the slow path
		// would raise, with no Instrs/Cycles side effects.
		return StepContinue, &Trap{Kind: TrapUndefined, Addr: c.RIP, RIP: c.RIP, Mode: c.Mode}
	}
	// Page-tail straddler the cache cannot own: fetch across the boundary.
	return c.stepSlow()
}

// leanBlock reports whether a compiled block is lean (see dcBlock.lean):
// no entry writes memory and every slot has a thunk.
func leanBlock(ents []blkEnt, comp []cthunk) bool {
	for i := range ents {
		switch ents[i].in.Op {
		case isa.CALL, isa.CALLR, isa.CALLM:
			return false
		}
		if ents[i].flags&dcStore != 0 || comp[i].fn == nil {
			return false
		}
	}
	return true
}

// runBlock executes one superblock over its compiled thunk array: one
// direct call per slot (an instruction, a fused cmp+jcc, a merged
// trap-free run, or a summing load group), no exec-switch dispatch, no
// operand re-resolution, and no per-instruction accounting — the whole
// (possibly partial, possibly multi-pass) run is charged in one shot from
// the compiler's cumulative cycle sums. A slot with no thunk runs through exec in place. room is the
// instruction budget left (at least b.count). exit reports how the run
// ended: exitEnd and exitSide are the only states from which chaining into
// a successor is allowed. A completed pass that returns to the block entry
// runs again here (a self-loop, see the top of this file) while room still
// covers a full pass; between passes a lean block checks only its RIP and
// that budget, and a fixpoint-eligible one skips the passes that repeat the
// last (fixpoint fast-forward, same place). With a coverage sink installed,
// the entries that began executing are marked once the run ends.
func (c *CPU) runBlock(p *dcPage, b *dcBlock, room uint64) (stop StopReason, trap *Trap, exit blockExit) {
	fgen := p.fgen
	frame := p.frame
	mode := c.Mode
	entry := b.ents[0].rip
	n := len(b.comp)
	left := room - b.count // the caller guarantees room >= b.count
	var passes uint64
	var ran, cyc uint64 // the run's last entry's cumulative ni and cyc, if not slot i's
	i := 0
	for {
		ct := &b.comp[i]
		if ct.fn != nil {
			stop, trap = ct.fn(c)
		} else {
			// Entry with no specialized form: run it through the exec switch
			// (base cost is covered by the batched accounting below; variable
			// extras, e.g. string-op units, are added by exec itself). c.RIP
			// is this instruction's VA — thunks (and exec) advance RIP only on
			// success.
			e := &b.ents[i]
			c.bstats.ExecSlots++
			stop, trap = c.exec(&e.in, e.rip+uint64(e.ilen))
		}
		if trap != nil || stop != StepContinue {
			if stop == stepSplit {
				// A load group ran its entries one by one and the one at
				// c.RIP trapped: the run ends there (datapath.go).
				stop = StepContinue
				ran, cyc = b.through(i, c.RIP)
			}
			break
		}
		// ni is also the index of the next entry: a fused cmp+jcc thunk
		// retires two entries and skips the jcc's own slot, and a merged
		// thunk skips every slot of its run after the first.
		next := int(ct.ni)
		if next == n {
			if c.RIP != entry || left < b.count || !b.lean && (c.Pending != nil || c.Mode != mode ||
				frame.Gen() != fgen || c.AS.MapGen() != p.mgen) {
				exit = exitEnd
				break
			}
			if b.fix != nil {
				k := c.fastForward(b, left, passes)
				left -= k * b.count
				passes += k
			}
			left -= b.count
			passes++
			i = 0
			continue
		}
		if ct.flags&dcStore != 0 && (frame.Gen() != fgen || c.AS.MapGen() != p.mgen) {
			// The store landed on this very frame (directly or through an
			// alias) — or broke copy-on-write on a frozen executable page,
			// which repoints the mapping at a fresh frame under a mapGen
			// bump without touching the old frame's gen. Either way the
			// rest of the block is stale. Resync through the dispatch loop —
			// its next lookup re-resolves, flushes, and redecodes. The
			// liveness pass treated every dcStore entry as a possible block
			// exit, so flags are architectural here even when later entries
			// promised to overwrite them. A store by the final entry needs no
			// re-check: no stale entry is left to run, and the dispatcher's
			// next lookup and any chain link revalidate first.
			c.bstats.Aborts++
			break
		}
		if ct.flags&dcEnd != 0 && c.RIP != b.ents[next].rip {
			exit = c.sideExit(p, b.ents[next-1].rip)
			break
		}
		i = next
	}
	// Batched accounting: every entry that began executing — including one
	// that trapped — is charged, exactly as the single-step path charges
	// each instruction before executing it, plus every completed pass. The
	// cumulative fields (not i) supply the totals because a fused entry
	// retires two instructions. Nothing reads Instrs/Cycles mid-block (limit
	// checks and chain budgeting run between dispatches), so the deferral
	// is unobservable. Each executed instruction is also a decode-cache hit
	// and a block-engine instruction.
	if ran == 0 {
		ran, cyc = uint64(b.comp[i].ni), b.comp[i].cyc
	}
	done := passes*b.count + ran
	c.Instrs += done
	c.Cycles += passes*b.cost + cyc
	c.dc.stats.Hits += done
	c.bstats.Instrs += done
	c.bstats.Dispatches++
	c.bstats.LoopIters += passes
	if c.cov != nil {
		if passes > 0 {
			ran = b.count // a full pass covered the whole block
		}
		c.coverBlock(b, ran)
	}
	return stop, trap, exit
}

// through returns the cumulative instruction count and base cycle cost of
// x from its entry through the entry at rip, the first at or after entry i
// to have that address. Entry i is a load group's first: its slot carries
// the group's totals, and the slots behind it still hold their own entry's.
func (x *blockXlat) through(i int, rip uint64) (ran, cyc uint64) {
	j := i
	for x.ents[j].rip != rip {
		j++
	}
	if j == i {
		return uint64(i + 1), x.comp[i+1].cyc - x.ents[i+1].cost
	}
	return uint64(x.comp[j].ni), x.comp[j].cyc
}

// fastForward is runBlock's fixpoint check after a completed pass of a
// fixpoint-eligible self-loop b, with left instructions of budget to spare
// and passes loop-backs before this one in the dispatch (see the top of
// this file). If the pass left every non-induction register as the one
// before it did, it skips the passes that certainly continue, leaving at
// least one within left to run, and returns how many it skipped;
// otherwise 0. The first pass of a dispatch only records the registers:
// what the CPU recorded before it belongs to another run. fastForward
// stays out of runBlock's loop, so that loop is what it was for every
// other block.
func (c *CPU) fastForward(b *dcBlock, left, passes uint64) uint64 {
	if !b.fix.repeat(c) || passes == 0 || left < 2*b.count {
		return 0
	}
	k := b.fix.span(c, left/b.count-1)
	b.fix.advance(c, k)
	c.bstats.LoopSkipped += k
	return k
}

// sideExit books a run leaving its block through the taken JCC at rip, on
// page p: the branch gets its seen-taken bit, so the next formation over it
// stops there.
func (c *CPU) sideExit(p *dcPage, rip uint64) blockExit {
	p.markTaken(int(rip & uint64(mem.PageMask)))
	c.bstats.SideExits++
	return exitSide
}

// chainNext resolves the successor of a block that just exited (exitEnd or
// exitSide) to the next block to execute, or nil when the chain must break
// and control return to Run's dispatcher. The exit picks the slot: a side
// exit selects the side link; otherwise c.RIP equal to the block's
// fallthrough address selects the fall link (jcc not taken, or a block cut
// at a formation boundary), and anything else the taken link (jumps, calls,
// returns, mode switches). A cached link is followed only if every
// generation it pinned still holds (see blkLink); otherwise it is severed
// and re-resolved through the full hotness-gated blockLookup — so a stale
// link can never execute stale bytes, and a cold or invalidated successor
// falls back to single-step exactly as if the chain had never existed.
func (c *CPU) chainNext(p *dcPage, b *dcBlock, exit blockExit) (*dcPage, *dcBlock) {
	l := b.link(exit, c.RIP)
	if lp := l.p; lp != nil && l.rip == c.RIP {
		if lp.frame == l.frame && l.frame != nil &&
			lp.fgen == l.fgen && l.frame.Gen() == l.fgen &&
			lp.mgen == c.AS.MapGen() &&
			l.bi > 0 && int(l.bi) <= len(lp.blocks) {
			c.bstats.Chained++
			return lp, &lp.blocks[l.bi-1]
		}
		*l = blkLink{}
		c.bstats.Severed++
	}
	np, nb := c.blockLookup(c.RIP)
	if nb == nil {
		return nil, nil
	}
	if np == p {
		// Forming the successor may have grown p.blocks into a new array,
		// or flushed it: store the link in the block's live copy, if any.
		l = nil
		if bi := p.blkIdx[b.ents[0].rip&uint64(mem.PageMask)]; bi > 0 {
			l = p.blocks[bi-1].link(exit, c.RIP)
		}
	}
	if l != nil {
		*l = blkLink{p: np, frame: np.frame, bi: np.blkIdx[int(c.RIP&uint64(mem.PageMask))], rip: c.RIP, fgen: np.fgen}
	}
	c.bstats.Chained++
	return np, nb
}

// link returns the successor slot for an exit to rip (see chainNext).
func (b *dcBlock) link(exit blockExit, rip uint64) *blkLink {
	if exit == exitSide {
		return &b.side
	}
	if e := &b.ents[len(b.ents)-1]; rip == e.rip+uint64(e.ilen) {
		return &b.fall
	}
	return &b.taken
}

// runChain executes a chain of superblocks starting at b, following
// successor links until a block stops, traps, aborts, fails a fetch
// privilege precondition, exits to a cold or unformable successor, or
// would overrun the remaining instruction budget. Every condition Run's
// dispatcher would check between two blocks is re-checked here between two
// chained blocks — the chain is transparent: it only skips the dispatcher's
// redundant lookups, never its semantics.
func (c *CPU) runChain(p *dcPage, b *dcBlock, limit, startInstrs uint64) (StopReason, *Trap) {
	for {
		room := ^uint64(0)
		if limit > 0 {
			room = limit - (c.Instrs - startInstrs)
		}
		stop, trap, exit := c.runBlock(p, b, room)
		if exit == exitCut || c.Pending != nil {
			return stop, trap
		}
		// A terminator may have switched the mode (syscall/sysret/iret):
		// re-establish the fetch privilege preconditions before chaining.
		if c.fetchDenied() {
			return stop, trap
		}
		np, nb := c.chainNext(p, b, exit)
		if nb == nil {
			return stop, trap
		}
		if limit > 0 && limit-(c.Instrs-startInstrs) < nb.count {
			return stop, trap
		}
		p, b = np, nb
	}
}

// SetBlockEngine enables or disables the superblock engine (on by default).
// Blocks are a pure dispatch optimization layered on the decode cache:
// disabling it reverts Run to per-instruction Step dispatch, with
// bit-identical Instrs/Cycles/traps/probe streams either way. It has no
// effect while the decode cache is off.
func (c *CPU) SetBlockEngine(on bool) {
	c.blocks = on
	if !on && c.dc != nil {
		// Drop formed blocks so the live Blocks stat reads zero; the decoded
		// entries stay (they belong to the decode cache), and so do the heat
		// counters (hotness measures the workload, not the cached state).
		// Every successor link dies here with the block that holds it — a
		// re-enabled engine re-forms blocks with empty links, so no chain
		// can survive a disable/enable cycle and index into the rebuilt
		// block lists.
		for _, p := range c.dc.pages {
			p.blocks = nil
			p.blkIdx = [mem.PageSize]int16{}
		}
	}
}

// BlockEngineEnabled reports whether the superblock engine is active (it
// also requires the decode cache to be enabled to take effect).
func (c *CPU) BlockEngineEnabled() bool { return c.blocks && c.dc != nil }

// SetBlockHotThreshold sets the number of times a block entry offset must
// be dispatched before a superblock is formed over it. 1 forms eagerly on
// first dispatch (the pre-gate behaviour); larger values defer formation
// cost on cold code at the price of single-stepping the first n-1 passes.
// 0 restores DefaultBlockHotThreshold; values above 255 are clamped (the
// per-offset counters are bytes).
func (c *CPU) SetBlockHotThreshold(n int) {
	switch {
	case n <= 0:
		n = DefaultBlockHotThreshold
	case n > 255:
		n = 255
	}
	c.blockHot = uint32(n)
}

// coldGate applies the hotness gate to an unformed block entry offset:
// true means the dispatch stays cold (single-step) and the offset's heat
// counter ramps. Bit-identity is unaffected: formation timing is host-side
// only (the invariant the hot=1 determinism gates prove).
func (c *CPU) coldGate(p *dcPage, off int) bool {
	if h := uint32(p.heat[off]); h+1 < c.blockHot {
		p.heat[off]++
		c.bstats.Cold++
		return true
	}
	return false
}

// BlockStats returns a snapshot of the superblock-engine counters. The
// cumulative counters survive flushes and SetBlockEngine/SetDecodeCache
// toggles; Blocks reflects the current live footprint and only counts
// blocks whose page would still pass content validation — a page whose
// frame was rewritten holds its stale blocks only until the next lookup
// flushes them, and they are already dead weight, not live cache.
func (c *CPU) BlockStats() BlockStats {
	s := c.bstats
	if c.dc == nil {
		return s
	}
	for _, p := range c.dc.pages {
		if p.frame == nil || p.frame.Gen() != p.fgen {
			continue
		}
		s.Blocks += uint64(len(p.blocks))
	}
	return s
}
