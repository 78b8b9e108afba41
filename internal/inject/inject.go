// Package inject is a deterministic fault-injection layer for the emulated
// machine. Attached to a running CPU, it perturbs the system at seeded,
// replayable points: flipping bytes in mapped data pages, revoking or
// altering page permissions mid-run, corrupting MPX bound registers,
// clobbering xkey slots, and forcing spurious traps. Every decision flows
// from a single seeded PRNG sampled at fixed instruction strides — the
// injector is a cpu.Ticker, so those strides are instruction-count
// deadlines that compiled blocks run up to, not a per-instruction probe —
// and a given (seed, workload) pair always produces the same fault sequence:
// the property that makes fuzzer crashes reproducible and lets the
// robustness harness assert that the same seed yields the same crash bucket.
package inject

import (
	"fmt"
	"math/rand"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prng"
)

// Plan configures an injection campaign. Probabilities are evaluated once
// per opportunity (every Every executed instructions), independently per
// fault class, in a fixed order; zero values disable a class.
type Plan struct {
	// Seed drives every injection decision. Two runs of the same workload
	// under the same seed inject identical faults at identical points.
	Seed int64

	// Every is the instruction stride between injection opportunities
	// (default 512).
	Every uint64

	// MaxFaults caps the number of injected faults per attachment
	// (default 16; negative means unlimited).
	MaxFaults int

	// ByteFlip is the per-opportunity probability of flipping one random
	// bit of one random byte in a mapped target page (memory corruption).
	ByteFlip float64
	// PermFlip is the probability of rewriting a random target page's
	// permissions to a random value among {---, r--, rw-} (a corrupted
	// page-table entry).
	PermFlip float64
	// BndCorrupt is the probability of loading a random MPX bound register
	// with garbage bounds.
	BndCorrupt float64
	// KeyClobber is the probability of overwriting one xkey slot with a
	// random value (desynchronizing return-address encryption).
	KeyClobber float64
	// SpuriousTrap is the probability of forcing an unprovoked exception
	// (#PF, #BR, #UD, or #GP) before the next instruction.
	SpuriousTrap float64
}

// DefaultPlan returns a moderate all-classes campaign for the given seed.
func DefaultPlan(seed int64) Plan {
	return Plan{
		Seed:         seed,
		Every:        512,
		MaxFaults:    16,
		ByteFlip:     0.05,
		PermFlip:     0.02,
		BndCorrupt:   0.02,
		KeyClobber:   0.02,
		SpuriousTrap: 0.02,
	}
}

// Range is a half-open virtual address interval [Start, End).
type Range struct {
	Start, End uint64
}

// Targets names the memory the injector may perturb. Data ranges are
// candidates for byte flips and permission flips; KeyAddrs are the xkey
// slots. Callers must supply deterministic ordering (no map iteration).
type Targets struct {
	Data     []Range
	KeyAddrs []uint64
}

// Event records one injected fault, for triage and replay verification.
type Event struct {
	Instr uint64 // cumulative CPU instruction count at injection time
	Kind  string // "byte-flip", "perm-flip", "bnd-corrupt", "key-clobber", "spurious-trap"
	Addr  uint64 // affected address (0 when not applicable)
	Note  string
}

func (e Event) String() string {
	return fmt.Sprintf("@%d %s addr=%#x %s", e.Instr, e.Kind, e.Addr, e.Note)
}

// Injector drives one campaign over one CPU. It is a cpu.Ticker: attaching
// arms it in the CPU's ticker slot with a stride of Plan.Every, so injection
// points are tied to the instruction stream — not wall-clock or scheduling
// noise — while blocks keep running between them, and it composes with any
// installed observer (the coverage sink, profilers, tracers).
type Injector struct {
	plan    Plan
	rng     *rand.Rand
	c       *cpu.CPU
	as      *mem.AddressSpace
	targets Targets

	// Events is the log of injected faults, in injection order.
	Events []Event

	// Sink, when set, receives each injected fault as it is logged — the
	// bridge into the observability tracer (obs.EvFault events).
	Sink func(e Event)
}

// New creates an injector for the plan. Zero-valued stride and cap take
// their defaults. Its stream comes from prng.New: the values math/rand's
// NewSource(plan.Seed) gives, without paying for the whole seeded vector
// up front.
func New(plan Plan) *Injector {
	if plan.Every == 0 {
		plan.Every = 512
	}
	if plan.MaxFaults == 0 {
		plan.MaxFaults = 16
	}
	return &Injector{plan: plan, rng: prng.New(plan.Seed)}
}

// Reseed readies a detached injector for a new attachment under seed: from
// here on it injects exactly what New would with the plan's Seed set to
// seed. The source is re-seeded in place, in constant time, and Events is
// emptied into its old backing array, so a caller that keeps one injector
// across runs (the fuzzer keeps one per executor) allocates nothing for
// it. Copy Events first if an earlier run's log must outlive this call.
func (inj *Injector) Reseed(seed int64) {
	inj.plan.Seed = seed
	inj.rng.Seed(seed)
	inj.Events = inj.Events[:0]
}

// Attach arms the injector as the CPU's ticker: the first opportunity
// comes Plan.Every instructions after attachment, and one follows every
// Plan.Every instructions after that. It panics if another ticker (another
// injector) is armed on the CPU.
func (inj *Injector) Attach(c *cpu.CPU, as *mem.AddressSpace, t Targets) {
	inj.c, inj.as, inj.targets = c, as, t
	c.SetTick(inj, inj.plan.Every)
}

// Tick implements cpu.Ticker: one injection opportunity per deadline.
func (inj *Injector) Tick(rip uint64) uint64 {
	inj.opportunity(rip)
	return inj.plan.Every
}

// Detach disarms the injector's ticker.
func (inj *Injector) Detach() {
	if inj.c != nil {
		inj.c.SetTick(nil, 0)
	}
	inj.c = nil
}

// Fired reports whether any fault has been injected so far.
func (inj *Injector) Fired() bool { return len(inj.Events) > 0 }

func (inj *Injector) budgetLeft() bool {
	return inj.plan.MaxFaults < 0 || len(inj.Events) < inj.plan.MaxFaults
}

// opportunity evaluates every fault class once, in fixed order. Each class
// always consumes the same number of PRNG draws whether or not it fires, so
// the decision stream is independent of prior outcomes — the replay
// guarantee.
func (inj *Injector) opportunity(rip uint64) {
	p := inj.plan
	fire := [5]bool{
		inj.rng.Float64() < p.ByteFlip,
		inj.rng.Float64() < p.PermFlip,
		inj.rng.Float64() < p.BndCorrupt,
		inj.rng.Float64() < p.KeyClobber,
		inj.rng.Float64() < p.SpuriousTrap,
	}
	if fire[0] && inj.budgetLeft() {
		inj.byteFlip()
	}
	if fire[1] && inj.budgetLeft() {
		inj.permFlip()
	}
	if fire[2] && inj.budgetLeft() {
		inj.bndCorrupt()
	}
	if fire[3] && inj.budgetLeft() {
		inj.keyClobber()
	}
	if fire[4] && inj.budgetLeft() {
		inj.spuriousTrap(rip)
	}
}

func (inj *Injector) log(kind string, addr uint64, note string) {
	e := Event{Instr: inj.c.Instrs, Kind: kind, Addr: addr, Note: note}
	inj.Events = append(inj.Events, e)
	if inj.Sink != nil {
		inj.Sink(e)
	}
}

// pickAddr draws a uniform address from the target data ranges.
func (inj *Injector) pickAddr() (uint64, bool) {
	if len(inj.targets.Data) == 0 {
		return 0, false
	}
	r := inj.targets.Data[inj.rng.Intn(len(inj.targets.Data))]
	if r.End <= r.Start {
		return 0, false
	}
	return r.Start + uint64(inj.rng.Int63n(int64(r.End-r.Start))), true
}

func (inj *Injector) byteFlip() {
	addr, ok := inj.pickAddr()
	bit := uint(inj.rng.Intn(8))
	if !ok {
		return
	}
	b, err := inj.as.Peek(addr, 1)
	if err != nil {
		return
	}
	flipped := b[0] ^ (1 << bit)
	if err := inj.as.Poke(addr, []byte{flipped}); err != nil {
		return
	}
	inj.log("byte-flip", addr, fmt.Sprintf("bit %d: %#02x -> %#02x", bit, b[0], flipped))
}

func (inj *Injector) permFlip() {
	addr, ok := inj.pickAddr()
	perms := []mem.Perm{0, mem.PermR, mem.PermRW}
	perm := perms[inj.rng.Intn(len(perms))]
	if !ok {
		return
	}
	page := addr &^ uint64(mem.PageMask)
	old, mapped := inj.as.PermAt(page)
	if !mapped {
		return
	}
	if err := inj.as.Protect(page, 1, perm); err != nil {
		return
	}
	inj.log("perm-flip", page, fmt.Sprintf("%s -> %s", old, perm))
}

func (inj *Injector) bndCorrupt() {
	i := inj.rng.Intn(isa.NumBnd)
	lb, ub := inj.rng.Uint64(), inj.rng.Uint64()
	inj.c.Bnd[i] = cpu.Bound{LB: lb, UB: ub}
	inj.log("bnd-corrupt", 0, fmt.Sprintf("bnd%d = [%#x, %#x]", i, lb, ub))
}

func (inj *Injector) keyClobber() {
	if len(inj.targets.KeyAddrs) == 0 {
		// Burn the draws a firing clobber would use, keeping the PRNG
		// stream aligned across kernels with and without xkeys.
		inj.rng.Uint64()
		return
	}
	addr := inj.targets.KeyAddrs[inj.rng.Intn(len(inj.targets.KeyAddrs))]
	v := inj.rng.Uint64() | 1
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	if err := inj.as.Poke(addr, b[:]); err != nil {
		return
	}
	inj.log("key-clobber", addr, fmt.Sprintf("= %#x", v))
}

var trapKinds = []cpu.TrapKind{
	cpu.TrapPageFault, cpu.TrapBoundRange, cpu.TrapUndefined, cpu.TrapProtection,
}

func (inj *Injector) spuriousTrap(rip uint64) {
	kind := trapKinds[inj.rng.Intn(len(trapKinds))]
	inj.c.Pending = &cpu.Trap{Kind: kind, Addr: rip, RIP: rip, Mode: inj.c.Mode}
	inj.log("spurious-trap", rip, kind.String())
}
