// Package fuzz is the syscall fuzzer for the simulated kernel: a
// syzkaller-style loop of typed program generation, corpus-guided mutation,
// coverage feedback, optional fault injection, crash triage with
// deduplication, and reproducer minimization. Everything flows from one
// seed, so a run is replayable end to end: the same (seed, config, plan)
// triple produces a byte-identical report — for any worker count.
//
// # Sharded-campaign determinism
//
// The campaign is parallel without giving up replayability. Three rules
// make that work:
//
//  1. Every per-iteration random stream is derived from (Seed, iteration),
//     never drawn from a shared generator: program generation/mutation uses
//     ProgSeed(seed, i), fault injection uses InjSeed(seed, i). What
//     iteration i does therefore never depends on which worker ran it or
//     what ran before it on the same kernel.
//  2. The iteration space is executed in fixed-size batches (BatchSize,
//     independent of the worker count). Within a batch, workers execute
//     disjoint iteration shards against their own booted kernels; mutation
//     bases come from the corpus frozen at the previous batch boundary, so
//     the corpus state visible to iteration i is a pure function of the
//     options, not of scheduling.
//  3. A merge step folds each batch back in canonical iteration-index
//     order: coverage novelty, corpus growth, crash bucket ownership
//     (first iteration wins), and reproducer minimization are all decided
//     during the ordered merge.
//
// The result: krxfuzz -workers 1 and -workers 8 emit identical bytes.
//
// The Fuzzer below is a thin scheduler over two exported building blocks:
// an Executor executes programs against one booted kernel, and a Ledger
// folds ExecResults in canonical iteration order into a Report. They stay
// exported so an instrumented loop (the benchmark's traced campaign)
// can time each phase under the same contract and land on the same bytes.
package fuzz

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/inject"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/store"
)

// Options configures one fuzzing campaign.
type Options struct {
	// Iters is the number of programs to execute.
	Iters int
	// Seed drives generation, mutation, and the per-iteration injector
	// seeds.
	Seed int64
	// Config is the kernel protection configuration to boot under.
	Config core.Config
	// Plan, when non-nil, arms fault injection: each iteration runs under a
	// fresh injector whose seed is derived from (Seed, iteration), so any
	// crash replays from its iteration number alone.
	Plan *inject.Plan
	// MaxMinimize caps the executions spent minimizing one crash (0 = 64).
	MaxMinimize int
	// Workers is the number of parallel execution workers (0 or 1 =
	// sequential). Each worker boots its own kernel from the shared build
	// cache and executes a deterministic shard of every batch; the report
	// is byte-identical for any value.
	Workers int
	// Fork boots a single golden kernel and stands the remaining workers up
	// as copy-on-write forks of its boot snapshot (kernel.Fork) instead of
	// booting each one: workers share every unwritten frame and start with
	// the golden kernel's warm decode cache. Reports are byte-identical to
	// boot-per-worker mode at any worker count — emulated semantics cannot
	// observe frame identity or host cache warmth — which TestForkReport-
	// Identical and the CI cmp gates enforce.
	Fork bool
	// Checkpoint, when non-nil, persists the campaign ledger to this store
	// at every batch boundary and resumes from the stored checkpoint on
	// start: a killed campaign (or a warm-starting worker fleet) continues
	// from its last completed batch, and the resumed run finalizes to the
	// byte-identical report of an uninterrupted one. Incompatible with
	// Trace (the event stream is not checkpointed).
	Checkpoint store.Store
	// Trace arms per-iteration event tracing: every worker records
	// snapshot/restore, syscall enter/exit, trap, and injected-fault events,
	// and the merge folds them into Report.Trace in canonical iteration
	// order. Timestamps are the emulated counters, which Restore rewinds to
	// the boot snapshot before every iteration, so the merged stream is
	// byte-identical for any worker count.
	Trace bool
}

// OptionsError is the typed validation error New and NewExecutor return for
// an out-of-range Options field.
type OptionsError struct {
	Field  string
	Value  int
	Reason string
}

func (e *OptionsError) Error() string {
	return fmt.Sprintf("fuzz: invalid Options.%s = %d: %s", e.Field, e.Value, e.Reason)
}

// Normalize validates the options and fills in defaults: negative counts
// are rejected with an *OptionsError; zero values take their documented
// defaults. Idempotent.
func (o *Options) Normalize() error {
	switch {
	case o.Iters < 0:
		return &OptionsError{Field: "Iters", Value: o.Iters, Reason: "must be >= 0 (0 = default 1000)"}
	case o.Workers < 0:
		return &OptionsError{Field: "Workers", Value: o.Workers, Reason: "must be >= 0 (0 = sequential)"}
	case o.MaxMinimize < 0:
		return &OptionsError{Field: "MaxMinimize", Value: o.MaxMinimize, Reason: "must be >= 0 (0 = default 64)"}
	}
	if o.Iters == 0 {
		o.Iters = 1000
	}
	if o.MaxMinimize == 0 {
		o.MaxMinimize = 64
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.Checkpoint != nil && o.Trace {
		return fmt.Errorf("fuzz: Options.Checkpoint is incompatible with Trace (the event stream is not checkpointed)")
	}
	return nil
}

// NoWorkersError is the typed error returned by Kernel, Kernels, and Run on
// a Fuzzer with no booted workers — a zero-value Fuzzer, not one built by
// New, which always boots at least one.
type NoWorkersError struct {
	Op string
}

func (e *NoWorkersError) Error() string {
	return "fuzz: " + e.Op + ": fuzzer has no workers (not built by New)"
}

// BatchSize is the number of iterations executed between corpus merges. It
// is a protocol constant — NOT derived from the worker count — because the
// corpus snapshot an iteration mutates from is "the corpus after the last
// whole batch", and that must mean the same thing under any parallelism.
const BatchSize = 64

// Crash is one deduplicated crash bucket.
type Crash struct {
	Bucket string // trap kind + containing function (the dedup key)
	Count  int    // programs that landed in this bucket
	Iter   int    // first iteration that hit it (replay handle)
	Prog   *Prog  // first crashing program
	Min    *Prog  // minimized reproducer
}

// ReportSchemaVersion identifies the JSON layout of Report. Bump it on any
// field change so downstream consumers can detect the format.
//
// v2: added Partial (graceful-shutdown reports cover a batch-aligned prefix
// of the requested iterations; Iters reports the completed count).
const ReportSchemaVersion = 2

// Report is the campaign result. String() is deterministic: same options in,
// same bytes out, regardless of Options.Workers.
type Report struct {
	SchemaVersion int `json:"schema_version"`

	// Partial marks a report cut short by cancellation (SIGINT/SIGTERM):
	// the campaign drained its in-flight batch and merged every completed
	// batch, so the report is the canonical report of the first Iters
	// iterations — a byte-identical prefix of the full campaign's ledger.
	Partial bool `json:"partial"`

	Iters    int
	Seed     int64
	Config   string
	Crashes  []*Crash // sorted by bucket
	Cover    int      // distinct kernel RIPs executed (minimization excluded)
	Faults   int      // total injected faults
	Executed int      // total syscalls issued (incl. minimization)

	// AuditViolations counts failed audit checks observed after injected
	// faults, keyed by check name — the "graceful degradation" ledger:
	// invariant breakage is reported, never silently absorbed.
	AuditViolations map[string]int

	// Trace is the merged campaign event stream (Options.Trace), in
	// canonical iteration order with renumbered sequence numbers. Excluded
	// from String() — trace identity is asserted via obs.TraceText.
	Trace []obs.Event `json:",omitempty"`
}

// String renders the report deterministically (sorted buckets, sorted
// checks, no map iteration, no worker-count dependence).
func (r *Report) String() string {
	partial := ""
	if r.Partial {
		partial = " partial=true"
	}
	s := fmt.Sprintf("fuzz: config=%s seed=%d iters=%d syscalls=%d cover=%d faults=%d crashes=%d%s\n",
		r.Config, r.Seed, r.Iters, r.Executed, r.Cover, r.Faults, len(r.Crashes), partial)
	for _, c := range r.Crashes {
		s += fmt.Sprintf("  crash %-40s count=%-5d iter=%-5d repro: %s\n",
			c.Bucket, c.Count, c.Iter, c.Min.String())
	}
	checks := make([]string, 0, len(r.AuditViolations))
	for k := range r.AuditViolations {
		checks = append(checks, k)
	}
	sort.Strings(checks)
	for _, k := range checks {
		s += fmt.Sprintf("  audit-violation %-30s count=%d\n", k, r.AuditViolations[k])
	}
	return s
}

// InjSeed derives iteration iter's injector seed from the master seed. The
// mixing constant keeps adjacent iterations' streams unrelated.
func InjSeed(seed int64, iter int) int64 {
	return seed ^ (int64(iter)+1)*0x2545f4914f6cdd1d
}

// ProgSeed derives iteration iter's generation/mutation seed. A constant
// distinct from InjSeed's keeps the two per-iteration streams independent.
func ProgSeed(seed int64, iter int) int64 {
	return seed ^ (int64(iter)+1)*-0x61c8864680b583eb // golden-ratio mix
}

// PickProg draws the program for iteration iter from a corpus snapshot: a
// fresh generation while the corpus is cold, afterwards mostly mutations of
// corpus entries. The whole decision consumes only the iteration's own
// derived RNG, so it is identical under any scheduling and worker count.
func PickProg(seed int64, iter int, corpus []*Prog, kaddrs []uint64) *Prog {
	g := &generator{rng: rand.New(rand.NewSource(ProgSeed(seed, iter))), kaddrs: kaddrs}
	r := g.rng
	if len(corpus) == 0 || r.Intn(4) == 0 {
		return g.Generate(1 + r.Intn(5))
	}
	base := corpus[r.Intn(len(corpus))]
	var other *Prog
	if len(corpus) > 1 {
		other = corpus[r.Intn(len(corpus))]
	}
	return g.Mutate(base, other)
}

// Fuzzer is one campaign in progress.
type Fuzzer struct {
	opts    Options
	workers []*Executor
	kaddrs  []uint64 // interesting kernel addresses, shared read-only
	ledger  *Ledger

	// batchHook, when set, runs after every merged batch with the count of
	// iterations folded so far — the test seam for exercising mid-campaign
	// cancellation at a deterministic boundary.
	batchHook func(done int)
}

type funcSpan struct {
	name       string
	start, end uint64
}

// Executor owns one booted kernel and executes programs against it — the
// unit a scheduler hands work to. Executors never touch shared campaign
// state; everything they learn travels back in ExecResults and is folded in
// by a Ledger in canonical iteration order.
type Executor struct {
	opts   Options
	k      *kernel.Kernel
	snap   *kernel.Snapshot
	tracer *obs.Tracer // non-nil when Options.Trace
	funcs  []funcSpan  // image functions sorted by address, for bucketing
	kaddrs []uint64
	// cov is the CPU's coverage sink: a bitmap over the kernel text plus a
	// set for RIPs outside it (user stubs, modules). The CPU marks it a
	// block at a time, so coverage keeps the block engine armed.
	cov *cpu.Coverage
}

// New boots the campaign's kernels (one per worker, all sharing one cached
// build) and prepares the campaign. Each boot snapshot is taken after user
// memory seeding, so every iteration starts from an identical machine. With
// Options.Fork set, only worker 0 boots; the rest are copy-on-write forks
// of its snapshot — identical machines by construction.
func New(opts Options) (*Fuzzer, error) {
	if err := opts.Normalize(); err != nil {
		return nil, err
	}
	f := &Fuzzer{opts: opts}
	for i := 0; i < opts.Workers; i++ {
		var w *Executor
		var err error
		if opts.Fork && i > 0 {
			w, err = f.workers[0].Fork()
		} else {
			w, err = NewExecutor(opts)
		}
		if err != nil {
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	f.kaddrs = f.workers[0].Kaddrs()
	f.ledger = NewLedger(opts, f.workers[0])
	if _, err := f.ledger.LoadCheckpoint(); err != nil {
		return nil, err
	}
	return f, nil
}

// NewExecutor boots one worker kernel (through the shared build cache),
// seeds user memory, installs the coverage sink, and snapshots the machine
// so every Exec starts from an identical state.
func NewExecutor(opts Options) (*Executor, error) {
	if err := opts.Normalize(); err != nil {
		return nil, err
	}
	bootOpts := []kernel.BootOption{kernel.WithCache()}
	var tr *obs.Tracer
	if opts.Trace {
		tr = obs.NewTracer(0)
		bootOpts = append(bootOpts, kernel.WithTracer(tr))
	}
	k, err := kernel.Boot(opts.Config, bootOpts...)
	if err != nil {
		return nil, fmt.Errorf("fuzz: boot: %w", err)
	}
	if err := SetupUserMemory(k); err != nil {
		return nil, fmt.Errorf("fuzz: seeding user memory: %w", err)
	}
	w := &Executor{opts: opts, k: k, tracer: tr}
	for _, fn := range k.Img.Funcs {
		w.funcs = append(w.funcs, funcSpan{name: fn.Name, start: fn.Addr, end: fn.Addr + fn.Size})
	}
	sort.Slice(w.funcs, func(i, j int) bool { return w.funcs[i].start < w.funcs[j].start })
	w.kaddrs = interestingKaddrs(k)

	// Coverage sink, installed once at boot; Snapshot/Restore leave it
	// alone, and Exec empties it per iteration.
	w.cov = cpu.NewCoverage(k.Sym("_text"), uint64(len(k.Img.Text)))
	k.CPU.SetCoverage(w.cov)
	w.snap = k.Snapshot()
	return w, nil
}

// Fork stands up a new executor whose kernel is a copy-on-write fork of
// this executor's machine (kernel.Fork): frames, and the warm decode cache,
// are shared until first write, so the child costs a few map clones instead
// of a boot plus warmup. The parent must be at its snapshot point — freshly
// built by NewExecutor, or restored — which is where fuzz.New calls it
// from. The child takes its own boot snapshot and behaves exactly like a
// NewExecutor-built worker from then on: byte-identical execution, reports,
// and traces.
func (w *Executor) Fork() (*Executor, error) {
	var forkOpts []kernel.BootOption
	var tr *obs.Tracer
	if w.opts.Trace {
		tr = obs.NewTracer(0)
		forkOpts = append(forkOpts, kernel.WithTracer(tr))
	}
	k, err := w.k.Fork(forkOpts...)
	if err != nil {
		return nil, fmt.Errorf("fuzz: fork: %w", err)
	}
	nw := &Executor{
		opts:   w.opts,
		k:      k,
		tracer: tr,
		funcs:  w.funcs, // sorted once, never mutated — shareable
		kaddrs: w.kaddrs,
		cov:    cpu.NewCoverage(k.Sym("_text"), uint64(len(k.Img.Text))),
	}
	k.CPU.SetCoverage(nw.cov)
	nw.snap = k.Snapshot()
	return nw, nil
}

// Kernel returns the executor's booted kernel.
func (w *Executor) Kernel() *kernel.Kernel { return w.k }

// Kaddrs returns the interesting kernel addresses program generation aims
// at. They depend only on the configuration (layout diversification is
// seeded by Config.Seed), so every executor of a campaign agrees on them.
func (w *Executor) Kaddrs() []uint64 { return w.kaddrs }

// interestingKaddrs collects the kernel addresses worth aiming leak/plant
// style arguments at, in deterministic order.
func interestingKaddrs(k *kernel.Kernel) []uint64 {
	names := []string{
		"_text", "_krx_edata", "cred", "sys_call_table", "dentry_table",
		"fault_count", "task_cur", "sigactions", "vma_table", "pgtable_arr",
		"brk_ptr", "krx_handler", "syscall_entry",
	}
	var out []uint64
	for _, n := range names {
		if a := k.Sym(n); a != 0 {
			out = append(out, a)
		}
	}
	out = append(out, k.KernelStackBase)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// injSeed derives the iteration's injector seed from the master seed.
func (f *Fuzzer) injSeed(iter int) int64 { return InjSeed(f.opts.Seed, iter) }

// ExecResult is one program execution's outcome, self-contained so a merge
// step can fold it in without touching the executor again, in whatever
// order the workers finish.
type ExecResult struct {
	Bucket   string // "" = clean run
	CrashIdx int    // index of the crashing call
	Faults   int    // faults injected during the run
	AuditBad []string
	Cover    []uint64    // distinct RIPs executed, unordered
	NExec    int         // syscalls issued
	Trace    []obs.Event // iteration event stream (Options.Trace)
}

// Exec restores the snapshot and runs prog, with fault injection when the
// campaign has a plan. The injector seed is passed explicitly so
// minimization can replay an iteration's exact fault stream.
func (w *Executor) Exec(prog *Prog, injSeed int64) (ExecResult, error) {
	var res ExecResult
	if w.tracer != nil {
		// Start the iteration's stream empty; Restore below rewinds the
		// emulated clock to the boot snapshot, so every iteration's events
		// carry identical, scheduling-independent timestamps.
		w.tracer.Reset()
	}
	if err := w.k.Restore(w.snap); err != nil {
		return res, fmt.Errorf("fuzz: restore: %w", err)
	}
	w.cov.Reset()

	var inj *inject.Injector
	if w.opts.Plan != nil {
		plan := *w.opts.Plan
		plan.Seed = injSeed
		inj = inject.New(plan)
		if w.tracer != nil {
			inj.Sink = func(e inject.Event) {
				w.tracer.Emit(obs.EvFault, e.Kind, e.Addr, 0)
			}
		}
		inj.Attach(w.k.CPU, w.k.Space.AS, w.k.FaultTargets())
	}

	res.CrashIdx = -1
	for i, c := range prog.Calls {
		r := w.k.Syscall(c.Nr, c.Args[0], c.Args[1], c.Args[2])
		res.NExec++
		if r.Failed {
			res.Bucket = w.bucketOf(r)
			res.CrashIdx = i
			break
		}
	}
	if inj != nil {
		inj.Detach()
		res.Faults = len(inj.Events)
	}

	// Invariant check: after any injected fault (or crash), the protections
	// must either still hold or report exactly which check broke.
	if res.Faults > 0 || res.Bucket != "" {
		rep := audit.Audit(w.k)
		for _, fd := range rep.Findings {
			if !fd.OK {
				res.AuditBad = append(res.AuditBad, fd.Check)
			}
		}
	}

	res.Cover = w.cov.RIPs()
	if w.tracer != nil {
		res.Trace = w.tracer.Take()
	}
	return res, nil
}

// exec runs prog on the campaign's first worker — the replay entry point
// tests use to re-execute reproducers under an iteration's injector seed.
func (f *Fuzzer) exec(prog *Prog, injSeed int64) (ExecResult, error) {
	return f.workers[0].Exec(prog, injSeed)
}

// Kernel returns the first worker's booted kernel — the instance the
// benchmark harness inspects (e.g. for decode-cache configuration).
func (f *Fuzzer) Kernel() (*kernel.Kernel, error) {
	if len(f.workers) == 0 {
		return nil, &NoWorkersError{Op: "Kernel"}
	}
	return f.workers[0].k, nil
}

// Kernels returns every worker's booted kernel, in worker order — the
// observability tests attach one profiler per worker and toggle each
// worker's decode cache through this.
func (f *Fuzzer) Kernels() ([]*kernel.Kernel, error) {
	if len(f.workers) == 0 {
		return nil, &NoWorkersError{Op: "Kernels"}
	}
	ks := make([]*kernel.Kernel, len(f.workers))
	for i, w := range f.workers {
		ks[i] = w.k
	}
	return ks, nil
}

// ExecIteration re-executes iteration i exactly as the campaign's first
// worker would — restore the boot snapshot, derive the iteration's program
// from the current corpus, run it under the iteration's injector seed — and
// returns the emulated cycles consumed. What runs depends only on (Seed, i)
// and the corpus state, so benchmark loops over it are deterministic.
func (f *Fuzzer) ExecIteration(i int) (uint64, error) {
	if len(f.workers) == 0 {
		return 0, &NoWorkersError{Op: "ExecIteration"}
	}
	w := f.workers[0]
	prog := PickProg(f.opts.Seed, i, f.ledger.Corpus(), f.kaddrs)
	// Restore first to anchor the cycle baseline; Exec's own restore of the
	// same snapshot is idempotent.
	if err := w.k.Restore(w.snap); err != nil {
		return 0, err
	}
	base := w.k.CPU.Cycles
	if _, err := w.Exec(prog, f.injSeed(i)); err != nil {
		return 0, err
	}
	return w.k.CPU.Cycles - base, nil
}

// bucketOf maps a failed syscall to its dedup bucket: the failure class plus
// the function containing the faulting RIP (so the same root cause at
// different addresses across diversified layouts still groups sensibly
// within one image).
func (w *Executor) bucketOf(r *kernel.SyscallResult) string {
	if r.Err != nil {
		if be, ok := r.Err.(*cpu.BudgetError); ok {
			return "watchdog/" + w.funcAt(be.RIP)
		}
		return "harness-panic"
	}
	res := r.Run
	switch res.Reason {
	case cpu.StopHalt:
		return "halt/" + w.funcAt(res.HaltRIP)
	case cpu.StopTrap:
		if res.Trap != nil {
			return res.Trap.Kind.String() + "/" + w.funcAt(res.Trap.RIP)
		}
		return "trap/?"
	default:
		return "stop-" + res.Reason.String()
	}
}

// funcAt names the image function containing rip; addresses outside the
// image coarsen to 64-byte buckets so unknown-RIP crashes still dedup.
func (w *Executor) funcAt(rip uint64) string {
	i := sort.Search(len(w.funcs), func(i int) bool { return w.funcs[i].end > rip })
	if i < len(w.funcs) && rip >= w.funcs[i].start {
		return w.funcs[i].name
	}
	if rip < kernel.UserStack+16*4096 {
		return "user"
	}
	return fmt.Sprintf("rip-%#x", rip>>6<<6)
}

// Ledger is the campaign's single-writer merge state: the corpus, the
// global coverage map, the crash buckets, and the report under
// construction. Fold must be called exactly once per iteration, in
// canonical iteration order — the one rule that makes any scheduler
// (strided goroutines, leased batches, quarantined retries) produce the
// same bytes. The ledger itself is not goroutine-safe; schedulers serialize
// into it.
type Ledger struct {
	opts    Options
	min     *Executor // executes minimization candidates (deterministic replays)
	corpus  []*Prog
	cover   map[uint64]struct{}
	crashes map[string]*Crash
	report  *Report
	done    int
}

// NewLedger creates the merge state for one campaign. min is the executor
// reproducer minimization replays on; any executor of the campaign yields
// identical results (every Exec restores the boot snapshot), so the choice
// never shows in the report.
func NewLedger(opts Options, min *Executor) *Ledger {
	return &Ledger{
		opts:    opts,
		min:     min,
		cover:   make(map[uint64]struct{}),
		crashes: make(map[string]*Crash),
		report: &Report{
			SchemaVersion:   ReportSchemaVersion,
			Iters:           opts.Iters,
			Seed:            opts.Seed,
			Config:          opts.Config.Name(),
			AuditViolations: make(map[string]int),
		},
	}
}

// Corpus returns the frozen corpus snapshot iterations of the next batch
// mutate from: capacity-clamped, so merge-time appends cannot leak into a
// batch already executing against it.
func (l *Ledger) Corpus() []*Prog {
	return l.corpus[:len(l.corpus):len(l.corpus)]
}

// Done reports how many iterations have been folded.
func (l *Ledger) Done() int { return l.done }

// Fold merges iteration iter's execution into the campaign. Everything
// order-sensitive — coverage novelty, corpus membership, which iteration
// owns a crash bucket, minimization's execution budget — is decided here,
// sequentially, so the outcome is independent of how the iteration was
// scheduled, retried, or reassigned.
func (l *Ledger) Fold(iter int, prog *Prog, res ExecResult) {
	l.done++
	l.report.Executed += res.NExec
	l.report.Faults += res.Faults
	l.report.Trace = append(l.report.Trace, res.Trace...)
	for _, check := range res.AuditBad {
		l.report.AuditViolations[check]++
	}
	newCover := false
	for _, rip := range res.Cover {
		if _, ok := l.cover[rip]; !ok {
			newCover = true
			l.cover[rip] = struct{}{}
		}
	}
	if res.Bucket != "" {
		repro := &Prog{Calls: prog.Calls[:res.CrashIdx+1]}
		if c, ok := l.crashes[res.Bucket]; ok {
			c.Count++
		} else {
			c = &Crash{Bucket: res.Bucket, Count: 1, Iter: iter, Prog: repro.Clone()}
			c.Min = l.minimize(repro, res.Bucket, InjSeed(l.opts.Seed, iter))
			l.crashes[res.Bucket] = c
		}
		return
	}
	if newCover {
		l.corpus = append(l.corpus, prog)
	}
}

// Finalize assembles the report: sorted crash buckets, the coverage count,
// renumbered trace. partial marks a cancelled campaign; Iters then reports
// the iterations actually folded, so the partial report is byte-identical
// (bar the partial marker) to a full campaign over that prefix.
func (l *Ledger) Finalize(partial bool) *Report {
	for _, c := range l.crashes {
		l.report.Crashes = append(l.report.Crashes, c)
	}
	sort.Slice(l.report.Crashes, func(i, j int) bool {
		return l.report.Crashes[i].Bucket < l.report.Crashes[j].Bucket
	})
	l.report.Cover = len(l.cover)
	l.report.Partial = partial
	l.report.Iters = l.done
	obs.Renumber(l.report.Trace)
	return l.report
}

// minimize shrinks a crashing program to the shortest syscall sequence that
// still lands in the same bucket, re-executing candidates under the
// iteration's exact injector seed. Delta-removal repeats until a full pass
// removes nothing (or the execution budget runs out). Minimization runs on
// the ledger's executor, during the ordered merge, so its executions are
// counted deterministically; its coverage is deliberately not folded into
// the campaign's coverage map.
func (l *Ledger) minimize(prog *Prog, bucket string, injSeed int64) *Prog {
	min := prog.Clone()
	budget := l.opts.MaxMinimize
	for changed := true; changed && len(min.Calls) > 1; {
		changed = false
		for i := len(min.Calls) - 1; i >= 0 && len(min.Calls) > 1; i-- {
			if budget <= 0 {
				return min
			}
			cand := &Prog{Calls: append(append([]Call{}, min.Calls[:i]...), min.Calls[i+1:]...)}
			res, err := l.min.Exec(cand, injSeed)
			budget--
			if err == nil {
				l.report.Executed += res.NExec
				if res.Bucket == bucket {
					min = cand
					changed = true
				}
			}
		}
	}
	return min
}

// iterOut is one iteration's completed execution, parked until the merge.
type iterOut struct {
	prog *Prog
	res  ExecResult
	err  error
}

// Run executes the campaign and returns its report.
func (f *Fuzzer) Run() (*Report, error) {
	return f.RunContext(context.Background())
}

// RunContext executes the campaign under ctx. Cancellation is graceful and
// batch-aligned: the in-flight batch drains and merges, then the ledger is
// finalized with Partial set — the canonical report of the completed
// prefix, never a torn one.
func (f *Fuzzer) RunContext(ctx context.Context) (*Report, error) {
	if len(f.workers) == 0 {
		return nil, &NoWorkersError{Op: "Run"}
	}
	// A checkpoint-restored ledger starts mid-campaign: resume at the first
	// unfolded iteration (always a batch boundary — saves are batch-aligned).
	done := f.ledger.Done()
	for lo := done; lo < f.opts.Iters; lo += BatchSize {
		if ctx.Err() != nil {
			break
		}
		hi := lo + BatchSize
		if hi > f.opts.Iters {
			hi = f.opts.Iters
		}
		// The corpus snapshot every iteration of this batch mutates from:
		// frozen length, so merge-time appends cannot leak into the batch.
		snapshot := f.ledger.Corpus()
		results := make([]iterOut, hi-lo)

		nw := f.opts.Workers
		if nw > hi-lo {
			nw = hi - lo
		}
		if nw <= 1 {
			for i := lo; i < hi; i++ {
				prog := PickProg(f.opts.Seed, i, snapshot, f.kaddrs)
				res, err := f.workers[0].Exec(prog, f.injSeed(i))
				results[i-lo] = iterOut{prog: prog, res: res, err: err}
			}
		} else {
			var wg sync.WaitGroup
			for wi := 0; wi < nw; wi++ {
				wg.Add(1)
				go func(wi int) {
					defer wg.Done()
					w := f.workers[wi]
					for i := lo + wi; i < hi; i += nw {
						prog := PickProg(f.opts.Seed, i, snapshot, f.kaddrs)
						res, err := w.Exec(prog, f.injSeed(i))
						results[i-lo] = iterOut{prog: prog, res: res, err: err}
					}
				}(wi)
			}
			wg.Wait()
		}

		for i := lo; i < hi; i++ {
			out := results[i-lo]
			if out.err != nil {
				return nil, out.err
			}
			f.ledger.Fold(i, out.prog, out.res)
		}
		done = hi
		if err := f.ledger.SaveCheckpoint(); err != nil {
			return nil, err
		}
		if f.batchHook != nil {
			f.batchHook(done)
		}
	}
	return f.ledger.Finalize(done < f.opts.Iters), nil
}

// Fuzz is the one-call entry point: boot, run, report.
func Fuzz(opts Options) (*Report, error) {
	f, err := New(opts)
	if err != nil {
		return nil, err
	}
	return f.Run()
}
