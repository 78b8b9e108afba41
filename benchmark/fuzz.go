package main

import (
	"context"
	"fmt"
	mathbits "math/bits"
	"runtime"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/diversify"
	"repro/internal/fuzz"
	"repro/internal/inject"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/sfi"
)

// defaultFuzzIters is the size of one campaign: krxfuzz's default -iters
// of 1000, rounded up to whole batches.
const defaultFuzzIters = 1024

// The fuzz workloads work through a fixed portfolio of campaigns, seeds
// portfolioBase to portfolioBase+portfolioSize-1. One campaign's cost
// depends on the programs its seed happens to breed: 1024-iteration
// campaigns took 0.22-0.89 s (SFI+X) and 0.13-1.39 s (Vanilla) across
// seeds, so runs that each drew their own campaigns would differ by the
// seeds they drew, not by the code they ran. A run starts at campaign
// --seed mod portfolioSize and goes round the portfolio in order, for one
// full pass and then until its window closes.
const (
	portfolioBase = 32
	portfolioSize = 32
	// referenceSeed is krxfuzz's default -seed, a member of the portfolio:
	// every full pass checks that campaign against its stored reference.
	referenceSeed = 42
)

// campaignSeed is the seed of campaign u of a run with seed runSeed.
func campaignSeed(runSeed int64, u int) int64 {
	return portfolioBase + ((runSeed+int64(u))%portfolioSize+portfolioSize)%portfolioSize
}

// fuzzOptions builds the campaign options exactly as krxfuzz does for
// -seed seed -iters iters (with -vanilla -no-inject for the Vanilla
// workload).
func fuzzOptions(vanilla bool, seed int64, iters int) fuzz.Options {
	cfg := core.Config{
		XOM: core.XOMSFI, SFILevel: sfi.O3,
		Diversify: true, RAProt: diversify.RAEncrypt,
		Seed: seed,
	}
	if vanilla {
		cfg = core.Config{Seed: seed}
	}
	opts := fuzz.Options{Iters: iters, Seed: seed, Config: cfg, Workers: 1}
	if !vanilla {
		plan := inject.DefaultPlan(seed)
		opts.Plan = &plan
	}
	return opts
}

// runFuzz runs campaigns of the portfolio through fuzz.New + RunContext,
// the krxfuzz path. A fuzz op is one iteration; its time is the summed
// RunContext time of the campaigns run, each campaign counted once at the
// median of its runs, over their iterations: the inverse of the execs/s a
// krxfuzz user sees across the portfolio, set-up excluded.
func runFuzz(rc runConfig, vanilla bool) *outcome {
	out := newOutcome(rc)
	rc.minUnits = portfolioSize
	var times [portfolioSize][]time.Duration // RunContext time of each run of a campaign
	var first [portfolioSize]string          // each campaign's first report
	start := time.Now()
	for u := 0; rc.more(start, u); u++ {
		seed := campaignSeed(rc.seed, u)
		out.attempted += rc.fuzzIters
		d, err := fuzzCampaign(rc, out, vanilla, seed, &first[seed-portfolioBase])
		if err != nil {
			out.fail(rc.fuzzIters, fmt.Errorf("campaign seed %d: %w", seed, err))
			continue
		}
		times[seed-portfolioBase] = append(times[seed-portfolioBase], d)
	}
	var total float64
	var iters int
	for _, ds := range times {
		if len(ds) > 0 {
			total += median(seconds(ds))
			iters += rc.fuzzIters
		}
	}
	if iters > 0 {
		out.op = total / float64(iters)
	}
	return out
}

// fuzzCampaign runs one campaign the way krxfuzz does and checks its
// report. The set-up it times is fuzz.New on an empty build cache, so each
// campaign pays the image build and boot a new krxfuzz process pays; the
// time it returns is RunContext's. The first run of a campaign is checked
// in full (and, in trace mode, run again through the traced loop) and
// its report kept in *first; later runs must render the same bytes.
func fuzzCampaign(rc runConfig, out *outcome, vanilla bool, seed int64, first *string) (time.Duration, error) {
	opts := fuzzOptions(vanilla, seed, rc.fuzzIters)
	kernel.SetBuildCache(core.NewImageCache(nil))
	t0 := time.Now()
	f, err := fuzz.New(opts)
	if err != nil {
		return 0, err
	}
	setup := time.Since(t0)
	t1 := time.Now()
	rep, err := f.RunContext(context.Background())
	elapsed := time.Since(t1)
	if err != nil {
		return 0, err
	}
	out.setups = append(out.setups, setup)
	out.ops = append(out.ops, elapsed)
	text := rep.String()
	if *first != "" {
		if text != *first {
			return 0, fmt.Errorf("report differs from the campaign's first run")
		}
		return elapsed, nil
	}
	*first = text
	// The campaign's kernel is unreachable from here on; collect it before
	// the checks boot another, so peak memory stays that of one campaign.
	runtime.GC()
	if err := checkFuzz(rc, out, opts, rep, elapsed); err != nil {
		return 0, err
	}
	return elapsed, nil
}

// checkFuzz checks a campaign's report: it covers every iteration, every
// crash bucket's first program and minimized reproducer replay into that
// bucket under the iteration's injector seed, and krxfuzz's default
// campaign matches its stored reference. In trace mode the traced loop
// must render the same bytes.
func checkFuzz(rc runConfig, out *outcome, opts fuzz.Options, rep *fuzz.Report, elapsed time.Duration) error {
	if rep.Iters != opts.Iters || rep.Partial {
		return fmt.Errorf("report covers %d iterations, want %d", rep.Iters, opts.Iters)
	}
	ex, err := fuzz.NewExecutor(opts)
	if err != nil {
		return err
	}
	for _, c := range rep.Crashes {
		for _, p := range []*fuzz.Prog{c.Prog, c.Min} {
			res, err := ex.Exec(p, fuzz.InjSeed(opts.Seed, c.Iter))
			if err != nil {
				return err
			}
			if res.Bucket != c.Bucket {
				return fmt.Errorf("crash %s (iter %d): %s replays into %q", c.Bucket, c.Iter, p, res.Bucket)
			}
		}
	}
	text := rep.String()
	if opts.Seed == referenceSeed && opts.Iters == defaultFuzzIters {
		name := "fuzz-sfix"
		if opts.Plan == nil {
			name = "fuzz-vanilla"
		}
		if err := checkReference(name, text); err != nil {
			return err
		}
	}
	if !rc.trace {
		return nil
	}
	l := out.tr.lane(noSpan)
	trep, traced, err := tracedCampaign(ex, opts, l, out.ctr, (len(out.ops)-1)*opts.Iters)
	if err != nil {
		return fmt.Errorf("traced: %w", err)
	}
	out.ctr.pair(elapsed, traced)
	if trep.String() != text {
		return fmt.Errorf("traced report differs from the untraced one")
	}
	return nil
}

// tracedCampaign runs the campaign again through a loop the benchmark
// owns, so each layer call gets its own span. The loop is RunContext's with
// one worker: per batch, pick and execute every iteration against the
// frozen corpus, then fold them in iteration order. Iterations execute on
// the benchmark's own kernel with the calls fuzz.Executor.Exec makes
// (restore, inject, syscalls, audit, coverage collection); the ledger, and
// the minimization replays inside its Fold, use ex. Spans are tagged with
// the run-wide iteration index op0+i. It returns the report, which must
// equal the untraced one byte for byte, and the time of the loop alone, the
// work RunContext's time covers.
func tracedCampaign(ex *fuzz.Executor, opts fuzz.Options, l *lane, ctr *counters, op0 int) (*fuzz.Report, time.Duration, error) {
	// Defaults filled in as fuzz.New fills them, so the ledger minimizes
	// under the same budget.
	if err := opts.Normalize(); err != nil {
		return nil, 0, err
	}
	l.setUnit(op0)
	root := l.begin("fuzz.unit")
	defer l.end(root)
	stats0 := kernel.BuildCache().Stats()
	s := l.begin("kernel.boot")
	k, err := kernel.Boot(opts.Config, kernel.WithCache())
	l.end(s)
	if err != nil {
		return nil, 0, err
	}
	te, err := newTracedExecutor(k, opts.Plan)
	if err != nil {
		return nil, 0, err
	}

	t0 := time.Now()
	led := fuzz.NewLedger(opts, ex)
	kaddrs := ex.Kaddrs()
	progs := make([]*fuzz.Prog, fuzz.BatchSize)
	results := make([]fuzz.ExecResult, fuzz.BatchSize)
	var issued uint64
	for lo := 0; lo < opts.Iters; lo += fuzz.BatchSize {
		hi := min(lo+fuzz.BatchSize, opts.Iters)
		corpus := led.Corpus()
		for i := lo; i < hi; i++ {
			l.setUnit(op0 + i)
			it := l.begin("fuzz.iter")
			s := l.begin("fuzz.pick")
			progs[i-lo] = fuzz.PickProg(opts.Seed, i, corpus, kaddrs)
			l.end(s)
			res, err := te.exec(progs[i-lo], fuzz.InjSeed(opts.Seed, i), l, ctr)
			l.end(it)
			if err != nil {
				return nil, 0, err
			}
			results[i-lo] = res
			issued += uint64(res.NExec)
		}
		for i := lo; i < hi; i++ {
			l.setUnit(op0 + i)
			s := l.begin("fuzz.fold")
			led.Fold(i, progs[i-lo], results[i-lo])
			l.end(s)
		}
	}
	rep := led.Finalize(false)
	elapsed := time.Since(t0)

	ctr.addKernel(k)
	ctr.addBuilds(stats0, kernel.BuildCache().Stats())
	ctr.mu.Lock()
	ctr.minimizeSyscalls += uint64(rep.Executed) - issued
	ctr.mu.Unlock()
	return rep, elapsed, nil
}

// tracedExecutor executes programs the way fuzz.Executor does, with a span
// around each layer call.
type tracedExecutor struct {
	k     *kernel.Kernel
	snap  *kernel.Snapshot
	plan  *inject.Plan
	funcs []funcSpan
	cov   coverage
}

type funcSpan struct {
	name       string
	start, end uint64
}

// newTracedExecutor prepares k the way fuzz.NewExecutor prepares its
// kernel: seeded user memory, the coverage probe, the boot snapshot.
func newTracedExecutor(k *kernel.Kernel, plan *inject.Plan) (*tracedExecutor, error) {
	if err := fuzz.SetupUserMemory(k); err != nil {
		return nil, err
	}
	te := &tracedExecutor{k: k, plan: plan}
	for _, fn := range k.Img.Funcs {
		te.funcs = append(te.funcs, funcSpan{name: fn.Name, start: fn.Addr, end: fn.Addr + fn.Size})
	}
	sort.Slice(te.funcs, func(i, j int) bool { return te.funcs[i].start < te.funcs[j].start })
	te.cov = coverage{
		base:  k.Sym("_text"),
		span:  uint64(len(k.Img.Text)),
		stray: make(map[uint64]struct{}),
	}
	te.cov.bits = make([]uint64, (te.cov.span+63)/64)
	k.CPU.AddProbe(&te.cov)
	te.snap = k.Snapshot()
	return te, nil
}

func (te *tracedExecutor) exec(prog *fuzz.Prog, injSeed int64, l *lane, ctr *counters) (fuzz.ExecResult, error) {
	var res fuzz.ExecResult
	s := l.begin("kernel.restore")
	err := te.k.Restore(te.snap)
	l.end(s)
	if err != nil {
		return res, err
	}
	te.cov.reset()

	var inj *inject.Injector
	if te.plan != nil {
		plan := *te.plan
		plan.Seed = injSeed
		s := l.begin("inject.attach")
		inj = inject.New(plan)
		inj.Attach(te.k.CPU, te.k.Space.AS, te.k.FaultTargets())
		l.end(s)
	}
	res.CrashIdx = -1
	var instrs uint64
	for i, c := range prog.Calls {
		s := l.begin("kernel.syscall")
		r := te.k.Syscall(c.Nr, c.Args[0], c.Args[1], c.Args[2])
		l.end(s)
		res.NExec++
		instrs += r.Run.Instrs
		if r.Failed {
			res.Bucket = te.bucketOf(r)
			res.CrashIdx = i
			break
		}
	}
	if inj != nil {
		s := l.begin("inject.detach")
		inj.Detach()
		l.end(s)
		res.Faults = len(inj.Events)
	}
	audited := res.Faults > 0 || res.Bucket != ""
	if audited {
		s := l.begin("audit.audit")
		rep := audit.Audit(te.k)
		l.end(s)
		for _, fd := range rep.Findings {
			if !fd.OK {
				res.AuditBad = append(res.AuditBad, fd.Check)
			}
		}
	}
	s = l.begin("fuzz.cover")
	res.Cover = te.cov.collect()
	l.end(s)

	ctr.mu.Lock()
	ctr.instrs += instrs
	ctr.syscalls += uint64(res.NExec)
	ctr.faults += uint64(res.Faults)
	if audited {
		ctr.audits++
	}
	ctr.mu.Unlock()
	return res, nil
}

// bucketOf maps a failed syscall to its crash bucket, as fuzz.Executor does.
func (te *tracedExecutor) bucketOf(r *kernel.SyscallResult) string {
	if r.Err != nil {
		if be, ok := r.Err.(*cpu.BudgetError); ok {
			return "watchdog/" + te.funcAt(be.RIP)
		}
		return "harness-panic"
	}
	res := r.Run
	switch res.Reason {
	case cpu.StopHalt:
		return "halt/" + te.funcAt(res.HaltRIP)
	case cpu.StopTrap:
		if res.Trap != nil {
			return res.Trap.Kind.String() + "/" + te.funcAt(res.Trap.RIP)
		}
		return "trap/?"
	default:
		return "stop-" + res.Reason.String()
	}
}

func (te *tracedExecutor) funcAt(rip uint64) string {
	i := sort.Search(len(te.funcs), func(i int) bool { return te.funcs[i].end > rip })
	if i < len(te.funcs) && rip >= te.funcs[i].start {
		return te.funcs[i].name
	}
	if rip < kernel.UserStack+16*4096 {
		return "user"
	}
	return fmt.Sprintf("rip-%#x", rip>>6<<6)
}

// coverage is the per-instruction coverage probe: a bitmap over kernel
// text plus a set for RIPs outside it, like fuzz.Executor's.
type coverage struct {
	base, span uint64
	bits       []uint64
	words      []uint32
	stray      map[uint64]struct{}
}

// OnExec implements cpu.ExecProbe.
func (c *coverage) OnExec(rip uint64, _ *isa.Instr, _ uint64) {
	if off := rip - c.base; off < c.span {
		word, bit := off>>6, uint64(1)<<(off&63)
		if c.bits[word]&bit == 0 {
			if c.bits[word] == 0 {
				c.words = append(c.words, uint32(word))
			}
			c.bits[word] |= bit
		}
		return
	}
	c.stray[rip] = struct{}{}
}

func (c *coverage) reset() {
	clear(c.stray)
	for _, w := range c.words {
		c.bits[w] = 0
	}
	c.words = c.words[:0]
}

func (c *coverage) collect() []uint64 {
	out := make([]uint64, 0, len(c.stray)+8*len(c.words))
	for rip := range c.stray {
		out = append(out, rip)
	}
	for _, w := range c.words {
		bits := c.bits[w]
		base := c.base + uint64(w)<<6
		for bits != 0 {
			out = append(out, base+uint64(mathbits.TrailingZeros64(bits)))
			bits &= bits - 1
		}
	}
	return out
}
