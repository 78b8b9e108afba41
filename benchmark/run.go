package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/kernel"
	"repro/internal/store"
)

// runConfig is one workload run's settings.
type runConfig struct {
	seed      int64
	window    time.Duration // how long the timed loop runs
	trace     bool
	fuzzIters int // iterations per fuzz campaign
	setups    int // cold set-ups per table-sweep / attack-ladder run
	minUnits  int // run at least this many fuzz campaigns, sweeps or ladders, window or not
	maxUnits  int // stop after this many fuzz campaigns, sweeps or ladders (0 = at the end of the window)
	// atDefault marks a run at the workload's default seed, whose output
	// has a stored reference.
	atDefault bool
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	ops               []time.Duration // untraced time of each timed unit: fuzz campaign, sweep, ladder
	op                float64         // seconds per op: fuzz iteration, sweep, ladder
	setups            []time.Duration
	problems          []string // failed output checks, one line each
	tr                *tracer  // trace mode only
	ctr               *counters
}

func newOutcome(rc runConfig) *outcome {
	o := &outcome{ctr: &counters{}}
	if rc.trace {
		o.tr = newTracer()
	}
	return o
}

// more reports whether the timed loop, which started at start and has run
// done units, should run another: until the window closes, but at least
// minUnits (and at least one) and at most maxUnits. Before saying yes
// it collects the garbage earlier units left: every boot allocates a 64 MiB
// physical frame pool, so the heap state a unit inherits otherwise moves
// its time (and the run's peak memory) by more than the bounds allow. A
// new process — what a user's krxfuzz, krxbench or krxattack is — starts
// from an empty heap, too.
func (rc runConfig) more(start time.Time, done int) bool {
	if done > 0 && (rc.maxUnits > 0 && done >= rc.maxUnits || done >= rc.minUnits && time.Since(start) >= rc.window) {
		return false
	}
	runtime.GC()
	return true
}

// fail records that n attempted ops failed because of err.
func (o *outcome) fail(n int, err error) {
	o.failed += n
	o.problems = append(o.problems, err.Error())
}

// checkReference compares an output against the stored SHA-256 reference of
// the workload's default-seed output.
func checkReference(name, text string) error {
	sum := sha256.Sum256([]byte(text))
	if got := hex.EncodeToString(sum[:]); got != references[name] {
		return fmt.Errorf("%s output sha256 %s, reference %s", name, got, references[name])
	}
	return nil
}

// counters are read through the layers' public stats calls at the
// boundaries where the benchmark calls into them (trace mode only).
type counters struct {
	mu               sync.Mutex
	instrs           uint64 // emulated instructions retired
	syscalls         uint64
	faults           uint64
	audits           uint64
	minimizeSyscalls uint64
	blockInstrs      uint64
	blocksFormed     uint64
	blocksCompiled   uint64
	blockAborts      uint64
	blockCold        uint64
	dcHits, dcMisses uint64
	dcInvalidations  uint64
	tlbHits          uint64
	tlbMisses        uint64
	builds, hits     uint64
	untraced, traced time.Duration // end-to-end time of the same work, both ways
}

// addKernel adds a kernel's cumulative engine counters. Every kernel the
// benchmark reads is freshly booted, so its counters cover exactly the work
// the benchmark gave it.
func (c *counters) addKernel(k *kernel.Kernel) {
	b := k.CPU.BlockStats()
	d := k.CPU.DecodeCacheStats()
	t := k.CPU.AS.DataTLBStats()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.blockInstrs += b.Instrs
	c.blocksFormed += b.Formed
	c.blocksCompiled += b.Compiled
	c.blockAborts += b.Aborts
	c.blockCold += b.Cold
	c.dcHits += d.Hits
	c.dcMisses += d.Misses
	c.dcInvalidations += d.Invalidations
	c.tlbHits += t.Hits
	c.tlbMisses += t.Misses
}

// addInstrs adds the instructions a kernel retired since boot; used where
// the benchmark does not see each syscall result.
func (c *counters) addInstrs(k *kernel.Kernel) {
	c.mu.Lock()
	c.instrs += k.CPU.Instrs
	c.mu.Unlock()
}

// addBuilds adds the build-cache activity between two Stats snapshots.
func (c *counters) addBuilds(before, after store.Stats) {
	c.mu.Lock()
	c.builds += after.Builds - before.Builds
	c.hits += after.Hits - before.Hits
	c.mu.Unlock()
}

// pair adds the end-to-end time of one piece of work run untraced and then
// traced, for trace_overhead_pct.
func (c *counters) pair(untraced, traced time.Duration) {
	c.mu.Lock()
	c.untraced += untraced
	c.traced += traced
	c.mu.Unlock()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(o *outcome) map[string]metric {
	return map[string]metric{
		"op_ms":       {o.op * 1e3, "ms"},
		"setup_s":     {median(seconds(o.setups)), "s"},
		"peak_rss_mb": {peakRSSMiB(), "MiB"},
	}
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
