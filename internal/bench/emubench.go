// Emulator host-performance benchmarks: unlike every other measurement in
// this package (which reports emulated cycles — numbers the acceleration
// layers are forbidden to change), these measure host wall-clock of the
// emulator itself in three modes: compiled superblocks + decode cache (the
// default), decode cache only, and neither. Each workload runs all three
// ways and the harness asserts the emulated cycle totals are identical — the
// bit-identical-semantics invariant — before reporting the speedups.

package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/kernel"
)

// EmuResult is one workload measured in three modes: compiled blocks +
// decode cache, decode cache only, and neither. Cycles is the emulated total
// over the timed iterations; it is asserted equal across all modes, so a
// single field suffices. Speedup compares the decode cache against raw
// interpretation (cache_off / cache_on); BlockSpeedup compares the block
// engine, which compiles every block it forms, against the decode-cache-only
// path (cache_on / compiled).
type EmuResult struct {
	Name           string  `json:"name"`
	Iters          int     `json:"iters"`
	Reps           int     `json:"reps"`
	HostNsCompiled int64   `json:"host_ns_per_op_compiled"`
	HostNsOn       int64   `json:"host_ns_per_op_cache_on"`
	HostNsOff      int64   `json:"host_ns_per_op_cache_off"`
	Speedup        float64 `json:"speedup"`
	BlockSpeedup   float64 `json:"block_speedup"`
	Cycles         uint64  `json:"emulated_cycles"`
}

// EmuSchemaVersion identifies the JSON layout of EmuReport. Bump it on any
// field change so downstream consumers can detect the format.
// v3: added the interpreted-blocks time and block_speedup (superblock
// engine).
// v4: added reps; per-mode times are now min-of-reps, not a single-sample
// mean — a mean folds GC pauses and scheduler noise into the baseline,
// which is how v3 recorded physically impossible sub-1.0 speedups on
// noise-dominated rows.
// v5: added fork rows (ForkResult): copy-on-write kernel fork cost vs cold
// boot, and fuzz-iteration cost in a forked vs booted worker.
// v6: added store rows (StoreResult): cold-link boot cost vs a boot served
// from the persistent artifact store by a fresh ImageCache.
// v7: added host_ns_per_op_compiled and the compiled-over-interpreted
// speedup (block compiler: per-opcode thunk specialization with flag-dead
// fusion).
// v8: the interpreted block runner is gone (formation compiles), so the
// interpreted-blocks mode, its time and the compiled-over-interpreted
// speedup are removed; block_speedup is now cache_on / compiled.
const EmuSchemaVersion = 8

// emuReps is the number of repetitions per mode; the reported time is the
// minimum over them (the min estimates the noise-free cost; means are
// biased up by arbitrary amounts of host interference). Five repetitions,
// up from three: the block gate compares two fast modes whose difference
// can be a fraction of the scheduler noise on a shared host, and min-of-3
// left such a ratio swinging across a 1.15 floor run to run.
const emuReps = 5

// ForkResult is one configuration's fork-mode measurement: what a kernel
// fork costs next to a cold boot, and what a fuzz iteration costs inside a
// forked worker next to a booted one. Cycles is the emulated total over the
// timed iterations, asserted identical between the fork-mode and boot-mode
// windows (the determinism invariant — a fork may only change host time).
type ForkResult struct {
	Name         string  `json:"name"`
	Reps         int     `json:"reps"`
	BootNs       int64   `json:"host_ns_per_boot"`
	ForkNs       int64   `json:"host_ns_per_fork"`
	ForksPerSec  float64 `json:"forks_per_sec"`
	BootOverFork float64 `json:"boot_over_fork"`
	IterNsFork   int64   `json:"host_ns_per_fork_iteration"`
	IterNsBoot   int64   `json:"host_ns_per_boot_iteration"`
	Cycles       uint64  `json:"emulated_cycles"`
}

// EmuReport is the machine-readable emulator benchmark baseline
// (BENCH_emulator.json).
type EmuReport struct {
	Schema        string        `json:"schema"`
	SchemaVersion int           `json:"schema_version"`
	GoOS          string        `json:"goos"`
	GoArch        string        `json:"goarch"`
	Results       []EmuResult   `json:"results"`
	Fork          []ForkResult  `json:"fork"`
	Store         []StoreResult `json:"store"`
}

// JSON renders the report for the BENCH_emulator.json trajectory file.
func (r *EmuReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// emuWorkload builds a closure that executes one unit of emulated work and
// returns its cycle cost. make is called once per mode per repetition, so
// each measurement gets a fresh kernel and an identical iteration sequence.
// warm is how many untimed ops precede the timed window (0 = 1): one op
// populates the decode cache, but workloads whose op is much smaller than
// the Table 1 suite (a single fuzz iteration) need several to reach the
// block engine's steady state — the hotness gate defers formation until an
// entry point has been dispatched BlockHotThreshold times, and a campaign's
// per-iteration cost is the steady-state number, not the ramp.
// mult scales the timed iteration count (0 = 1), for the same reason from
// the other side: a fuzz iteration is tens of microseconds, so the default
// iteration count would time a sub-millisecond window — below the host's
// scheduling noise floor, where even a min-of-reps ratio is a coin flip.
// The reported per-op time still divides by the scaled count.
type emuWorkload struct {
	name string
	warm int
	mult int
	make func(cacheOn, blocksOn bool) (func() (uint64, error), error)
}

// RunTable1Suite executes every Table 1 micro-op once against k and returns
// the total emulated cycles (the per-op suite BenchmarkTable1 sweeps; also
// the workload krxbench traces and profiles).
func RunTable1Suite(k *kernel.Kernel) (uint64, error) {
	var total uint64
	for _, op := range MicroOps() {
		for fd := uint64(0); fd < 64; fd++ {
			k.Syscall(kernel.SysClose, fd)
		}
		if op.Setup != nil {
			if err := op.Setup(k); err != nil {
				return 0, fmt.Errorf("%s: %w", op.Name, err)
			}
		}
		c, err := op.Run(k)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", op.Name, err)
		}
		total += c
	}
	return total, nil
}

func table1Workload(cfg core.Config) emuWorkload {
	return emuWorkload{
		name: "table1-suite/" + cfg.Name(),
		// Three warmup passes, not one: block formation (which compiles)
		// waits out the hotness gate (BlockHotThreshold dispatches per
		// entry point), so a single pass would leave formation work inside
		// the timed window — ramp cost, not the steady state every mode is
		// supposed to report.
		warm: 3,
		make: func(cacheOn, blocksOn bool) (func() (uint64, error), error) {
			k, err := kernel.Boot(cfg, kernel.WithCache())
			if err != nil {
				return nil, err
			}
			k.CPU.SetDecodeCache(cacheOn)
			k.CPU.SetBlockEngine(blocksOn)
			return func() (uint64, error) { return RunTable1Suite(k) }, nil
		},
	}
}

func fuzzWorkload(cfg core.Config, seed int64) emuWorkload {
	return emuWorkload{
		name: "fuzz-iteration/" + cfg.Name(),
		// A fuzz iteration is a few orders of magnitude smaller than the
		// Table 1 suite, so one warmup op leaves the hotness gate mid-ramp
		// (formation cost inside the timed window, payoff outside it);
		// enough warmup iterations put the timed window in steady state —
		// the regime a real campaign (thousands of iterations) runs in.
		// The multiplier keeps the timed window in the milliseconds for the
		// same reason (see emuWorkload.mult).
		warm: 8,
		mult: 10,
		make: func(cacheOn, blocksOn bool) (func() (uint64, error), error) {
			// Coverage stays on, as in a real campaign: the CPU's coverage
			// sink marks whole blocks, so block dispatch is armed and the row
			// times the iteration a campaign actually runs.
			f, err := fuzz.New(fuzz.Options{Iters: 1, Seed: seed, Config: cfg, Workers: 1})
			if err != nil {
				return nil, err
			}
			k, err := f.Kernel()
			if err != nil {
				return nil, err
			}
			k.CPU.SetDecodeCache(cacheOn)
			k.CPU.SetBlockEngine(blocksOn)
			// The iteration counter restarts per mode, so both modes execute
			// the identical (seed, i)-derived program sequence.
			i := 0
			return func() (uint64, error) {
				c, err := f.ExecIteration(i)
				i++
				return c, err
			}, nil
		},
	}
}

// measureEmu times one workload in all three modes and enforces the
// bit-identical-cycles invariant across every pair. Each mode is measured
// emuReps times — each repetition rebuilding the workload from scratch, so
// every rep times the identical iteration sequence — and the reported
// per-op time is the minimum over repetitions (the min-of-N convention the
// KRX_PERF_GATE tests use): the min converges on the noise-free cost,
// where a single-sample mean folds whatever GC pauses and scheduler
// preemptions happened to land in the timed window into the baseline.
func measureEmu(w emuWorkload, iters int) (EmuResult, error) {
	iters *= max(w.mult, 1)
	res := EmuResult{Name: w.name, Iters: iters, Reps: emuReps}
	modes := []struct {
		name              string
		cacheOn, blocksOn bool
	}{
		{"compiled", true, true},
		{"cache-only", true, false},
		{"uncached", false, false},
	}
	var cycles [3]uint64
	var host [3]time.Duration
	for m, mode := range modes {
		for rep := 0; rep < emuReps; rep++ {
			run, err := w.make(mode.cacheOn, mode.blocksOn)
			if err != nil {
				return res, fmt.Errorf("bench: %s: %w", w.name, err)
			}
			for wi := 0; wi < max(w.warm, 1); wi++ { // warmup (populates the caches)
				if _, err := run(); err != nil {
					return res, fmt.Errorf("bench: %s: %w", w.name, err)
				}
			}
			var c uint64
			start := time.Now()
			for n := 0; n < iters; n++ {
				cc, err := run()
				if err != nil {
					return res, fmt.Errorf("bench: %s: %w", w.name, err)
				}
				c += cc
			}
			d := time.Since(start)
			if rep == 0 {
				cycles[m], host[m] = c, d
				continue
			}
			if c != cycles[m] {
				return res, fmt.Errorf("bench: %s: %s: emulated cycles diverge across reps: %d vs %d",
					w.name, mode.name, cycles[m], c)
			}
			if d < host[m] {
				host[m] = d
			}
		}
	}
	for m := 1; m < len(modes); m++ {
		if cycles[m] != cycles[0] {
			return res, fmt.Errorf("bench: %s: emulated cycles diverge: %s %d vs %s %d",
				w.name, modes[0].name, cycles[0], modes[m].name, cycles[m])
		}
	}
	res.Cycles = cycles[0]
	res.HostNsCompiled = host[0].Nanoseconds() / int64(iters)
	res.HostNsOn = host[1].Nanoseconds() / int64(iters)
	res.HostNsOff = host[2].Nanoseconds() / int64(iters)
	if res.HostNsOn > 0 {
		res.Speedup = float64(res.HostNsOff) / float64(res.HostNsOn)
	}
	if res.HostNsCompiled > 0 {
		res.BlockSpeedup = float64(res.HostNsOn) / float64(res.HostNsCompiled)
	}
	return res, nil
}

// forkBatch is how many forks one timed repetition performs: a single fork
// is sub-millisecond, so the per-fork time comes from a batch window, like
// emuWorkload.mult keeps the iteration windows above the noise floor.
const forkBatch = 64

// measureFork times what snapshot-fork execution buys under one
// configuration: the cost of a cold boot (fresh kernel construction from
// the warm cache's image) against the cost of a copy-on-write fork of a
// golden executor, and the steady-state cost of a fuzz iteration inside a
// forked worker against one inside a booted worker. All timings are
// min-of-emuReps; the iteration windows additionally enforce the
// determinism invariant — identical emulated cycles in fork mode and boot
// mode, every repetition.
func measureFork(cfg core.Config, seed int64, iters int) (ForkResult, error) {
	res := ForkResult{Name: "fork/" + cfg.Name(), Reps: emuReps}
	opts := fuzz.Options{Iters: 1, Seed: seed, Config: cfg, Workers: 1}
	// The golden executor doubles as the build-cache warmer, and the boot
	// side installs its cached image with WithImage: the boot number is
	// kernel construction, not toolchain work. A WithCache boot would not
	// do here, because it is itself a fork of a golden kernel.
	golden, err := fuzz.NewExecutor(opts)
	if err != nil {
		return res, fmt.Errorf("bench: %s: golden: %w", res.Name, err)
	}
	img := golden.Kernel().Build
	var boot, fork time.Duration
	for rep := 0; rep < emuReps; rep++ {
		start := time.Now()
		if _, err := kernel.Boot(cfg, kernel.WithImage(img)); err != nil {
			return res, fmt.Errorf("bench: %s: boot: %w", res.Name, err)
		}
		if d := time.Since(start); rep == 0 || d < boot {
			boot = d
		}
	}
	for rep := 0; rep < emuReps; rep++ {
		start := time.Now()
		for i := 0; i < forkBatch; i++ {
			if _, err := golden.Fork(); err != nil {
				return res, fmt.Errorf("bench: %s: fork: %w", res.Name, err)
			}
		}
		if d := time.Since(start) / forkBatch; rep == 0 || d < fork {
			fork = d
		}
	}
	res.BootNs = boot.Nanoseconds()
	res.ForkNs = fork.Nanoseconds()
	if res.ForkNs > 0 {
		res.ForksPerSec = 1e9 / float64(res.ForkNs)
		res.BootOverFork = float64(res.BootNs) / float64(res.ForkNs)
	}

	// Iteration cost, fork-mode vs boot-mode. The warmup runs the full
	// iteration window once, not a fixed prefix: each iteration's program
	// touches its own set of pages, so a short warmup would leave
	// first-touch CoW breaks inside the timed window — a one-time ramp cost
	// a real campaign amortizes over thousands of iterations, not the
	// steady state this row reports. (A full-window warmup also covers the
	// fuzzWorkload rationale: the block engine's hotness gate is past its
	// ramp by the time timing starts.)
	iters *= 10
	var host [2]time.Duration
	var cycles [2]uint64
	for m, forked := range [2]bool{true, false} {
		for rep := 0; rep < emuReps; rep++ {
			var ex *fuzz.Executor
			var err error
			if forked {
				ex, err = golden.Fork()
			} else {
				ex, err = fuzz.NewExecutor(opts)
			}
			if err != nil {
				return res, fmt.Errorf("bench: %s: %w", res.Name, err)
			}
			k := ex.Kernel()
			base := k.CPU.Cycles
			run := func(i int) error {
				prog := fuzz.PickProg(seed, i, nil, ex.Kaddrs())
				_, err := ex.Exec(prog, fuzz.InjSeed(seed, i))
				return err
			}
			for wi := 0; wi < iters; wi++ {
				if err := run(wi); err != nil {
					return res, fmt.Errorf("bench: %s: warmup: %w", res.Name, err)
				}
			}
			var c uint64
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := run(i); err != nil {
					return res, fmt.Errorf("bench: %s: %w", res.Name, err)
				}
				c += k.CPU.Cycles - base
			}
			d := time.Since(start)
			if rep == 0 {
				cycles[m], host[m] = c, d
				continue
			}
			if c != cycles[m] {
				return res, fmt.Errorf("bench: %s: emulated cycles diverge across reps: %d vs %d",
					res.Name, cycles[m], c)
			}
			if d < host[m] {
				host[m] = d
			}
		}
	}
	if cycles[0] != cycles[1] {
		return res, fmt.Errorf("bench: %s: fork-mode cycles %d != boot-mode cycles %d — fork changed semantics",
			res.Name, cycles[0], cycles[1])
	}
	res.Cycles = cycles[0]
	res.IterNsFork = host[0].Nanoseconds() / int64(iters)
	res.IterNsBoot = host[1].Nanoseconds() / int64(iters)
	return res, nil
}

// EmuBench measures the emulator's host performance with the decode cache
// on and off: the Table 1 micro-op suite under vanilla and a fully
// protected column, a fuzzing iteration (restore + program execution), the
// fork rows (copy-on-write worker startup and steady state), and the store
// rows (cold-link boot vs a boot served from the persistent artifact store).
func EmuBench(iters int) (*EmuReport, error) {
	if iters <= 0 {
		iters = 20
	}
	presets := core.Presets()
	full := presets[len(presets)-1] // the most protected preset column
	workloads := []emuWorkload{
		table1Workload(core.Vanilla),
		table1Workload(full),
		fuzzWorkload(core.Vanilla, 42),
		fuzzWorkload(full, 42),
	}
	rep := &EmuReport{
		Schema:        "krx-emubench",
		SchemaVersion: EmuSchemaVersion,
		GoOS:          runtime.GOOS,
		GoArch:        runtime.GOARCH,
	}
	for _, w := range workloads {
		r, err := measureEmu(w, iters)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, r)
	}
	for _, cfg := range []core.Config{core.Vanilla, full} {
		fr, err := measureFork(cfg, 42, iters)
		if err != nil {
			return nil, err
		}
		rep.Fork = append(rep.Fork, fr)
	}
	for _, cfg := range []core.Config{core.Vanilla, full} {
		sr, err := measureStore(cfg)
		if err != nil {
			return nil, err
		}
		rep.Store = append(rep.Store, sr)
	}
	return rep, nil
}

// DecodeCacheReport formats a kernel CPU's decode-cache statistics — the
// observability line krxstats prints after the invariant audit.
func DecodeCacheReport(k *kernel.Kernel) string {
	if !k.CPU.DecodeCacheEnabled() {
		return "decode-cache: disabled"
	}
	s := k.CPU.DecodeCacheStats()
	return fmt.Sprintf(
		"decode-cache: pages=%d entries=%d hits=%d misses=%d decoded=%d invalidations=%d remaps=%d",
		s.Pages, s.Entries, s.Hits, s.Misses, s.Decoded, s.Invalidations, s.Remaps)
}

// BlockEngineReport formats a kernel CPU's superblock-engine statistics —
// the companion line to DecodeCacheReport in krxstats -audit.
func BlockEngineReport(k *kernel.Kernel) string {
	if !k.CPU.BlockEngineEnabled() {
		return "block-engine: disabled"
	}
	s := k.CPU.BlockStats()
	return fmt.Sprintf(
		"block-engine: blocks=%d formed=%d compiled=%d fused=%d dispatches=%d instrs=%d aborts=%d side_exits=%d loop_iters=%d chained=%d severed=%d cold=%d",
		s.Blocks, s.Formed, s.Compiled, s.Fused, s.Dispatches, s.Instrs, s.Aborts, s.SideExits, s.LoopIters, s.Chained, s.Severed, s.Cold)
}

// DataTLBReport formats the kernel address space's data-TLB counters.
func DataTLBReport(k *kernel.Kernel) string {
	s := k.CPU.AS.DataTLBStats()
	return fmt.Sprintf("data-tlb: hits=%d misses=%d", s.Hits, s.Misses)
}
