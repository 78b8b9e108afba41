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
// v9: fork mode is gone, so the fork rows drop their fork-vs-boot iteration
// windows (host_ns_per_fork_iteration, host_ns_per_boot_iteration and
// emulated_cycles) and time the golden-fork boot, Boot(cfg, WithCache()),
// instead of a fuzz executor fork.
// v10: the fork rows add the Table 1 suite's first pass on a fresh golden
// fork, with and without the family's shared translations
// (host_ns_first_pass_unshared, host_ns_first_pass_shared,
// first_pass_speedup).
const EmuSchemaVersion = 10

// emuReps is the number of repetitions per mode; the reported time is the
// minimum over them (the min estimates the noise-free cost; means are
// biased up by arbitrary amounts of host interference). Five repetitions,
// up from three: the block gate compares two fast modes whose difference
// can be a fraction of the scheduler noise on a shared host, and min-of-3
// left such a ratio swinging across a 1.15 floor run to run.
const emuReps = 5

// ForkResult is one configuration's boot-cost measurement: what a
// golden-fork boot (Boot(cfg, WithCache())) costs next to constructing a
// kernel fresh from the same image, and what a fork's first Table 1 suite
// pass costs when an earlier fork of the golden already ran it, with the
// golden's shared translations (shared) and with the fork's table detached
// (unshared, what every fork paid before translations were shared).
type ForkResult struct {
	Name              string  `json:"name"`
	Reps              int     `json:"reps"`
	BootNs            int64   `json:"host_ns_per_boot"`
	ForkNs            int64   `json:"host_ns_per_fork"`
	ForksPerSec       float64 `json:"forks_per_sec"`
	BootOverFork      float64 `json:"boot_over_fork"`
	FirstPassUnshared int64   `json:"host_ns_first_pass_unshared"`
	FirstPassShared   int64   `json:"host_ns_first_pass_shared"`
	FirstPassSpeedup  float64 `json:"first_pass_speedup"`
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
		// All 64 closes, open or not, unlike measureOps: krxbench -funcs,
		// -profile and -trace attribute every one, and -json counts their
		// cycles.
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

// leakBatch is how many sys_leak calls one syscall-leak op makes: eight
// reads of every sys_call_table word. A single round trip is a couple of
// microseconds, so the op is a batch.
const leakBatch = 8 * kernel.NumSyscalls

func leakWorkload(cfg core.Config) emuWorkload {
	return emuWorkload{
		name: "syscall-leak/" + cfg.Name(),
		// A few warmup batches take every entry point of the leak path past
		// the block engine's hotness gate, so the window times steady-state
		// round trips: syscall entry, sys_leak's load, return.
		warm: 4,
		// The multiplier keeps the timed window in the tens of
		// milliseconds (see emuWorkload.mult).
		mult: 4,
		make: func(cacheOn, blocksOn bool) (func() (uint64, error), error) {
			k, err := kernel.Boot(cfg, kernel.WithCache())
			if err != nil {
				return nil, err
			}
			k.CPU.SetDecodeCache(cacheOn)
			k.CPU.SetBlockEngine(blocksOn)
			tbl := k.Sym("sys_call_table")
			return func() (uint64, error) {
				var total uint64
				for i := 0; i < leakBatch; i++ {
					c, err := timed(k.Syscall(kernel.SysLeak, tbl+uint64(i%kernel.NumSyscalls)*8), "sys_leak")
					if err != nil {
						return 0, err
					}
					total += c
				}
				return total, nil
			}, nil
		},
	}
}

// selectNfds is the descriptor count of one syscall-select op. The fuzzer
// passes sys_select counts up to 1<<20 and beyond (fuzz.ArgCount); 1<<16
// runs the fd loop's 65,536 passes to their end, well inside the watchdog.
const selectNfds = 1 << 16

// selectWorkload times one sys_select(selectNfds) per op: the register
// loop that dominates a fuzz campaign's emulated instructions. The
// compiled mode fast-forwards the loop's passes once its bitmap register
// has drained (fixpoint.go in internal/cpu); the other two modes run every
// pass, so block_speedup on these rows is what the fast-forward buys.
func selectWorkload(cfg core.Config) emuWorkload {
	return emuWorkload{
		name: "syscall-select/" + cfg.Name(),
		// One warm-up op suffices: the loop's first passes take its entry
		// past the hotness gate. An uncached op is over 500K instructions.
		warm: 1,
		make: func(cacheOn, blocksOn bool) (func() (uint64, error), error) {
			k, err := kernel.Boot(cfg, kernel.WithCache())
			if err != nil {
				return nil, err
			}
			k.CPU.SetDecodeCache(cacheOn)
			k.CPU.SetBlockEngine(blocksOn)
			return func() (uint64, error) {
				return timed(k.Syscall(kernel.SysSelect, selectNfds), "sys_select")
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
// preemptions happened to land in the timed window into the baseline. The
// repetitions interleave the modes (rep 1 of each mode, then rep 2 of
// each, ...), so a ratio of two modes compares timings taken at the same
// moments of the host's load rather than one mode's quiet minute with the
// other's busy one.
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
	for rep := 0; rep < emuReps; rep++ {
		for m, mode := range modes {
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

// forkBatch is how many boots one timed repetition performs: a single fork
// is a few microseconds, so the per-boot time comes from a batch window, like
// emuWorkload.mult keeps the iteration windows above the noise floor.
const forkBatch = 64

// measureFork times the boot every fuzz worker, sweep kernel and ladder
// kernel takes under one configuration — Boot(cfg, WithCache()), a
// copy-on-write fork of the configuration's golden kernel — against a fresh
// construction of a kernel from the same cached image (WithImage). Both
// sides are timed alike, by perBoot. It then times the Table 1 suite's
// first pass on fresh forks, min of emuReps, alternating forks that adopt
// the golden's shared translations with forks whose table is detached; the
// two must retire identical emulated cycles.
func measureFork(cfg core.Config) (ForkResult, error) {
	res := ForkResult{Name: "fork/" + cfg.Name(), Reps: emuReps}
	// The first WithCache boot builds the image and constructs the golden
	// kernel, so every timed WithCache boot below is a fork; the fresh side
	// installs the same image with WithImage, so it times kernel
	// construction, not toolchain work.
	k, err := kernel.Boot(cfg, kernel.WithCache())
	if err != nil {
		return res, fmt.Errorf("bench: %s: golden: %w", res.Name, err)
	}
	img := k.Build
	boot, err := perBoot(func() error {
		_, err := kernel.Boot(cfg, kernel.WithImage(img))
		return err
	})
	if err != nil {
		return res, fmt.Errorf("bench: %s: boot: %w", res.Name, err)
	}
	fork, err := perBoot(func() error {
		_, err := kernel.Boot(cfg, kernel.WithCache())
		return err
	})
	if err != nil {
		return res, fmt.Errorf("bench: %s: fork: %w", res.Name, err)
	}
	res.BootNs = boot.Nanoseconds()
	res.ForkNs = fork.Nanoseconds()
	if res.ForkNs > 0 {
		res.ForksPerSec = 1e9 / float64(res.ForkNs)
		res.BootOverFork = float64(res.BootNs) / float64(res.ForkNs)
	}
	// The earlier fork: it runs the suite once, so the golden's table holds
	// the suite's blocks before anything below is timed. It is booted after
	// the batches above, so it is never the golden's first fork, which
	// shares nothing.
	earlier, err := kernel.Boot(cfg, kernel.WithCache())
	if err != nil {
		return res, fmt.Errorf("bench: %s: warm-up: %w", res.Name, err)
	}
	if _, err := RunTable1Suite(earlier); err != nil {
		return res, fmt.Errorf("bench: %s: warm-up: %w", res.Name, err)
	}
	var cycles [2]uint64
	var host [2]time.Duration
	for rep := 0; rep < emuReps; rep++ {
		for m, shared := range []bool{false, true} {
			f, err := kernel.Boot(cfg, kernel.WithCache())
			if err != nil {
				return res, fmt.Errorf("bench: %s: first pass: %w", res.Name, err)
			}
			if !shared {
				f.CPU.ShareBlocks(nil)
			}
			start := time.Now()
			c, err := RunTable1Suite(f)
			d := time.Since(start)
			if err != nil {
				return res, fmt.Errorf("bench: %s: first pass: %w", res.Name, err)
			}
			if rep == 0 {
				cycles[m], host[m] = c, d
			} else if c != cycles[m] {
				return res, fmt.Errorf("bench: %s: first-pass cycles diverge across reps: %d vs %d", res.Name, cycles[m], c)
			}
			host[m] = min(host[m], d)
		}
	}
	if cycles[0] != cycles[1] {
		return res, fmt.Errorf("bench: %s: first-pass cycles diverge: unshared %d vs shared %d", res.Name, cycles[0], cycles[1])
	}
	res.FirstPassUnshared = host[0].Nanoseconds()
	res.FirstPassShared = host[1].Nanoseconds()
	if res.FirstPassShared > 0 {
		res.FirstPassSpeedup = float64(res.FirstPassUnshared) / float64(res.FirstPassShared)
	}
	return res, nil
}

// perBoot runs emuReps batches of forkBatch boots and returns the best
// batch's time per boot.
func perBoot(boot func() error) (time.Duration, error) {
	var best time.Duration
	for rep := 0; rep < emuReps; rep++ {
		start := time.Now()
		for i := 0; i < forkBatch; i++ {
			if err := boot(); err != nil {
				return 0, err
			}
		}
		if d := time.Since(start) / forkBatch; rep == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// EmuBench measures the emulator's host performance with the decode cache
// on and off: the Table 1 micro-op suite under vanilla and a fully
// protected column, a fuzzing iteration (restore + program execution), a
// batch of sys_leak round trips (the attack ladder's read primitive), one
// long sys_select (the fuzzer's dominant loop), the fork rows (golden-fork
// boot vs fresh construction), and the store rows (cold-link boot vs a boot
// served from the persistent artifact store).
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
		leakWorkload(core.Vanilla),
		leakWorkload(full),
		selectWorkload(core.Vanilla),
		selectWorkload(full),
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
		fr, err := measureFork(cfg)
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
		"block-engine: blocks=%d formed=%d adopted=%d compiled=%d fused=%d dispatches=%d instrs=%d aborts=%d side_exits=%d loop_iters=%d loop_skipped=%d chained=%d severed=%d cold=%d",
		s.Blocks, s.Formed, s.Adopted, s.Compiled, s.Fused, s.Dispatches, s.Instrs, s.Aborts, s.SideExits, s.LoopIters, s.LoopSkipped, s.Chained, s.Severed, s.Cold)
}

// DataTLBReport formats the kernel address space's data-TLB counters.
func DataTLBReport(k *kernel.Kernel) string {
	s := k.CPU.AS.DataTLBStats()
	return fmt.Sprintf("data-tlb: hits=%d misses=%d", s.Hits, s.Misses)
}
