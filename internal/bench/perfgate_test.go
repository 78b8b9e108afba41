package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestProbesDisabledStepPerfGate is the benchmark smoke from ISSUE 4's CI
// satellite: the probes-disabled Step path must not regress more than 2%
// against the committed BENCH_emulator.json baseline.
//
// Two gates run, one per metric class:
//
//   - Emulated cycles are deterministic and must match the baseline exactly;
//     a divergence means the emulator's semantics changed, not its speed.
//   - Host ns/op is machine- and load-dependent, so the measurement takes
//     the minimum over three EmuBench repetitions (the standard
//     noise-robust estimator) and the tolerance is configurable via
//     KRX_PERF_GATE_PCT (default 2, the ISSUE's gate; hosted CI runners
//     with noisy neighbors need a wider band).
//
// The whole test only arms when KRX_PERF_GATE is set and the baseline's
// goos/goarch match the host; anything else skips with the reason.
func TestProbesDisabledStepPerfGate(t *testing.T) {
	if os.Getenv("KRX_PERF_GATE") == "" {
		t.Skip("perf gate disarmed (set KRX_PERF_GATE=1 to compare against BENCH_emulator.json)")
	}
	tolerance := 2.0
	if s := os.Getenv("KRX_PERF_GATE_PCT"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("KRX_PERF_GATE_PCT: %v", err)
		}
		tolerance = v
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_emulator.json"))
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	var base EmuReport
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("parsing baseline: %v", err)
	}
	if base.SchemaVersion != EmuSchemaVersion {
		t.Fatalf("baseline schema_version %d, want %d: regenerate with krxbench -json",
			base.SchemaVersion, EmuSchemaVersion)
	}
	if base.GoOS != runtime.GOOS || base.GoArch != runtime.GOARCH {
		t.Skipf("baseline is %s/%s, running on %s/%s: host ns/op is not comparable",
			base.GoOS, base.GoArch, runtime.GOOS, runtime.GOARCH)
	}
	baseline := make(map[string]EmuResult)
	for _, r := range base.Results {
		baseline[r.Name] = r
	}

	// EmuBench is itself min-of-emuReps per mode (scheduling noise only
	// ever adds time), so one call is the noise-robust estimate.
	cur, err := EmuBench(5)
	if err != nil {
		t.Fatal(err)
	}

	for _, r := range cur.Results {
		name := r.Name
		want, ok := baseline[name]
		if !ok || want.HostNsOn <= 0 {
			t.Logf("%s: no baseline entry, skipping", name)
			continue
		}
		ratio := float64(r.HostNsOn) / float64(want.HostNsOn)
		t.Logf("%s: %d ns/op vs baseline %d ns/op (%.3fx)", name, r.HostNsOn, want.HostNsOn, ratio)
		// The table1-suite workloads repeat one identical instruction stream
		// per op — the probes-disabled Step path this gate protects, directly
		// comparable across iteration counts. Fuzz workloads execute a
		// different program each iteration, so their ns/op only compares at
		// equal iteration counts; they are informational here and gated
		// relatively (blocks vs cache-only) in TestBlockEnginePerfGate.
		if !strings.HasPrefix(name, "table1-suite/") {
			continue
		}
		// Deterministic gate: per-iteration emulated cycles must match the
		// baseline exactly (iteration counts may differ; every suite pass
		// executes the identical stream, so cycles scale linearly).
		if r.Iters > 0 && want.Iters > 0 &&
			r.Cycles/uint64(r.Iters) != want.Cycles/uint64(want.Iters) {
			t.Errorf("%s: emulated cycles/op diverge from baseline: %d vs %d — semantics changed",
				name, r.Cycles/uint64(r.Iters), want.Cycles/uint64(want.Iters))
		}
		if 100*(ratio-1) > tolerance {
			t.Errorf("%s: probes-disabled Step path regressed %.1f%% (> %.1f%% gate): %d ns/op vs baseline %d",
				name, 100*(ratio-1), tolerance, r.HostNsOn, want.HostNsOn)
		}
	}
}

// blockSpeedupFloor returns the block_speedup floor for a benchmark row:
// >= 1.15x on the table1-suite rows (steady-state block dispatch, where
// compiled thunks are the whole cost) and >= 1.0 everywhere else (fuzz rows
// amortize formation over fresh programs, so break-even is the contract).
func blockSpeedupFloor(name string) float64 {
	if strings.HasPrefix(name, "table1-suite/") {
		return 1.15
	}
	return 1.0
}

// TestBlockEnginePerfGate gates the superblock engine, which compiles every
// block it forms, against its own fallback, the decode-cache-only path, on
// EVERY workload, in two layers:
//
//   - Static (always on): every row of the committed BENCH_emulator.json
//     must carry block_speedup >= its floor. This holds the committed
//     baseline honest — a PR cannot land a benchmark file in which the
//     block engine loses to the path it is supposed to beat.
//   - Live (under KRX_PERF_GATE): the same floors re-measured on this
//     host, within the KRX_PERF_GATE_PCT band. The fuzz rows run with
//     coverage on, which keeps block dispatch armed (the CPU's coverage
//     sink marks whole blocks) — the fuzz-iteration/Vanilla row is exactly
//     the regression this gate exists to hold down. Each mode is
//     min-of-emuReps inside EmuBench, and the exact emulated-cycles
//     equality across all three modes is enforced inside measureEmu on
//     every repetition — a divergence fails the run before any timing is
//     reported. It is a relative same-host comparison, so no goos/goarch
//     check is needed.
func TestBlockEnginePerfGate(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_emulator.json"))
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	var base EmuReport
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("parsing baseline: %v", err)
	}
	if base.SchemaVersion != EmuSchemaVersion {
		t.Fatalf("baseline schema_version %d, want %d: regenerate with krxbench -json",
			base.SchemaVersion, EmuSchemaVersion)
	}
	if len(base.Results) == 0 {
		t.Fatal("baseline has no emulator results")
	}
	for _, r := range base.Results {
		floor := blockSpeedupFloor(r.Name)
		t.Logf("%s: baseline compiled %d ns/op vs cache-only %d ns/op (block speedup %.3fx, floor %.2fx)",
			r.Name, r.HostNsCompiled, r.HostNsOn, r.BlockSpeedup, floor)
		if r.BlockSpeedup < floor {
			t.Errorf("%s: committed baseline block_speedup %.3fx below the %.2fx floor: regenerate or fix the block engine",
				r.Name, r.BlockSpeedup, floor)
		}
	}

	if os.Getenv("KRX_PERF_GATE") == "" {
		t.Skip("live perf gate disarmed (set KRX_PERF_GATE=1 to re-measure block_speedup on this host)")
	}
	tolerance := 2.0
	if s := os.Getenv("KRX_PERF_GATE_PCT"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("KRX_PERF_GATE_PCT: %v", err)
		}
		tolerance = v
	}
	cur, err := EmuBench(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cur.Results {
		floor := blockSpeedupFloor(r.Name)
		t.Logf("%s: compiled %d ns/op vs cache-only %d ns/op (block speedup %.3fx, floor %.2fx)",
			r.Name, r.HostNsCompiled, r.HostNsOn, r.BlockSpeedup, floor)
		if r.BlockSpeedup < floor-tolerance/100 {
			t.Errorf("%s: block engine speedup %.3fx below the %.2fx floor (band %.1f%%)",
				r.Name, r.BlockSpeedup, floor, tolerance)
		}
	}
}
