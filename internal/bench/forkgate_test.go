package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
)

func gateTolerance(t *testing.T, def float64) float64 {
	t.Helper()
	tolerance := def
	if s := os.Getenv("KRX_PERF_GATE_PCT"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("KRX_PERF_GATE_PCT: %v", err)
		}
		tolerance = v
	}
	return tolerance
}

// TestForkStartupPerfGate holds the tentpole's headline number: standing up
// a worker as a copy-on-write fork of a golden kernel must be at least 10x
// cheaper than booting one cold (ISSUE acceptance: "fork startup >= 10x
// cheaper than cold boot"). Like the other perf gates it is a same-host
// relative comparison, armed only under KRX_PERF_GATE. Booting cold means
// constructing a kernel from the warm cache's image (see measureFork): a
// WithCache boot is itself a fork of a golden kernel.
func TestForkStartupPerfGate(t *testing.T) {
	if os.Getenv("KRX_PERF_GATE") == "" {
		t.Skip("perf gate disarmed (set KRX_PERF_GATE=1 to gate fork startup cost)")
	}
	presets := core.Presets()
	for _, cfg := range []core.Config{core.Vanilla, presets[len(presets)-1]} {
		r, err := measureFork(cfg, 42, 5)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: boot %d ns, fork %d ns (%.1fx, %.0f forks/sec)",
			r.Name, r.BootNs, r.ForkNs, r.BootOverFork, r.ForksPerSec)
		if r.BootOverFork < 10 {
			t.Errorf("%s: fork only %.1fx cheaper than cold boot, want >= 10x", r.Name, r.BootOverFork)
		}
	}
}

// TestForkIterationPerfGate holds the steady state: a fuzz iteration inside
// a forked worker — sharing every unwritten frame and the golden kernel's
// cloned decode cache — must run at least as fast as one inside a booted
// worker, within the KRX_PERF_GATE_PCT band: both windows run the same
// probe-free executor path over the same programs, so CoW bookkeeping on
// the write paths is exactly what a regression here would be measuring.
// The default band is wider than the other gates' 2%: the metric is a
// ratio of two multi-millisecond wall-clock windows, which swings several
// percent either way on a shared host even at min-of-reps, while the
// failure this gate guards against — CoW work that recurs every iteration
// instead of amortizing, like a break inside the restore loop — costs tens
// of percent.
func TestForkIterationPerfGate(t *testing.T) {
	if os.Getenv("KRX_PERF_GATE") == "" {
		t.Skip("perf gate disarmed (set KRX_PERF_GATE=1 to gate fork-mode iteration cost)")
	}
	tolerance := gateTolerance(t, 10.0)
	presets := core.Presets()
	for _, cfg := range []core.Config{core.Vanilla, presets[len(presets)-1]} {
		// A wider window than the startup gate: the fork/boot ratio sits
		// within a few percent of 1.0, so the timed windows must be long
		// enough (hundreds of iterations) for a min-of-reps ratio to settle
		// inside the KRX_PERF_GATE_PCT band.
		r, err := measureFork(cfg, 42, 25)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(r.IterNsFork) / float64(r.IterNsBoot)
		t.Logf("%s: fork-mode %d ns/iter vs boot-mode %d ns/iter (%.3fx)",
			r.Name, r.IterNsFork, r.IterNsBoot, ratio)
		if 100*(ratio-1) > tolerance {
			t.Errorf("%s: fork-mode iteration %.1f%% slower than boot-mode (> %.1f%% gate)",
				r.Name, 100*(ratio-1), tolerance)
		}
	}
}

// TestForkBaselineRecorded keeps the committed BENCH_emulator.json honest
// without timing anything: the baseline must carry the v5 fork rows, and
// the recorded numbers must show the >= 10x startup win the gate above
// enforces live. Always on — it reads the file, it does not measure.
func TestForkBaselineRecorded(t *testing.T) {
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
	if len(base.Fork) < 2 {
		t.Fatalf("baseline has %d fork rows, want >= 2 (vanilla + full preset)", len(base.Fork))
	}
	for _, r := range base.Fork {
		if r.ForksPerSec <= 0 || r.ForkNs <= 0 || r.BootNs <= 0 {
			t.Errorf("%s: degenerate timing row: %+v", r.Name, r)
		}
		if r.BootOverFork < 10 {
			t.Errorf("%s: recorded boot_over_fork %.1fx, want >= 10x", r.Name, r.BootOverFork)
		}
		if r.Cycles == 0 || r.IterNsFork <= 0 || r.IterNsBoot <= 0 {
			t.Errorf("%s: missing iteration window data: %+v", r.Name, r)
		}
	}
}
