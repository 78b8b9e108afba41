package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestForkStartupPerfGate holds the golden-fork boot's headline number:
// Boot(cfg, WithCache()), the copy-on-write fork of a golden kernel that
// every fuzz worker, sweep kernel and ladder kernel boots through, must be
// at least 10x cheaper than constructing a kernel fresh from the same
// cached image (see measureFork). Like the other perf gates it is a
// same-host relative comparison, armed only under KRX_PERF_GATE.
func TestForkStartupPerfGate(t *testing.T) {
	if os.Getenv("KRX_PERF_GATE") == "" {
		t.Skip("perf gate disarmed (set KRX_PERF_GATE=1 to gate fork startup cost)")
	}
	presets := core.Presets()
	for _, cfg := range []core.Config{core.Vanilla, presets[len(presets)-1]} {
		r, err := measureFork(cfg)
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

// TestForkBaselineRecorded keeps the committed BENCH_emulator.json honest
// without timing anything: the baseline must carry the fork rows, and
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
	}
}
