package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestStoreHitPerfGate holds the artifact store's headline number: a boot
// served from a populated on-disk store by a fresh ImageCache must be
// cheaper than re-running the link pipeline. The gate applies only to the
// protected preset — Vanilla's pipeline has no SFI or diversification
// passes, so its link costs little more than a blob decode; the store's
// win is precisely the pass work it skips. Like the
// other perf gates it is a same-host relative comparison, armed only under
// KRX_PERF_GATE.
func TestStoreHitPerfGate(t *testing.T) {
	if os.Getenv("KRX_PERF_GATE") == "" {
		t.Skip("perf gate disarmed (set KRX_PERF_GATE=1 to gate store-hit boot cost)")
	}
	presets := core.Presets()
	r, err := measureStore(presets[len(presets)-1])
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: cold %d ns, store hit %d ns (%.1fx)", r.Name, r.ColdNs, r.HitNs, r.StoreHitSpeedup)
	if r.StoreHitSpeedup <= 1 {
		t.Errorf("%s: store hit is not cheaper than a cold link (%.2fx, want > 1x)",
			r.Name, r.StoreHitSpeedup)
	}
}

// TestStoreBaselineRecorded keeps the committed BENCH_emulator.json honest
// without timing anything: the baseline must carry the v6 store rows, and
// the recorded numbers must show the store-hit win the gate above enforces
// live. Always on — it reads the file, it does not measure.
func TestStoreBaselineRecorded(t *testing.T) {
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
	if len(base.Store) < 2 {
		t.Fatalf("baseline has %d store rows, want >= 2 (vanilla + full preset)", len(base.Store))
	}
	for _, r := range base.Store {
		if r.ColdNs <= 0 || r.HitNs <= 0 || r.StoreHitSpeedup <= 0 {
			t.Errorf("%s: degenerate timing row: %+v", r.Name, r)
		}
		// Protected presets must show the win; Vanilla's link is nearly
		// free, so its ratio only has to be sane (see TestStoreHitPerfGate).
		if r.Name != "store/Vanilla" && r.StoreHitSpeedup <= 1 {
			t.Errorf("%s: recorded store_hit_speedup %.2fx, want > 1x", r.Name, r.StoreHitSpeedup)
		}
	}
}
