package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden rewrites golden files when KRX_UPDATE_GOLDEN is set
// (`KRX_UPDATE_GOLDEN=1 go test ./internal/...`).
func updateGolden() bool { return os.Getenv("KRX_UPDATE_GOLDEN") != "" }

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if updateGolden() {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with KRX_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: serialized form changed without a SchemaVersion bump.\n got: %s\nwant: %s",
			path, got, want)
	}
}

// TestEmuReportSchemaGolden pins the krxbench -json wire format: any field
// addition, removal, or rename changes these bytes and must come with an
// EmuSchemaVersion bump (and a regenerated golden file).
func TestEmuReportSchemaGolden(t *testing.T) {
	rep := &EmuReport{
		Schema:        "krx-emubench",
		SchemaVersion: EmuSchemaVersion,
		GoOS:          "linux",
		GoArch:        "amd64",
		Results: []EmuResult{{
			Name:           "table1-suite/Vanilla",
			Iters:          10,
			Reps:           3,
			HostNsCompiled: 640,
			HostNsOn:       1000,
			HostNsOff:      2500,
			Speedup:        2.5,
			BlockSpeedup:   1.5625,
			Cycles:         123456,
		}},
		Fork: []ForkResult{{
			Name:              "fork/Vanilla",
			Reps:              3,
			BootNs:            20000000,
			ForkNs:            1500000,
			ForksPerSec:       666.67,
			BootOverFork:      13.33,
			FirstPassUnshared: 9000000,
			FirstPassShared:   7500000,
			FirstPassSpeedup:  1.2,
		}},
		Store: []StoreResult{{
			Name:            "store/Vanilla",
			Reps:            3,
			ColdNs:          20000000,
			HitNs:           4000000,
			StoreHitSpeedup: 5.0,
		}},
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "emureport.golden.json"), b)
}
