package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/kernel"
	"repro/internal/sfi"
)

func TestTable1ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("full table sweep")
	}
	tbl, err := RunTable1(3)
	if err != nil {
		t.Fatal(err)
	}
	col := func(name string) int {
		for i, c := range tbl.Configs {
			if c == name {
				return i
			}
		}
		t.Fatalf("missing config column %q", name)
		return -1
	}
	row := func(name string) int {
		for i, r := range tbl.RowNames {
			if r == name {
				return i
			}
		}
		t.Fatalf("missing row %q", name)
		return -1
	}
	o0, o1, o2, o3 := col("SFI(-O0)"), col("SFI(-O1)"), col("SFI(-O2)"), col("SFI")
	mpx, d, x := col("MPX"), col("D"), col("X")

	// Shape claim 1: the optimization ladder is monotone on every row.
	for ri, name := range tbl.RowNames {
		v := tbl.Overhead[ri]
		if !(v[o0] >= v[o1] && v[o1] >= v[o2]-0.5 && v[o2] >= v[o3]-0.5) {
			t.Errorf("%s: O0..O3 not monotone: %.1f %.1f %.1f %.1f", name, v[o0], v[o1], v[o2], v[o3])
		}
		// Shape claim 2: MPX (almost) eliminates the SFI overhead.
		if v[mpx] > v[o3]*0.75+0.5 {
			t.Errorf("%s: MPX (%.2f%%) not well below SFI-O3 (%.2f%%)", name, v[mpx], v[o3])
		}
		// Shape claim 3: overheads are non-negative (within noise).
		for ci, ov := range v {
			if ov < -1.0 {
				t.Errorf("%s/%s: negative overhead %.2f%%", name, tbl.Configs[ci], ov)
			}
		}
	}

	// Shape claim 4: the O0 scheme is dramatically expensive (order of
	// 100%+ on syscall latency, like the paper's 127%).
	if v := tbl.Overhead[row("syscall()")][o0]; v < 50 {
		t.Errorf("SFI(-O0) null-syscall overhead %.1f%% suspiciously low", v)
	}
	// Shape claim 5: select(100 fds) benefits more from coalescing than
	// select(10) — relative overhead must be lower.
	if tbl.Overhead[row("select(100 TCP fds)")][o3] > tbl.Overhead[row("select(10 fds)")][o3] {
		t.Error("coalescing should favour the large select")
	}
	// Shape claim 6: decoys are cheaper than encryption on latency average
	// (pure diversification columns).
	var dSum, xSum float64
	for ri := range tbl.RowNames {
		dSum += tbl.Overhead[ri][d]
		xSum += tbl.Overhead[ri][x]
	}
	if dSum >= xSum {
		t.Errorf("decoys (%.1f) should be cheaper than encryption (%.1f) on this suite", dSum, xSum)
	}
	// Shape claim 7: bandwidth rows suffer less than latency rows under
	// full SFI protection (rep-string amortization).
	var latAvg, bwAvg float64
	var nl, nb int
	for ri, kind := range tbl.RowKinds {
		if kind == Bandwidth {
			bwAvg += tbl.Overhead[ri][o3]
			nb++
		} else {
			latAvg += tbl.Overhead[ri][o3]
			nl++
		}
	}
	if bwAvg/float64(nb) > latAvg/float64(nl) {
		t.Errorf("bandwidth overhead (%.2f%%) should undercut latency overhead (%.2f%%)",
			bwAvg/float64(nb), latAvg/float64(nl))
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("full table sweep")
	}
	tbl, err := RunTable2(3)
	if err != nil {
		t.Fatal(err)
	}
	idx := func(name string) int {
		for i, r := range tbl.RowNames {
			if r == name {
				return i
			}
		}
		t.Fatalf("missing workload %q", name)
		return -1
	}
	// PostMark is the worst row in every column (≈83% kernel time).
	pm := idx("PostMark")
	for ci := range tbl.Configs {
		for ri, name := range tbl.RowNames {
			if tbl.Overhead[ri][ci] > tbl.Overhead[pm][ci]+0.01 {
				t.Errorf("%s (%s) exceeds PostMark: %.2f%% > %.2f%%",
					name, tbl.Configs[ci], tbl.Overhead[ri][ci], tbl.Overhead[pm][ci])
			}
		}
	}
	// CPU-bound workloads are ~0 everywhere.
	for _, name := range []string{"GnuPG", "OpenSSL", "PyBench", "PHPBench"} {
		ri := idx(name)
		for ci := range tbl.Configs {
			if tbl.Overhead[ri][ci] > 0.5 {
				t.Errorf("%s/%s: CPU-bound workload overhead %.2f%%", name, tbl.Configs[ci], tbl.Overhead[ri][ci])
			}
		}
	}
	// Full-protection averages stay in single digits (paper: 2.3%–4.1%).
	for ci, cfg := range tbl.Configs {
		var sum float64
		for ri := range tbl.RowNames {
			sum += tbl.Overhead[ri][ci]
		}
		avg := sum / float64(len(tbl.RowNames))
		if avg < 0 || avg > 10 {
			t.Errorf("%s: average overhead %.2f%% outside the plausible band", cfg, avg)
		}
	}
	// MPX combos beat their SFI counterparts.
	cols := map[string]int{}
	for i, c := range tbl.Configs {
		cols[c] = i
	}
	for _, pair := range [][2]string{{"MPX+D", "SFI+D"}, {"MPX+X", "SFI+X"}} {
		var m, s float64
		for ri := range tbl.RowNames {
			m += tbl.Overhead[ri][cols[pair[0]]]
			s += tbl.Overhead[ri][cols[pair[1]]]
		}
		if m >= s {
			t.Errorf("%s (%.1f) should beat %s (%.1f)", pair[0], m, pair[1], s)
		}
	}
}

func TestFormatRendersTable(t *testing.T) {
	tbl := &Table{
		Title:    "test",
		RowNames: []string{"a", "b"},
		RowKinds: []OpKind{Latency, Bandwidth},
		Configs:  []string{"SFI", "MPX"},
		Overhead: [][]float64{{1.5, 0.01}, {-0.02, 25.0}},
	}
	out := tbl.Format()
	for _, want := range []string{"SFI", "MPX", "1.50%", "~0%", "25.00%", "bandwidth", "Average"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestStatsReportClaims(t *testing.T) {
	// The §7.2 text claims, measured over the corpus.
	k, err := kernel.Boot(core.Config{XOM: core.XOMSFI, SFILevel: sfi.O1, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := k.Build.SFIStats
	// O1: "can eliminate up to 94% of the original pushfq-popfq pairs".
	elim := float64(s.PushfqEliminated) / float64(s.PushfqPairs+s.PushfqEliminated)
	if elim < 0.5 {
		t.Errorf("O1 pushfq elimination rate %.2f too low", elim)
	}
	// "Safe reads account for 4% of all memory reads" — allow a band.
	safe := float64(s.SafeReads) / float64(s.ReadsTotal)
	if safe < 0.01 || safe > 0.15 {
		t.Errorf("safe-read fraction %.3f outside band", safe)
	}

	k3, err := kernel.Boot(core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s3 := k3.Build.SFIStats
	// O2: "95% of the RCs can be optimized this way" (lea-eliminated).
	lea := float64(s3.LeaEliminated) / float64(s3.LeaEliminated+s3.LeaForm)
	if lea < 0.6 {
		t.Errorf("O2 lea elimination rate %.2f too low", lea)
	}
	// O3: "about one out of every two RCs can be eliminated" — band.
	coal := float64(s3.RCCoalesced) / float64(s3.RCCandidates)
	if coal < 0.15 || coal > 0.8 {
		t.Errorf("O3 coalescing rate %.2f outside band", coal)
	}
	rep := StatsReport(k3)
	for _, want := range []string{"range checks", "lea-eliminated", "safe"} {
		if !strings.Contains(rep, want) {
			t.Errorf("stats report missing %q:\n%s", want, rep)
		}
	}
	repD := StatsReport(k)
	if !strings.Contains(repD, "entropy floor") {
		t.Errorf("stats report missing diversification section:\n%s", repD)
	}
}

func TestMicroOpsAllRunEverywhere(t *testing.T) {
	// Every op must run cleanly on vanilla and one full-protection kernel.
	for _, cfg := range []core.Config{core.Vanilla,
		{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RADecoy, Seed: 6}} {
		if _, err := measureOps(cfg, MicroOps(), 2); err != nil {
			t.Errorf("%s: %v", cfg.Name(), err)
		}
	}
}

func TestWorkloadsAllRunEverywhere(t *testing.T) {
	k, err := kernel.Boot(core.Config{XOM: core.XOMMPX, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads() {
		if _, err := w.Txn(k); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if w.UserShare <= 0 || w.UserShare >= 1 {
			t.Errorf("%s: user share %.3f out of range", w.Name, w.UserShare)
		}
	}
}

func TestPaperComparisonAndShapeAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("full table sweep")
	}
	t1, err := RunTable1(3)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatComparison(t1, nil, true)
	if !strings.Contains(out, "/") || !strings.Contains(out, "syscall()") {
		t.Fatalf("comparison rendering broken:\n%s", out)
	}
	// Rank agreement with the paper's Table 1 per column: the shape claim.
	agree := ShapeAgreement(t1, nil, true)
	for _, cfg := range []string{"SFI(-O0)", "SFI", "MPX"} {
		if a, ok := agree[cfg]; !ok || a < 0.5 {
			t.Errorf("rank agreement with the paper for %s = %.2f (want >= 0.5)", cfg, a)
		}
	}

	t2, err := RunTable2(3)
	if err != nil {
		t.Fatal(err)
	}
	agree2 := ShapeAgreement(t2, PaperTable2, false)
	for cfg, a := range agree2 {
		if a < 0.6 {
			t.Errorf("Table 2 rank agreement for %s = %.2f (want >= 0.6)", cfg, a)
		}
	}
	out2 := FormatComparison(t2, PaperTable2, false)
	if !strings.Contains(out2, "PostMark") {
		t.Fatalf("table 2 comparison broken:\n%s", out2)
	}
}

func TestProfileDecomposition(t *testing.T) {
	vanilla, err := RunProfile(core.Vanilla)
	if err != nil {
		t.Fatal(err)
	}
	if vanilla.RangeCheck != 0 || vanilla.RAProt != 0 {
		t.Fatalf("vanilla kernel must have zero protection cycles: %+v", vanilla)
	}
	if vanilla.TotalCycles == 0 || len(vanilla.ByFunc) < 10 {
		t.Fatalf("profile empty: %+v", vanilla)
	}

	sfiProf, err := RunProfile(core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if sfiProf.RangeCheck == 0 {
		t.Fatal("SFI profile must attribute range-check cycles")
	}
	// The attributed overhead must roughly match the measured overhead:
	// total_sfi - rc ≈ total_vanilla (within a band — connector jmps and
	// entry-path differences add noise).
	ratio := float64(sfiProf.TotalCycles-sfiProf.RangeCheck) / float64(vanilla.TotalCycles)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("rc-subtracted cycles / vanilla = %.3f, want ~1.0", ratio)
	}

	full, err := RunProfile(core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if full.RAProt == 0 {
		t.Fatal("X profile must attribute ra-protection cycles")
	}
	out := full.Format(5)
	for _, want := range []string{"range checks", "ra protection", "hottest"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile formatting missing %q:\n%s", want, out)
		}
	}

	mpx, err := RunProfile(core.Config{XOM: core.XOMMPX, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if mpx.RangeCheck == 0 || mpx.RangeCheck >= sfiProf.RangeCheck {
		t.Errorf("MPX check cycles (%d) must be positive and below SFI's (%d)",
			mpx.RangeCheck, sfiProf.RangeCheck)
	}
}

// TestSweepBuildsEachConfigOnce is the build-cache acceptance property for
// the multi-config sweeps: running both tables back to back must compile
// each distinct configuration exactly once — the second table's columns
// (a subset of the presets) are all cache hits.
func TestSweepBuildsEachConfigOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full table sweep")
	}
	defer kernel.SetBuildCache(kernel.SetBuildCache(core.NewImageCache(nil)))
	if _, err := RunTable1(1); err != nil {
		t.Fatal(err)
	}
	if _, err := RunTable2(1); err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{core.Vanilla.BuildKey(): true}
	for _, cfg := range Table1Configs() {
		distinct[cfg.BuildKey()] = true
	}
	for _, cfg := range Table2Configs() {
		distinct[cfg.BuildKey()] = true
	}
	if got := kernel.BuildCache().Stats().Builds; got != uint64(len(distinct)) {
		t.Fatalf("sweeps ran %d builds for %d distinct configs", got, len(distinct))
	}
	if kernel.BuildCache().Stats().Hits == 0 {
		t.Fatal("the second sweep produced no cache hits")
	}
}

// TestTablesDigestPinned pins the bytes `krxbench -table1 -table2` prints:
// the SHA-256 of both tables at the default 10 iterations must equal
// testdata/tables.sha256. Every cell is an emulated-cycle ratio, so any
// change to the cycles an op consumes, or to how a column is measured,
// shows here. A deliberate change regenerates the file with
// `go run ./cmd/krxbench -table1 -table2 | sha256sum`.
func TestTablesDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full table sweep")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "tables.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	t1, err := RunTable1(10)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := RunTable2(10)
	if err != nil {
		t.Fatal(err)
	}
	out := t1.Format() + "\n" + t2.Format() + "\n"
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
		t.Fatalf("tables digest %s, want %s; the tables now read:\n%s", got, strings.TrimSpace(string(want)), out)
	}
}
