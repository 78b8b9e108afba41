package main

import (
	"testing"
	"time"
)

// TestSmallRuns runs every workload at a small size (one 256-iteration
// campaign, one sweep, one ladder), traced, at a non-default seed where
// the workload takes one. It checks that every metric BENCHMARK.json names
// is emitted with its unit, that the traced outputs equal the untraced ones
// (a mismatch fails the run's checks), and that the spans nest.
func TestSmallRuns(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rc := runConfig{seed: w.defaultSeed + 7, window: time.Hour, trace: true,
				fuzzIters: 256, setups: 1, maxUnits: 1}
			o := w.run(rc)
			if len(o.problems) > 0 || o.failed > 0 || o.attempted == 0 {
				t.Fatalf("run failed its checks (%d of %d ops): %q", o.failed, o.attempted, o.problems)
			}
			e2e := endToEnd(o)
			for _, m := range sp.EndToEnd {
				got, ok := e2e[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				} else if got.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
				}
			}
			spans := o.tr.stats()
			layers := layerMetrics(spans, o.ctr)
			for _, m := range sp.PerLayer {
				if got, ok := layers[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(layers) != len(sp.PerLayer) || len(e2e) != len(sp.EndToEnd) {
				t.Errorf("emitted %d per-layer and %d end-to-end metrics, BENCHMARK.json names %d and %d",
					len(layers), len(e2e), len(sp.PerLayer), len(sp.EndToEnd))
			}
			checkSpans(t, spans)
		})
	}
}

// checkSpans checks that every span lies inside the span that caused it,
// that self times are between zero and the span's duration, and that on
// each lane the self times sum to no more than the lane's wall time.
func checkSpans(t *testing.T, spans []spanStat) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	index := map[spanRef]spanStat{}
	next := map[int]int{}
	for _, s := range spans {
		index[spanRef{s.lane, next[s.lane]}] = s
		next[s.lane]++
	}
	type wall struct{ lo, hi, self time.Duration }
	lanes := map[int]*wall{}
	for _, s := range spans {
		if s.end < s.start || s.self < 0 || s.self > s.end-s.start {
			t.Fatalf("span %s [%v, %v] has self time %v", s.name, s.start, s.end, s.self)
		}
		if s.parent != noSpan {
			p, ok := index[s.parent]
			if !ok {
				t.Fatalf("span %s has a dangling parent %+v", s.name, s.parent)
			}
			if s.start < p.start || s.end > p.end {
				t.Fatalf("span %s [%v, %v] escapes its parent %s [%v, %v]", s.name, s.start, s.end, p.name, p.start, p.end)
			}
		}
		w := lanes[s.lane]
		if w == nil {
			w = &wall{lo: s.start, hi: s.end}
			lanes[s.lane] = w
		}
		w.lo, w.hi, w.self = min(w.lo, s.start), max(w.hi, s.end), w.self+s.self
	}
	for id, w := range lanes {
		if w.self > w.hi-w.lo {
			t.Errorf("lane %d: self times sum to %v, more than its wall time %v", id, w.self, w.hi-w.lo)
		}
	}
}

// TestJudge pins the compare verdicts: a gain needs paired wins (or a
// complete separation) and a gap wider than the parent's quartile spread,
// a spread wider than the bound leaves a row unresolved, and a median
// beyond the bound is worse.
func TestJudge(t *testing.T) {
	runs := func(seed0 int64, xs ...float64) []sample {
		out := make([]sample, len(xs))
		for i, x := range xs {
			out[i] = sample{seed0 + int64(i), x}
		}
		return out
	}
	parent := runs(1, 100, 104, 98, 101, 97, 103, 99, 102, 100, 96)
	for _, c := range []struct {
		name   string
		change []sample
		want   string
	}{
		{"same code", runs(1, 101, 99, 103, 97, 100, 102, 98, 104, 96, 100), "ok"},
		// 8% faster in every pair, with runs overlapping the parent's.
		{"paired gain", runs(1, 92, 96, 90, 93, 89, 95, 91, 94, 92, 88), "better"},
		// The same values at other seeds: no pairs, no complete separation.
		{"unpaired gain", runs(11, 92, 96, 90, 93, 89, 95, 91, 94, 92, 88), "ok"},
		{"separated gain", runs(11, 80, 82, 81, 79, 83, 80, 81, 82, 79, 80), "better"},
		{"noisy", runs(1, 60, 140, 70, 130, 100, 90, 150, 65, 110, 95), "unresolved"},
		{"regression", runs(1, 120, 125, 118, 122, 119, 121, 124, 117, 123, 120), "worse"},
	} {
		wins, n := pairWins(parent, c.change, false)
		if got, _ := judge(parent, c.change, wins, n, 0.1, false); got != c.want {
			t.Errorf("%s: verdict %s (pairs won %d/%d), want %s", c.name, got, wins, n, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the rule the spreads of a set of runs are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 2, 5},
		{[]float64{2, 7}, 0.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
