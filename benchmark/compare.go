package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// spec is the part of BENCHMARK.json, the benchmark's contract, that the
// benchmark reads: its metrics and their regression bounds.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// working directory or its parent (when run from this directory).
func loadSpec() (*spec, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			firstErr = errors.Join(firstErr, err)
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// runRecord is one run's result line, tagged with what ran.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// spread is a metric's median and quartiles over a set of runs.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
}

// resultFile is what --out writes and --compare reads.
type resultFile struct {
	Go         string                       `json:"go"`
	Nproc      int                          `json:"nproc"`
	GOMAXPROCS int                          `json:"gomaxprocs"`
	Summary    map[string]map[string]spread `json:"summary"` // workload → metric
	Runs       []runRecord                  `json:"runs"`
}

// runAll runs every workload `runs` times, each run in a fresh child
// process so set-up time and peak memory are per run. Runs of different
// workloads alternate, so slow drift in the host's speed spreads evenly.
func runAll(seed int64, seedSet bool, secs float64, trace bool, runs int, outPath string) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	var records []runRecord
	code := 0
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			s := w.defaultSeed
			if seedSet {
				s = seed
			}
			s += int64(r)
			rec, err := runChild(self, w.name, s, secs, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w.name, s, err)
				code = 1
				continue
			}
			if !rec.Correct {
				code = 1
			}
			records = append(records, rec)
		}
	}
	printTable(summarize(records))
	if outPath != "" {
		if err := writeResults(outPath, records); err != nil {
			return 1, err
		}
	}
	return code, nil
}

// writeResults writes runs, with the host they ran on and each metric's
// median and quartiles, to path.
func writeResults(path string, runs []runRecord) error {
	file := resultFile{Go: runtime.Version(), Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Summary: summarize(runs), Runs: runs}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runChild runs one workload in a child process, echoing its summary, and
// parses its result line.
func runChild(self, name string, seed int64, secs float64, trace bool) (runRecord, error) {
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", tr)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != nil {
			fmt.Println(string(last))
		}
		last = append(last[:0], sc.Bytes()...)
	}
	rec := runRecord{Workload: name, Seed: seed, Trace: trace}
	if jerr := json.Unmarshal(last, &rec.result); jerr != nil {
		return rec, errors.Join(err, fmt.Errorf("no result line: %w", jerr))
	}
	var exitErr *exec.ExitError
	if err != nil && !(errors.As(err, &exitErr) && !rec.Correct) {
		return rec, err
	}
	return rec, nil
}

func summarize(runs []runRecord) map[string]map[string]spread {
	vals := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for k, m := range r.Metrics {
			vals[r.Workload][k] = append(vals[r.Workload][k], m.Value)
			units[k] = m.Unit
		}
	}
	out := map[string]map[string]spread{}
	for w, ms := range vals {
		out[w] = map[string]spread{}
		for k, xs := range ms {
			q1, q3 := quartiles(xs)
			out[w][k] = spread{Median: median(xs), Q1: q1, Q3: q3, Unit: units[k], N: len(xs)}
		}
	}
	return out
}

func printTable(sum map[string]map[string]spread) {
	fmt.Printf("%-14s %-26s %14s %14s %14s %5s\n", "workload", "metric", "median", "q1", "q3", "n")
	for _, w := range workloads {
		ms := sum[w.name]
		keys := make([]string, 0, len(ms))
		for k := range ms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := ms[k]
			fmt.Printf("%-14s %-26s %14.6g %14.6g %14.6g %5d %s\n", w.name, k, s.Median, s.Q1, s.Q3, s.N, s.Unit)
		}
	}
}

// compareFiles applies BENCHMARK.json's bounds to two sets of runs, a the
// parent and b the change, one row per (metric, workload). Each argument is
// a result file or a glob pattern; the runs of every file it matches are
// pooled. It exits 1 if any row is worse or unresolved.
func compareFiles(aPattern, bPattern string) (int, error) {
	sp, err := loadSpec()
	if err != nil {
		return 2, err
	}
	var runs [2][]runRecord
	for i, pat := range []string{aPattern, bPattern} {
		paths, err := filepath.Glob(pat)
		if err == nil && len(paths) == 0 {
			err = fmt.Errorf("no result file matches %q", pat)
		}
		if err != nil {
			return 2, err
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				return 2, err
			}
			var f resultFile
			if err := json.Unmarshal(b, &f); err != nil {
				return 2, fmt.Errorf("%s: %w", p, err)
			}
			runs[i] = append(runs[i], f.Runs...)
		}
	}
	fmt.Printf("%-14s %-12s %30s %30s %8s %6s %6s  %s\n", "workload", "metric", "a median [q1, q3]", "b median [q1, q3]", "change", "bound", "pairs", "verdict")
	code := 0
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			a, b := values(runs[0], w.name, m.Name), values(runs[1], w.name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("%-14s %-12s missing on one side\n", w.name, m.Name)
				code = 1
				continue
			}
			higher := m.Better == "higher"
			wins, n := pairWins(a, b, higher)
			v, change := judge(a, b, wins, n, m.Bound, higher)
			if v == "worse" || v == "unresolved" {
				code = 1
			}
			won := "-"
			if n > 0 {
				won = fmt.Sprintf("%d/%d", wins, n)
			}
			fmt.Printf("%-14s %-12s %30s %30s %+7.1f%% %5.0f%% %6s  %s\n", w.name, m.Name,
				describeRuns(a), describeRuns(b), 100*change, 100*m.Bound, won, v)
		}
	}
	return code, nil
}

// sample is one run's value of a metric.
type sample struct {
	seed  int64
	value float64
}

// values returns every untraced run of workload's value of metric.
func values(runs []runRecord, workload, metric string) []sample {
	var xs []sample
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			xs = append(xs, sample{r.Seed, m.Value})
		}
	}
	return xs
}

// pairWins pairs the runs of a and b at the same seed (seeds run once on
// each side) and counts the pairs and how many of them b wins.
func pairWins(a, b []sample, higherBetter bool) (wins, n int) {
	once := func(xs []sample) map[int64]float64 {
		m, seen := map[int64]float64{}, map[int64]int{}
		for _, x := range xs {
			m[x.seed] = x.value
			seen[x.seed]++
		}
		for seed, k := range seen {
			if k > 1 {
				delete(m, seed)
			}
		}
		return m
	}
	bs := once(b)
	for seed, va := range once(a) {
		vb, ok := bs[seed]
		if !ok {
			continue
		}
		n++
		if vb < va && !higherBetter || vb > va && higherBetter {
			wins++
		}
	}
	return wins, n
}

// sorted returns the values of xs in ascending order.
func sorted(xs []sample) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.value
	}
	sort.Float64s(out)
	return out
}

func describeRuns(xs []sample) string {
	s := sorted(xs)
	q1, q3 := quartiles(s)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(s), q1, q3)
}

// judge decides one (metric, workload) row; change is b's median relative
// to a's, signed so that positive means worse.
//
//   - better: b's median beats a's by more than a's quartile spread, and
//     either b wins at least nine of every ten pairs of runs at the same
//     seed (ten pairs or more) or every run of b beats every run of a;
//   - unresolved: either side's quartile spread is wider than the bound,
//     unless every run of b reads worse than every run of a (worse);
//   - worse: b's median is worse than a's by more than the bound;
//   - ok otherwise.
func judge(as, bs []sample, wins, pairs int, bound float64, higherBetter bool) (string, float64) {
	a, b := sorted(as), sorted(bs)
	ma, mb := median(a), median(b)
	change := (mb - ma) / ma
	bBetter, bWorse := b[len(b)-1] < a[0], b[0] > a[len(a)-1]
	if higherBetter {
		change = -change
		bBetter, bWorse = bWorse, bBetter
	}
	a1, a3 := quartiles(a)
	b1, b3 := quartiles(b)
	clear := -change*ma > a3-a1
	widest := max((a3-a1)/ma, (b3-b1)/mb)
	switch {
	case clear && (bBetter || pairs >= 10 && 10*wins >= 9*pairs):
		return "better", change
	case widest > bound && bWorse:
		return "worse", change
	case widest > bound:
		return "unresolved", change
	case change > bound:
		return "worse", change
	}
	return "ok", change
}
