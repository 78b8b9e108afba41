// Command benchmark measures the kR^X reproduction's host cost on the paths
// its users run: coverage-guided krxfuzz campaigns under SFI+X with fault
// injection, the same on the Vanilla kernel, the krxbench Table 1 + Table 2
// sweep, and the krxattack ladder. Each workload drives the program through
// the public entry points the CLIs use, checks every output, and prints its
// metrics; the last line of standard output is one JSON object.
//
// Usage (from the repository root, or `go run .` in this directory):
//
//	bash benchmark/run.sh --workload fuzz-sfix --seed 42 --seconds 10 --trace 0
//	bash benchmark/run.sh                        # every workload, one child process each
//	bash benchmark/run.sh --runs 5 --out a.json  # five seeds per workload, results saved
//	bash benchmark/run.sh --compare a.json b.json
//
// With --trace 1 the run also drives each workload through code of the
// benchmark's own with a span around every call into a layer,
// prints the per-layer metrics instead of the end-to-end ones, and writes
// the spans to trace-<workload>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name        string
	defaultSeed int64
	run         func(rc runConfig) *outcome
}

var workloads = []workload{
	{"fuzz-sfix", 42, func(rc runConfig) *outcome { return runFuzz(rc, false) }},
	{"fuzz-vanilla", 42, func(rc runConfig) *outcome { return runFuzz(rc, true) }},
	{"table-sweep", 0, runTable},
	{"attack-ladder", 101, runLadder},
}

func workloadByName(name string) workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return workload{}
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (fuzz-sfix, fuzz-vanilla, table-sweep, attack-ladder); empty runs each in its own child process")
	seed := fs.Int64("seed", 0, "workload seed: the fuzz workloads start their campaign portfolio at it (default 42), attack-ladder diversifies with it (default 101), table-sweep takes none")
	secs := fs.Float64("seconds", 10, "length of each run's timed loop")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and trace-<workload>.json")
	runs := fs.Int("runs", 1, "without --workload: runs per workload, seeds counting up from --seed")
	outPath := fs.String("out", "", "write every run's result, plus per-metric median and quartiles, to this JSON file")
	compare := fs.Bool("compare", false, "compare two --out files (arguments: a.json b.json) under the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return 2, fmt.Errorf("--compare takes two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	case fs.NArg() > 0:
		return 2, fmt.Errorf("unexpected arguments %q", fs.Args())
	case *trace != 0 && *trace != 1:
		return 2, fmt.Errorf("--trace takes 0 or 1")
	case *secs <= 0:
		return 2, fmt.Errorf("--seconds must be positive")
	case *name == "":
		return runAll(*seed, seedSet, *secs, *trace == 1, *runs, *outPath)
	}
	w := workloadByName(*name)
	if w.run == nil {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	rc := runConfig{
		seed:      w.defaultSeed,
		window:    time.Duration(*secs * float64(time.Second)),
		trace:     *trace == 1,
		fuzzIters: defaultFuzzIters,
		setups:    5,
	}
	if seedSet {
		rc.seed = *seed
	}
	rc.atDefault = rc.seed == w.defaultSeed

	o := w.run(rc)
	res := result{
		Correct:   len(o.problems) == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    min(o.failed, o.attempted),
	}
	var spans []spanStat
	if rc.trace {
		spans = o.tr.stats()
		res.Metrics = layerMetrics(spans, o.ctr)
	} else {
		res.Metrics = endToEnd(o)
	}
	printSummary(w.name, rc, o, res)
	if rc.trace {
		path := "trace-" + w.name + ".json"
		if err := writeChrome(path, spans); err != nil {
			return 1, err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	if *outPath != "" {
		if err := writeResults(*outPath, []runRecord{{Workload: w.name, Seed: rc.seed, Trace: rc.trace, result: res}}); err != nil {
			return 1, err
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// printSummary prints the human-readable lines that precede the result:
// what ran, every timing with its tail and sample count, every metric with
// its unit, and every failed check.
func printSummary(name string, rc runConfig, o *outcome, res result) {
	mode := "untraced"
	if rc.trace {
		mode = "traced"
	}
	fmt.Printf("workload %s  seed %d  %s  GOMAXPROCS %d  %s\n", name, rc.seed, mode, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("  timed units  %s\n", describe(seconds(o.ops), 1e3, "ms"))
	if o.op > 0 {
		fmt.Printf("  per op       %.4g ms, %.4g ops/s\n", o.op*1e3, 1/o.op)
	}
	fmt.Printf("  set-up       %s\n", describe(seconds(o.setups), 1, "s"))
	fmt.Printf("  ops          %d attempted, %d failed\n", res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Printf("  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, p := range o.problems {
		fmt.Printf("  CHECK FAILED: %s\n", strings.ReplaceAll(p, "\n", "\n    "))
	}
}
