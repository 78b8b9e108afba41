// Package oracle is the differential oracle over the emulator's
// configuration matrix. The decode cache, compiled superblocks and their
// hotness gate, golden-kernel forks, the translations a golden's forks
// share, the fixpoint skip of register-only self-loops, the artifact
// store, multi-worker campaigns and checkpoint resume are all host-side
// fast paths: none may change an emulated cycle, a machine state, an
// attack outcome or a campaign report. The oracle states that once, as one
// axis table (axes), one workload table (workloads) and one comparison
// (compare). A point runs one workload under one value of every axis that
// applies to it and is compared field by field with the workload's
// reference point: the uncached stepper, a fresh WithImage boot, one
// worker, no store, an uninterrupted run and no observers.
//
// go test runs one fixed covering set of the matrix. Part of it is the
// named slices (named): the equivalence tests of bench, kernel, fuzz and
// inject each run one through Slice, so each package still tests its own
// fast paths under its own test names while the comparison stays here.
// TestMatrix runs the rest of the covering set (coveringSet), and
// FuzzMatrix samples other points. Only tests import the package. It
// imports bench, fuzz, attack, patch and module, which a helper in
// internal/testkit could not (diversify's in-package tests import
// testkit), so the packages it imports use it from external test
// packages.
package oracle

import (
	"context"
	"fmt"
	"path"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fuzz"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/store"
)

// The axes of the matrix. Value 0 of each is the reference.
const (
	axEngine = iota
	axBoot
	axObservers
	axWorkers
	axStore
	axResume
	numAxes
)

var axes = [numAxes]struct {
	name   string
	values []string
}{
	axEngine:    {"engine", []string{"uncached", "cache-only", "compiled", "compiled-hot1"}},
	axBoot:      {"boot", []string{"image", "first-fork", "later-fork"}},
	axObservers: {"observers", []string{"none", "tracer+profiler", "multi-probe"}},
	axWorkers:   {"workers", []string{"1", "2", "3", "4"}},
	axStore:     {"store", []string{"none", "cold", "warm"}},
	axResume:    {"resume", []string{"no", "yes"}},
}

// Axis values the runners branch on.
const (
	compiled       = 2 // engine: compiled at the default hot threshold; 3 is hot=1
	imageBoot      = 0
	laterFork      = 2
	tracerProfiler = 1
	multiProbe     = 2
	warmStore      = 2
)

// point selects one value of every axis.
type point [numAxes]int

func (p point) String() string {
	s := make([]string, numAxes)
	for a, v := range p {
		s[a] = axes[a].name + "=" + axes[a].values[v]
	}
	return strings.Join(s, " ")
}

// workers is the number of kernels (or campaign workers) the point runs.
func (p point) workers() int { return p[axWorkers] + 1 }

// field is one compared observation of a run; fields keep run order.
// Fields named "obs:..." exist only under an observer.
type field struct{ name, val string }

type fields []field

func (f *fields) add(name string, v any) { *f = append(*f, field{name, fmt.Sprint(v)}) }

// neutral drops the observer fields.
func (f fields) neutral() fields {
	var out fields
	for _, x := range f {
		if !strings.HasPrefix(x.name, "obs:") {
			out = append(out, x)
		}
	}
	return out
}

// compare reports every field of got that differs from want, naming the
// workload and the point.
func compare(t *testing.T, w *workload, p point, got, want fields) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s [%v]: %d fields, the reference has %d", w.name, p, len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s [%v]: %s differs from the reference: %s", w.name, p, want[i].name, firstDiff(got[i], want[i]))
		}
	}
}

// firstDiff shows two field values around the first byte they differ at.
func firstDiff(got, want field) string {
	if got.name != want.name {
		return fmt.Sprintf("field %q in its place", got.name)
	}
	g, w := got.val, want.val
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	lo := max(0, i-80)
	return fmt.Sprintf("at byte %d\n  got:  ...%s\n  want: ...%s", i, g[lo:min(len(g), i+80)], w[lo:min(len(w), i+80)])
}

// workload is one row of the workload table: a kernel workload (run) or a
// fuzz campaign (campaign), the axis values it runs under (nil: the axis
// does not apply; the first value listed is the reference) and the family
// whose points must pair every two axis values.
type workload struct {
	name, kind string
	cfg        core.Config
	values     [numAxes][]int
	// blocks: the workload runs enough code that a probe-free compiled
	// point must dispatch blocks and a compiled later fork must adopt them.
	blocks bool
	// slow: a compiled run of the workload costs several of another
	// campaign, and stepping it (an engine below compiled, or an exec
	// probe) many compiled runs, so the covering set weighs its points
	// fourfold and its stepped ones fortyfold, and pairs those values
	// elsewhere where it can.
	slow     bool
	run      func(t *testing.T, r *rig) fields
	campaign *fuzz.Options
}

func (w *workload) ref(obsv int) point {
	var p point
	for a, vs := range w.values {
		if vs != nil {
			p[a] = vs[0]
		}
	}
	p[axObservers] = obsv
	return p
}

// valid reports whether w runs under p.
func (w *workload) valid(p point) bool {
	for a, v := range p {
		if !slices.Contains(w.values[a], v) && (w.values[a] != nil || v != 0) {
			return false
		}
	}
	// A store feeds golden boots only; a checkpointed campaign cannot trace.
	return (p[axStore] == 0 || p[axBoot] != imageBoot) &&
		(p[axResume] == 0 || p[axObservers] != tracerProfiler)
}

// refs memoizes each workload's reference runs by observer value.
var refs = map[string]fields{}

// reference returns w's reference run under observers obsv. An observed
// reference must agree with the unobserved one on every other field.
func reference(t *testing.T, w *workload, obsv int) fields {
	t.Helper()
	key := fmt.Sprint(w.name, "/", obsv)
	if f, ok := refs[key]; ok {
		return f
	}
	p := w.ref(obsv)
	f := runPoint(t, w, p)
	if obsv != 0 {
		compare(t, w, p, f.neutral(), reference(t, w, 0))
	}
	refs[key] = f
	return f
}

// check runs w at p and compares it with the reference.
func check(t *testing.T, w *workload, p point) {
	t.Helper()
	want := reference(t, w, p[axObservers])
	compare(t, w, p, runPoint(t, w, p), want)
}

// noStoreCache is the build cache of every point without a store. Its
// images are built once per process; installing it again drops the golden
// kernels, so the next cached boot is a golden's first fork.
var noStoreCache = core.NewImageCache(nil)

// useStore installs the point's build cache: none, an empty disk store, or
// a store a previous "process" (another cache over the same directory)
// filled with cfg's image.
func useStore(t *testing.T, p point, cfg core.Config) {
	t.Helper()
	if p[axStore] == 0 {
		kernel.SetBuildCache(noStoreCache)
		return
	}
	d := openDisk(t)
	kernel.SetBuildCache(core.NewImageCache(d))
	if p[axStore] == warmStore {
		if _, err := kernel.Boot(cfg, kernel.WithCache()); err != nil {
			t.Fatal(err)
		}
		kernel.SetBuildCache(core.NewImageCache(d))
	}
}

func openDisk(t *testing.T) *store.Disk {
	t.Helper()
	d, err := store.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// setEngine configures a CPU for an engine value.
func setEngine(c *cpu.CPU, engine int) {
	c.SetDecodeCache(engine > 0)
	c.SetBlockEngine(engine >= compiled)
	hot := cpu.DefaultBlockHotThreshold
	if engine > compiled {
		hot = 1
	}
	c.SetBlockHotThreshold(hot)
}

// runPoint runs w at p and asserts that the point's fast paths ran.
func runPoint(t *testing.T, w *workload, p point) fields {
	t.Helper()
	useStore(t, p, w.cfg)
	if p[axBoot] == laterFork {
		// A golden's first fork shares nothing (cpu.SharedBlocks); its
		// second runs the workload first and publishes its translations.
		if _, err := kernel.Boot(w.cfg, kernel.WithCache()); err != nil {
			t.Fatal(err)
		}
	}
	var f fields
	var ks []*kernel.Kernel
	if w.campaign != nil {
		f, ks = runCampaign(t, w, p)
	} else {
		if p[axBoot] == laterFork {
			pub := p
			pub[axObservers], pub[axWorkers] = 0, 0
			w.run(t, &rig{t: t, p: pub})
		}
		rigs := make([]*rig, p.workers())
		outs := make([]fields, len(rigs))
		done := make([]bool, len(rigs))
		run := func(i int) {
			rigs[i] = &rig{t: t, p: p}
			outs[i] = w.run(t, rigs[i])
			rigs[i].observed(w, &outs[i])
			done[i] = true
		}
		if len(rigs) == 1 {
			run(0)
		} else {
			var wg sync.WaitGroup
			for i := range rigs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					run(i)
				}()
			}
			wg.Wait()
			// A run that called t.Fatal ended its goroutine, not the test.
			if slices.Contains(done, false) {
				t.FailNow()
			}
		}
		for i, r := range rigs {
			if i > 0 {
				compare(t, w, p, outs[i], outs[0])
			}
			ks = append(ks, r.kernels...)
		}
		f = outs[0]
	}
	var bs cpu.BlockStats
	for _, k := range ks {
		s := k.CPU.BlockStats()
		bs.Formed += s.Formed
		bs.Dispatches += s.Dispatches
		bs.Chained += s.Chained
		bs.Instrs += s.Instrs
		bs.Adopted += s.Adopted
		bs.LoopSkipped += s.LoopSkipped
	}
	armed := p[axEngine] >= compiled && w.blocks && p[axObservers] == 0 // exec probes disarm blocks
	switch {
	case p[axEngine] < compiled && bs.Instrs != 0:
		t.Errorf("%s [%v]: the disabled block engine ran %d instructions", w.name, p, bs.Instrs)
	case armed && (bs.Dispatches == 0 || p[axEngine] > compiled && bs.Chained == 0): // hot=1 forms at once
		t.Errorf("%s [%v]: blocks dispatched %d times, %d chained", w.name, p, bs.Dispatches, bs.Chained)
	case armed && p[axBoot] != laterFork && bs.Formed == 0: // nothing was published to adopt
		t.Errorf("%s [%v]: the block engine formed no translation", w.name, p)
	case armed && p[axBoot] == laterFork && bs.Adopted == 0:
		t.Errorf("%s [%v]: the later fork adopted no shared translation", w.name, p)
	case armed && w.campaign != nil && bs.LoopSkipped == 0:
		t.Errorf("%s [%v]: no self-loop pass was fast-forwarded", w.name, p)
	}
	if n := kernel.BuildCache().Stats().Builds; p[axStore] == warmStore && n != 0 {
		t.Errorf("%s [%v]: a warm store ran %d link builds", w.name, p, n)
	}
	return f
}

// runCampaign runs a fuzz workload at p: a later fork runs after a sibling
// campaign's first batch; a resumed one finishes from the checkpoint of a
// campaign that stopped after its first batch. It returns the kernels of
// the campaign and of its first part.
func runCampaign(t *testing.T, w *workload, p point) (fields, []*kernel.Kernel) {
	t.Helper()
	start := func(o fuzz.Options) (*fuzz.Fuzzer, []*kernel.Kernel) {
		f, err := fuzz.New(o)
		if err != nil {
			t.Fatal(err)
		}
		ks, err := f.Kernels()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range ks {
			setEngine(k.CPU, p[axEngine])
		}
		return f, ks
	}
	run := func(f *fuzz.Fuzzer) *fuzz.Report {
		rep, err := f.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	opts := *w.campaign
	opts.Workers = p.workers()
	if p[axBoot] == laterFork {
		pub := opts
		pub.Iters, pub.Workers = fuzz.BatchSize, 1
		f, _ := start(pub)
		run(f)
	}
	var firstKs []*kernel.Kernel
	var instrs, cycles uint64 // retired by the campaign, both parts of a resumed one
	if p[axResume] != 0 {
		opts.Checkpoint = openDisk(t)
		first := opts
		first.Iters = fuzz.BatchSize
		var f *fuzz.Fuzzer
		f, firstKs = start(first)
		run(f)
		instrs, cycles = f.Retired()
	}
	opts.Trace = p[axObservers] == tracerProfiler
	f, ks := start(opts)
	var profs []*obs.Profiler
	if opts.Trace {
		for _, k := range ks {
			pr := obs.NewProfiler(k.Img)
			pr.Attach(k.CPU)
			profs = append(profs, pr)
		}
	}
	rep := run(f)
	i, c := f.Retired()
	var out fields
	out.add("report", rep.String())
	out.add("retired instrs, cycles", fmt.Sprint(instrs+i, ", ", cycles+c))
	if opts.Trace {
		if len(rep.Trace) == 0 {
			t.Errorf("%s [%v]: the traced campaign recorded no event", w.name, p)
		}
		out.add("obs:trace", obs.TraceText(rep.Trace))
	}
	for i, pr := range profs {
		if err := pr.CheckConservation(); err != nil {
			t.Errorf("%s [%v]: worker %d: %v", w.name, p, i, err)
		}
	}
	return out, append(ks, firstKs...)
}

// named are the slices of the matrix that the equivalence tests of bench,
// kernel, fuzz and inject run, by test name (Slice). A selection is a
// path.Match pattern over workload names ("table1/*") followed by the axis
// values the workloads it picks run at ("engine=compiled,compiled-hot1"):
// every combination of the named values, at the reference value of each
// axis not named. TestMatrix counts these points as run and adds what the
// covering set still needs.
var named = map[string][]string{
	"TestTable1SuiteCacheEquivalence":     {"table1/* engine=cache-only observers=none,multi-probe"},
	"TestAttackScenariosCacheEquivalence": {"attack/*/* engine=cache-only"},
	"TestFuzzReportCacheInvariance":       {"fuzz/vanilla-seed17 engine=cache-only"},
	"TestTable1SuiteBlockEquivalence":     {"table1/* engine=compiled,compiled-hot1 boot=image,first-fork"},
	"TestAttackScenariosBlockEquivalence": {"attack/*/* engine=compiled,compiled-hot1 boot=image,first-fork"},
	// The cached stepper and both compiled engines, at one and four
	// workers. The 200-iteration campaigns' reference is the block engine
	// at one worker; the seed-17 campaign's is the uncached stepper.
	"TestFuzzReportBlockInvariance": {
		"fuzz/vanilla-seed17 engine=cache-only,compiled,compiled-hot1 workers=1,4",
		"fuzz/sfix-inject-seed42 engine=cache-only,compiled,compiled-hot1 workers=1,4",
		"fuzz/vanilla-seed42 engine=cache-only,compiled,compiled-hot1 workers=1,4",
	},
	"TestTracedTable1SuiteBitIdentical":     {"table1/* engine=cache-only,compiled observers=tracer+profiler"},
	"TestAttackScenariosTracedBitIdentical": {"attack/JITROP/MPX+X engine=cache-only,compiled observers=tracer+profiler"},
	// The injected campaign's trace carries fault events.
	"TestFuzzTraceWorkerInvariance":  {"fuzz/vanilla-inject-seed17 engine=cache-only,compiled observers=tracer+profiler workers=4"},
	"TestMultiProbeCacheEquivalence": {"table1/MPX+X engine=cache-only,compiled observers=multi-probe"},
	// Four forks of one golden run the suite at once: as its first forks
	// they race to form and publish translations, as later forks they
	// adopt what a sibling published.
	"TestConcurrentForksShareTranslations": {"table1/* engine=compiled,compiled-hot1 boot=first-fork,later-fork workers=4"},

	// Each golden fork, the first and one after a sibling published its
	// translations, against a fresh WithImage boot, in all 16 configs.
	"TestGoldenBootEquivalence": {"ladder/* boot=first-fork,later-fork"},
	// A fresh compile through WithImage (what Boot with no options does)
	// against a WithCache fork.
	"TestBootOptionSourcesEquivalent": {"ladder/SFI boot=first-fork"},
	// The ladder's image field digests what a boot takes from its image.
	"TestBootCachedEquivalentToBoot": {"ladder/SFI+X boot=first-fork", "ladder/MPX+D boot=first-fork", "ladder/HideM boot=first-fork"},
	// A Kernel.Fork of a warmed, rolled-back kernel runs the ladder as that
	// kernel does, under every engine.
	"TestForkEquivalence": {
		"ladder/Vanilla engine=uncached,cache-only,compiled,compiled-hot1 boot=first-fork",
		"ladder/MPX+X engine=uncached,cache-only,compiled,compiled-hot1 boot=first-fork",
	},
	// Kprobe, livepatch, module reload and Restore rewrite text the engine
	// has run.
	"TestSelfModBlockEngineParity": {"selfmod engine=cache-only,compiled,compiled-hot1 boot=image,later-fork"},

	// The SFI+X campaign run again, at every worker count, and from a
	// store another process filled (no link build, the same report), at
	// the block engine campaigns run under by default.
	"TestDeterministicReport":              {"fuzz/sfix-inject-seed42-150iters"},
	"TestWorkerCountInvariance":            {"fuzz/sfix-inject-seed42-150iters workers=2,3,4"},
	"TestWarmStartZeroBuildsByteIdentical": {"fuzz/sfix-inject-seed42-150iters store=cold,warm workers=1,4"},

	// An injector firing every 7, 64 and 512 instructions, across snapshot
	// restores, must fault, trap and leave the machine as the uncached
	// stepper does: the engines honour the ticker's deadline to the
	// instruction.
	"TestInjectorDeadlineEquivalence": {"inject/* engine=cache-only,compiled,compiled-hot1 boot=image,first-fork"},
}

// part is what one selection runs on one workload: a subtest named for
// the part of the workload's name after the pattern's last "/" ahead of
// any wildcard.
type part struct {
	w   *workload
	sub string
	pts []point
}

// expand parses a selection. An unknown axis, value or pattern, or a point
// a workload cannot run under, is an error.
func expand(sel string) ([]part, error) {
	pattern, settings, _ := strings.Cut(sel, " ")
	var vals [numAxes][]int
	for _, s := range strings.Fields(settings) {
		name, vs, _ := strings.Cut(s, "=")
		a := 0
		for a < numAxes && axes[a].name != name {
			a++
		}
		if a == numAxes {
			return nil, fmt.Errorf("%q: no axis %q", sel, name)
		}
		for _, v := range strings.Split(vs, ",") {
			i := slices.Index(axes[a].values, v)
			if i < 0 {
				return nil, fmt.Errorf("%q: axis %s has no value %q", sel, name, v)
			}
			vals[a] = append(vals[a], i)
		}
	}
	stem := pattern[:strings.IndexAny(pattern+"*", "*?[\\")]
	stem = stem[:strings.LastIndex(stem, "/")+1]
	var parts []part
	for wi := range workloads {
		w := &workloads[wi]
		if ok, err := path.Match(pattern, w.name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		pts := []point{w.ref(0)}
		for a, vs := range vals {
			if vs == nil {
				continue
			}
			var next []point
			for _, p := range pts {
				for _, v := range vs {
					p[a] = v
					next = append(next, p)
				}
			}
			pts = next
		}
		for _, p := range pts {
			if !w.valid(p) {
				return nil, fmt.Errorf("%q: %s does not run at [%v]", sel, w.name, p)
			}
		}
		parts = append(parts, part{w, strings.TrimPrefix(w.name, stem), pts})
	}
	if parts == nil {
		return nil, fmt.Errorf("%q: no workload matches", sel)
	}
	return parts, nil
}

// Slice runs the slice of the matrix named after the calling test (named),
// one subtest per workload, each point compared with the workload's
// reference; a reference point runs again, as a fresh run.
func Slice(t *testing.T) {
	t.Helper()
	sels, ok := named[t.Name()]
	if !ok {
		t.Fatalf("no slice of the matrix is named %s", t.Name())
	}
	defer kernel.SetBuildCache(kernel.SetBuildCache(noStoreCache))
	for _, sel := range sels {
		parts, err := expand(sel)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range parts {
			t.Run(pt.sub, func(t *testing.T) {
				for _, p := range pt.pts {
					check(t, pt.w, p)
				}
			})
		}
	}
}
