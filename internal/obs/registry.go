package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/store"
)

// Registry is a named counter/gauge collection: the one place the ad-hoc
// statistics previously scattered across the build cache, the decode cache,
// and the fuzzer report through. Counters are owned values incremented by
// the instrumented code; gauges are pull-based closures sampled at Snapshot
// time. Snapshot order is sorted by name, so every rendering is
// deterministic.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]func() uint64
}

// Counter is a monotonically increasing metric, safe for concurrent use.
type Counter struct {
	n atomic.Uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]func() uint64),
	}
}

// Counter returns the named counter, creating it on first use. A name is
// either a counter or a gauge, never both; registering across kinds
// panics (a wiring bug, not a runtime condition).
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.gauges[name]; ok {
		panic("obs: metric " + name + " already registered as a gauge")
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers a pull-based metric sampled at Snapshot time.
// Re-registering a name replaces its closure.
func (r *Registry) Gauge(name string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.counters[name]; ok {
		panic("obs: metric " + name + " already registered as a counter")
	}
	r.gauges[name] = fn
}

// Metric is one sampled value.
type Metric struct {
	Name  string
	Value uint64
}

// Snapshot samples every metric, sorted by name.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Value: c.Value()})
	}
	fns := make([]Metric, 0, len(r.gauges))
	gaugeFns := make(map[string]func() uint64, len(r.gauges))
	for name, fn := range r.gauges {
		gaugeFns[name] = fn
	}
	r.mu.Unlock()
	// Sample gauges outside the lock: a gauge closure may itself take
	// locks (e.g. the build cache's).
	for name, fn := range gaugeFns {
		fns = append(fns, Metric{Name: name, Value: fn()})
	}
	out = append(out, fns...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Format renders the snapshot one "name value" per line.
func (r *Registry) Format() string {
	var sb strings.Builder
	for _, m := range r.Snapshot() {
		fmt.Fprintf(&sb, "%-40s %d\n", m.Name, m.Value)
	}
	return sb.String()
}

// RegisterDecodeCache publishes a CPU's decode-cache statistics under
// prefix (e.g. "decode_cache").
func RegisterDecodeCache(r *Registry, prefix string, c *cpu.CPU) {
	stat := func(pick func(cpu.DecodeCacheStats) uint64) func() uint64 {
		return func() uint64 { return pick(c.DecodeCacheStats()) }
	}
	r.Gauge(prefix+".hits", stat(func(s cpu.DecodeCacheStats) uint64 { return s.Hits }))
	r.Gauge(prefix+".misses", stat(func(s cpu.DecodeCacheStats) uint64 { return s.Misses }))
	r.Gauge(prefix+".decoded", stat(func(s cpu.DecodeCacheStats) uint64 { return s.Decoded }))
	r.Gauge(prefix+".invalidations", stat(func(s cpu.DecodeCacheStats) uint64 { return s.Invalidations }))
	r.Gauge(prefix+".remaps", stat(func(s cpu.DecodeCacheStats) uint64 { return s.Remaps }))
	r.Gauge(prefix+".pages", stat(func(s cpu.DecodeCacheStats) uint64 { return s.Pages }))
	r.Gauge(prefix+".entries", stat(func(s cpu.DecodeCacheStats) uint64 { return s.Entries }))
}

// RegisterBlockEngine publishes a CPU's superblock-engine statistics under
// prefix (e.g. "block_engine").
func RegisterBlockEngine(r *Registry, prefix string, c *cpu.CPU) {
	stat := func(pick func(cpu.BlockStats) uint64) func() uint64 {
		return func() uint64 { return pick(c.BlockStats()) }
	}
	r.Gauge(prefix+".blocks", stat(func(s cpu.BlockStats) uint64 { return s.Blocks }))
	r.Gauge(prefix+".formed", stat(func(s cpu.BlockStats) uint64 { return s.Formed }))
	r.Gauge(prefix+".compiled", stat(func(s cpu.BlockStats) uint64 { return s.Compiled }))
	r.Gauge(prefix+".fused", stat(func(s cpu.BlockStats) uint64 { return s.Fused }))
	r.Gauge(prefix+".dispatches", stat(func(s cpu.BlockStats) uint64 { return s.Dispatches }))
	r.Gauge(prefix+".instrs", stat(func(s cpu.BlockStats) uint64 { return s.Instrs }))
	r.Gauge(prefix+".aborts", stat(func(s cpu.BlockStats) uint64 { return s.Aborts }))
	r.Gauge(prefix+".chained", stat(func(s cpu.BlockStats) uint64 { return s.Chained }))
	r.Gauge(prefix+".severed", stat(func(s cpu.BlockStats) uint64 { return s.Severed }))
	r.Gauge(prefix+".cold", stat(func(s cpu.BlockStats) uint64 { return s.Cold }))
}

// RegisterDataTLB publishes an address space's data-TLB counters under
// prefix (e.g. "dtlb").
func RegisterDataTLB(r *Registry, prefix string, as *mem.AddressSpace) {
	r.Gauge(prefix+".hits", func() uint64 { return as.DataTLBStats().Hits })
	r.Gauge(prefix+".misses", func() uint64 { return as.DataTLBStats().Misses })
}

// RegisterStore publishes an artifact store's (or build cache's) counters
// under prefix (e.g. "store"). Anything implementing store.StatsSource
// registers the same way — a single layer, a layered composition, or the
// image cache folding its backing store in.
func RegisterStore(r *Registry, prefix string, src store.StatsSource) {
	stat := func(pick func(store.Stats) uint64) func() uint64 {
		return func() uint64 { return pick(src.Stats()) }
	}
	r.Gauge(prefix+".hits", stat(func(s store.Stats) uint64 { return s.Hits }))
	r.Gauge(prefix+".misses", stat(func(s store.Stats) uint64 { return s.Misses }))
	r.Gauge(prefix+".puts", stat(func(s store.Stats) uint64 { return s.Puts }))
	r.Gauge(prefix+".evictions", stat(func(s store.Stats) uint64 { return s.Evictions }))
	r.Gauge(prefix+".corrupt", stat(func(s store.Stats) uint64 { return s.Corrupt }))
	r.Gauge(prefix+".bytes", stat(func(s store.Stats) uint64 { return s.Bytes }))
	r.Gauge(prefix+".pins", stat(func(s store.Stats) uint64 { return s.Pins }))
	r.Gauge(prefix+".builds", stat(func(s store.Stats) uint64 { return s.Builds }))
}

// RegisterCPU publishes a CPU's cumulative execution counters under prefix
// (e.g. "cpu").
func RegisterCPU(r *Registry, prefix string, c *cpu.CPU) {
	r.Gauge(prefix+".instrs", func() uint64 { return c.Instrs })
	r.Gauge(prefix+".cycles", func() uint64 { return c.Cycles })
}

// RegisterTracer publishes a tracer's occupancy under prefix (e.g.
// "trace").
func RegisterTracer(r *Registry, prefix string, t *Tracer) {
	r.Gauge(prefix+".events", func() uint64 { return uint64(t.Len()) })
	r.Gauge(prefix+".dropped", func() uint64 { return t.Dropped() })
}

// RegisterFork publishes copy-on-write fork statistics under prefix (e.g.
// "fork"): the process-wide fork count (pass kernel.Forks — taking a func
// keeps obs from importing kernel) and as's frame-sharing counters.
func RegisterFork(r *Registry, prefix string, forks func() uint64, as *mem.AddressSpace) {
	r.Gauge(prefix+".forks", forks)
	stat := func(pick func(mem.CowStats) uint64) func() uint64 {
		return func() uint64 { return pick(as.CowStats()) }
	}
	r.Gauge(prefix+".shared_frames", stat(func(s mem.CowStats) uint64 { return s.SharedFrames }))
	r.Gauge(prefix+".cow_breaks", stat(func(s mem.CowStats) uint64 { return s.Breaks }))
	r.Gauge(prefix+".private_frames", stat(func(s mem.CowStats) uint64 { return s.PrivateFrames }))
}
