package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/store"
)

// Registry is a named gauge collection: the one place the ad-hoc
// statistics previously scattered across the build cache, the decode cache,
// and the fuzzer report through. A gauge is a pull-based closure sampled at
// Snapshot time; the instrumented code owns the value it reads. Snapshot
// order is sorted by name, so every rendering is deterministic.
type Registry struct {
	mu     sync.Mutex
	gauges map[string]func() uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{gauges: make(map[string]func() uint64)}
}

// Gauge registers a pull-based metric sampled at Snapshot time.
// Re-registering a name replaces its closure.
func (r *Registry) Gauge(name string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
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
	gaugeFns := make(map[string]func() uint64, len(r.gauges))
	for name, fn := range r.gauges {
		gaugeFns[name] = fn
	}
	r.mu.Unlock()
	// Sample gauges outside the lock: a gauge closure may itself take
	// locks (e.g. the build cache's).
	out := make([]Metric, 0, len(gaugeFns))
	for name, fn := range gaugeFns {
		out = append(out, Metric{Name: name, Value: fn()})
	}
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
	r.Gauge(prefix+".adopted", stat(func(s cpu.BlockStats) uint64 { return s.Adopted }))
	r.Gauge(prefix+".compiled", stat(func(s cpu.BlockStats) uint64 { return s.Compiled }))
	r.Gauge(prefix+".fused", stat(func(s cpu.BlockStats) uint64 { return s.Fused }))
	r.Gauge(prefix+".merged", stat(func(s cpu.BlockStats) uint64 { return s.Merged }))
	r.Gauge(prefix+".exec_slots", stat(func(s cpu.BlockStats) uint64 { return s.ExecSlots }))
	r.Gauge(prefix+".dispatches", stat(func(s cpu.BlockStats) uint64 { return s.Dispatches }))
	r.Gauge(prefix+".instrs", stat(func(s cpu.BlockStats) uint64 { return s.Instrs }))
	r.Gauge(prefix+".aborts", stat(func(s cpu.BlockStats) uint64 { return s.Aborts }))
	r.Gauge(prefix+".side_exits", stat(func(s cpu.BlockStats) uint64 { return s.SideExits }))
	r.Gauge(prefix+".loop_iters", stat(func(s cpu.BlockStats) uint64 { return s.LoopIters }))
	r.Gauge(prefix+".loop_skipped", stat(func(s cpu.BlockStats) uint64 { return s.LoopSkipped }))
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

// RegisterRollback publishes an address space's rollback counters under
// prefix (e.g. "rollback"): how many snapshot restores ran, and how many
// of them had page-table structure to put back.
func RegisterRollback(r *Registry, prefix string, as *mem.AddressSpace) {
	stat := func(pick func(mem.RollbackStats) uint64) func() uint64 {
		return func() uint64 { return pick(as.RollbackStats()) }
	}
	r.Gauge(prefix+".rollbacks", stat(func(s mem.RollbackStats) uint64 { return s.Rollbacks }))
	r.Gauge(prefix+".structural", stat(func(s mem.RollbackStats) uint64 { return s.Structural }))
	r.Gauge(prefix+".journaled", stat(func(s mem.RollbackStats) uint64 { return s.Journaled }))
}

// RegisterPhysmap publishes the demand-zero physmap's footprint under
// prefix (e.g. "physmap"): the window's size in pages, the pages that have
// a frame of their own, and the pages unmapped as holes. The counts are
// computed on read by walking the page table.
func RegisterPhysmap(r *Registry, prefix string, as *mem.AddressSpace) {
	stat := func(pick func(mem.PhysStats) uint64) func() uint64 {
		return func() uint64 { return pick(as.PhysStats()) }
	}
	r.Gauge(prefix+".pages", stat(func(s mem.PhysStats) uint64 { return s.Pages }))
	r.Gauge(prefix+".materialized", stat(func(s mem.PhysStats) uint64 { return s.Materialized }))
	r.Gauge(prefix+".holes", stat(func(s mem.PhysStats) uint64 { return s.Holes }))
}

// RegisterStore publishes an artifact store's (or build cache's) counters
// under prefix (e.g. "store"). Anything implementing store.StatsSource
// registers the same way: the store itself, or the image cache folding
// its store in.
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

// RegisterBoot publishes the process-wide boot counters under prefix (e.g.
// "boot"): fresh machine constructions and boots served as forks of a
// golden kernel (pass kernel.FreshBoots and kernel.ForkedBoots).
func RegisterBoot(r *Registry, prefix string, fresh, forked func() uint64) {
	r.Gauge(prefix+".fresh", fresh)
	r.Gauge(prefix+".forked", forked)
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
