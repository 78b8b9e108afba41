package main

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/inject"
	"repro/internal/sfi"
)

// TestStatsCPUCountersCumulative: the -stats CPU counters cover the whole
// campaign, not the state the last snapshot restore left behind. The block
// engine's instruction count is worker 0's alone, so at any worker count it
// can be no larger than the campaign's retired instructions; at one worker
// the campaign counter also covers exactly that worker's CPU.
func TestStatsCPUCountersCumulative(t *testing.T) {
	plan := inject.DefaultPlan(42)
	for _, tc := range []struct {
		name string
		opts fuzz.Options
	}{
		{"vanilla", fuzz.Options{Config: core.Config{Seed: 42}}},
		{"sfix-inject", fuzz.Options{Config: core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Seed: 42}, Plan: &plan}},
	} {
		for _, workers := range []int{1, 4} {
			opts := tc.opts
			opts.Iters, opts.Seed, opts.Workers = 128, 42, workers
			f, err := fuzz.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.RunContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			reg, err := statsRegistry(f)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]uint64{}
			for _, m := range reg.Snapshot() {
				got[m.Name] = m.Value
			}
			instrs, blockInstrs := got["cpu.instrs"], got["block_engine.instrs"]
			if blockInstrs == 0 {
				t.Fatalf("%s workers=%d: no instruction ran in a block", tc.name, workers)
			}
			if instrs < blockInstrs {
				t.Errorf("%s workers=%d: cpu.instrs %d < block_engine.instrs %d", tc.name, workers, instrs, blockInstrs)
			}
			if got["cpu.cycles"] < instrs {
				t.Errorf("%s workers=%d: cpu.cycles %d < cpu.instrs %d", tc.name, workers, got["cpu.cycles"], instrs)
			}
		}
	}
}
