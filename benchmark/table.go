package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/kernel"
)

// tableIters is krxbench's default -iters, which `krxbench -table1 -table2`
// passes to both tables.
const tableIters = 10

// tableWarmups is the number of untimed sweeps before timing starts: the
// first sweep after set-up still forms and compiles the hot blocks.
const tableWarmups = 2

// sweep renders Table 1 and Table 2 through the public entry points,
// byte for byte what `krxbench -table1 -table2` prints.
func sweep() (string, error) {
	t1, err := bench.RunTable1(tableIters)
	if err != nil {
		return "", err
	}
	t2, err := bench.RunTable2(tableIters)
	if err != nil {
		return "", err
	}
	return t1.Format() + "\n" + t2.Format() + "\n", nil
}

// Table 1/2 take no seed: the tables are fixed, so the seed changes
// nothing and every run is checked against the stored reference.
func runTable(rc runConfig) *outcome {
	out := newOutcome(rc)
	for i := 0; i < rc.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := coldBoot(core.Presets()); err != nil {
			out.attempted++
			out.fail(1, fmt.Errorf("set-up: %w", err))
			return out
		}
		out.setups = append(out.setups, time.Since(t0))
	}
	var want string
	for i := 0; i < tableWarmups; i++ {
		text, err := sweep()
		if err == nil && want == "" {
			want, err = text, checkReference("table-sweep", text)
		}
		if err != nil {
			out.attempted++
			out.fail(1, fmt.Errorf("warm-up sweep: %w", err))
			return out
		}
	}
	start := time.Now()
	for n := 0; rc.more(start, n); n++ {
		out.attempted++
		t0 := time.Now()
		text, err := sweep()
		elapsed := time.Since(t0)
		out.ops = append(out.ops, elapsed)
		if err == nil && text != want {
			err = errors.New("sweep output differs from the reference")
		}
		if err == nil && rc.trace {
			t1 := time.Now()
			var traced string
			traced, err = tracedSweep(out.tr, out.ctr, len(out.ops)-1)
			out.ctr.pair(elapsed, time.Since(t1))
			if err == nil && traced != want {
				err = errors.New("traced sweep output differs from the untraced one")
			}
		}
		if err != nil {
			out.fail(1, err)
		}
	}
	out.op = median(seconds(out.ops))
	return out
}

// coldBoot replaces the process build cache with an empty one and boots
// every configuration once: the builds and first boots a new process pays
// before its first result. The boots run one at a time so that no more than
// one set-up kernel is alive at once.
func coldBoot(cfgs []core.Config) error {
	kernel.SetBuildCache(core.NewImageCache(nil))
	for _, cfg := range cfgs {
		if _, err := kernel.Boot(cfg, kernel.WithCache()); err != nil {
			return err
		}
	}
	return nil
}

// tracedSweep renders both tables through code the benchmark owns,
// shaped like bench.RunTable1/RunTable2: one goroutine (and lane) per
// configuration column, with spans around each boot, each column's Table 1
// pass, and each Table 2 transaction. It must render the same bytes.
func tracedSweep(tr *tracer, ctr *counters, unit int) (string, error) {
	root := tr.lane(noSpan)
	root.setUnit(unit)
	s := root.begin("bench.sweep")
	stats0 := kernel.BuildCache().Stats()
	t1, err := tracedTable1(tr, root.ref(s), ctr, unit)
	var t2 *bench.Table
	if err == nil {
		t2, err = tracedTable2(tr, root.ref(s), ctr, unit)
	}
	ctr.addBuilds(stats0, kernel.BuildCache().Stats())
	root.end(s)
	if err != nil {
		return "", err
	}
	return t1.Format() + "\n" + t2.Format() + "\n", nil
}

// tracedColumns runs measure once per configuration, concurrently, each on
// its own lane under parent, and returns the columns in input order.
func tracedColumns(tr *tracer, parent spanRef, unit int, cfgs []core.Config,
	measure func(l *lane, k *kernel.Kernel) ([]float64, error), ctr *counters) ([][]float64, error) {
	cols := make([][]float64, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		l := tr.lane(parent)
		l.setUnit(unit)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := l.begin("bench.column")
			defer l.end(c)
			b := l.begin("kernel.boot")
			k, err := kernel.Boot(cfg, kernel.WithCache())
			l.end(b)
			if err != nil {
				errs[i] = err
				return
			}
			cols[i], errs[i] = measure(l, k)
			ctr.addKernel(k)
			ctr.addInstrs(k)
		}()
	}
	wg.Wait()
	return cols, errors.Join(errs...)
}

// tracedTable1 is bench.RunTable1 with spans.
func tracedTable1(tr *tracer, parent spanRef, ctr *counters, unit int) (*bench.Table, error) {
	ops := bench.MicroOps()
	cfgs := bench.Table1Configs()
	t := &bench.Table{Title: "Table 1: LMBench micro-benchmark overhead (%)"}
	for _, op := range ops {
		t.RowNames = append(t.RowNames, op.Name)
		t.RowKinds = append(t.RowKinds, op.Kind)
	}
	cols, err := tracedColumns(tr, parent, unit, append([]core.Config{core.Vanilla}, cfgs...),
		func(l *lane, k *kernel.Kernel) ([]float64, error) {
			s := l.begin("bench.table1_pass")
			defer l.end(s)
			return measureOps(k, bench.MicroOps())
		}, ctr)
	if err != nil {
		return nil, err
	}
	base := cols[0]
	t.Baseline = base
	t.Overhead = make([][]float64, len(ops))
	for i := range t.Overhead {
		t.Overhead[i] = make([]float64, len(cfgs))
	}
	for ci, cfg := range cfgs {
		t.Configs = append(t.Configs, cfg.Name())
		for ri := range ops {
			t.Overhead[ri][ci] = 100 * (cols[ci+1][ri] - base[ri]) / base[ri]
		}
	}
	return t, nil
}

// measureOps measures every micro-op on k exactly as bench's Table 1
// column does: clean fd table, set-up, one warm-up run, tableIters timed
// runs averaged.
func measureOps(k *kernel.Kernel, ops []bench.MicroOp) ([]float64, error) {
	out := make([]float64, len(ops))
	for i, op := range ops {
		for fd := uint64(0); fd < 64; fd++ {
			k.Syscall(kernel.SysClose, fd)
		}
		if op.Setup != nil {
			if err := op.Setup(k); err != nil {
				return nil, fmt.Errorf("%s: %w", op.Name, err)
			}
		}
		if _, err := op.Run(k); err != nil {
			return nil, fmt.Errorf("%s: %w", op.Name, err)
		}
		var total uint64
		for n := 0; n < tableIters; n++ {
			c, err := op.Run(k)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", op.Name, err)
			}
			total += c
		}
		out[i] = float64(total) / float64(tableIters)
	}
	return out, nil
}

// tracedTable2 is bench.RunTable2 with spans.
func tracedTable2(tr *tracer, parent spanRef, ctr *counters, unit int) (*bench.Table, error) {
	wls := bench.Workloads()
	cfgs := bench.Table2Configs()
	t := &bench.Table{Title: "Table 2: Phoronix Test Suite overhead (%)"}
	cols, err := tracedColumns(tr, parent, unit, append([]core.Config{core.Vanilla}, cfgs...),
		func(l *lane, k *kernel.Kernel) ([]float64, error) {
			wls := bench.Workloads()
			out := make([]float64, len(wls))
			for i, w := range wls {
				txn := func() (uint64, error) {
					s := l.begin("bench.table2_txn")
					defer l.end(s)
					c, err := w.Txn(k)
					if err != nil {
						return 0, fmt.Errorf("%s: %w", w.Name, err)
					}
					return c, nil
				}
				if _, err := txn(); err != nil { // warm-up
					return nil, err
				}
				var total uint64
				for n := 0; n < tableIters; n++ {
					c, err := txn()
					if err != nil {
						return nil, err
					}
					total += c
				}
				out[i] = float64(total) / float64(tableIters)
			}
			return out, nil
		}, ctr)
	if err != nil {
		return nil, err
	}
	base := cols[0]
	t.Baseline = base
	for _, w := range wls {
		t.RowNames = append(t.RowNames, w.Name)
		t.RowKinds = append(t.RowKinds, bench.Latency)
	}
	t.Overhead = make([][]float64, len(wls))
	for i := range t.Overhead {
		t.Overhead[i] = make([]float64, len(cfgs))
	}
	for ci, cfg := range cfgs {
		t.Configs = append(t.Configs, cfg.Name())
		for ri, w := range wls {
			user := base[ri] * w.UserShare / (1 - w.UserShare)
			totalBase := base[ri] + user
			totalCfg := cols[ci+1][ri] + user
			t.Overhead[ri][ci] = 100 * (totalCfg - totalBase) / totalBase
		}
	}
	return t, nil
}
