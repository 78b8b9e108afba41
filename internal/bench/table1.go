// Package bench implements the evaluation harness: the LMBench-style
// micro-benchmarks of Table 1, the Phoronix-style macro workloads of
// Table 2, the §7.2 instrumentation statistics, and the ablation sweeps
// called out in DESIGN.md. All measurements are in emulated cycles; the
// reported numbers are percentage overheads over the vanilla kernel, like
// the paper's tables.
package bench

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/core"
	"repro/internal/kernel"
)

// OpKind distinguishes the two Table 1 sections.
type OpKind int

// Operation kinds.
const (
	Latency OpKind = iota
	Bandwidth
)

// MicroOp is one Table 1 row: Run performs a single operation against a
// booted kernel and returns the cycles consumed (only the timed syscalls
// count; setup calls are untimed, as in LMBench).
type MicroOp struct {
	Name  string
	Kind  OpKind
	Setup func(k *kernel.Kernel) error
	Run   func(k *kernel.Kernel) (uint64, error)
}

// timed accumulates the cycles of one syscall, failing loudly on kernel
// violations (a benchmark must never trip the protection).
func timed(r *kernel.SyscallResult, what string) (uint64, error) {
	if r.Failed {
		return 0, fmt.Errorf("bench: %s failed: %v (trap %v)", what, r.Run.Reason, r.Run.Trap)
	}
	return r.Run.Cycles, nil
}

func openTestFile(k *kernel.Kernel) (uint64, error) {
	if err := k.WriteUser(0, append([]byte("testfile"), 0)); err != nil {
		return 0, err
	}
	r := k.Syscall(kernel.SysOpen, kernel.UserBuf)
	if r.Failed || int64(r.Ret) < 0 {
		return 0, fmt.Errorf("bench: open failed (ret %d)", int64(r.Ret))
	}
	return r.Ret, nil
}

// MicroOps returns the Table 1 rows.
func MicroOps() []MicroOp {
	pair := func(a, b uint64, args ...uint64) func(*kernel.Kernel) (uint64, error) {
		return func(k *kernel.Kernel) (uint64, error) {
			c1, err := timed(k.Syscall(a, args...), "op")
			if err != nil {
				return 0, err
			}
			c2, err := timed(k.Syscall(b, args...), "op")
			if err != nil {
				return 0, err
			}
			return c1 + c2, nil
		}
	}
	ops := []MicroOp{
		{
			Name: "syscall()", Kind: Latency,
			Run: func(k *kernel.Kernel) (uint64, error) {
				return timed(k.Syscall(kernel.SysNull), "null")
			},
		},
		{
			Name: "open()/close()", Kind: Latency,
			Setup: func(k *kernel.Kernel) error {
				return k.WriteUser(0, append([]byte("testfile"), 0))
			},
			Run: func(k *kernel.Kernel) (uint64, error) {
				r := k.Syscall(kernel.SysOpen, kernel.UserBuf)
				c1, err := timed(r, "open")
				if err != nil {
					return 0, err
				}
				c2, err := timed(k.Syscall(kernel.SysClose, r.Ret), "close")
				return c1 + c2, err
			},
		},
		{
			Name: "read()/write()", Kind: Latency,
			Run: func(k *kernel.Kernel) (uint64, error) {
				fd, err := openTestFile(k)
				if err != nil {
					return 0, err
				}
				defer k.Syscall(kernel.SysClose, fd)
				c1, err := timed(k.Syscall(kernel.SysRead, fd, kernel.UserBuf+4096, 64), "read")
				if err != nil {
					return 0, err
				}
				c2, err := timed(k.Syscall(kernel.SysWrite, fd, kernel.UserBuf+4096, 64), "write")
				return c1 + c2, err
			},
		},
		{
			Name: "select(10 fds)", Kind: Latency,
			Setup: setupFDs(10),
			Run: func(k *kernel.Kernel) (uint64, error) {
				return timed(k.Syscall(kernel.SysSelect, 10), "select")
			},
		},
		{
			Name: "select(100 TCP fds)", Kind: Latency,
			Setup: setupFDs(60),
			Run: func(k *kernel.Kernel) (uint64, error) {
				// Scaled to the simulated fd-table size (60 of 64 slots).
				return timed(k.Syscall(kernel.SysSelect, 60), "select")
			},
		},
		{
			Name: "fstat()", Kind: Latency,
			Run: func(k *kernel.Kernel) (uint64, error) {
				fd, err := openTestFile(k)
				if err != nil {
					return 0, err
				}
				defer k.Syscall(kernel.SysClose, fd)
				return timed(k.Syscall(kernel.SysFstat, fd, kernel.UserBuf+2048), "fstat")
			},
		},
		{
			Name: "mmap()/munmap()", Kind: Latency,
			Run: func(k *kernel.Kernel) (uint64, error) {
				r := k.Syscall(kernel.SysMmap, 16)
				c1, err := timed(r, "mmap")
				if err != nil {
					return 0, err
				}
				c2, err := timed(k.Syscall(kernel.SysMunmap, r.Ret, 16), "munmap")
				return c1 + c2, err
			},
		},
		{Name: "fork()+exit()", Kind: Latency, Run: pair(kernel.SysFork, kernel.SysExit)},
		{
			Name: "fork()+execve()", Kind: Latency,
			Setup: func(k *kernel.Kernel) error {
				return k.WriteUser(0, append([]byte("testfile"), 0))
			},
			Run: func(k *kernel.Kernel) (uint64, error) {
				c1, err := timed(k.Syscall(kernel.SysFork), "fork")
				if err != nil {
					return 0, err
				}
				c2, err := timed(k.Syscall(kernel.SysExecve, kernel.UserBuf), "execve")
				return c1 + c2, err
			},
		},
		{
			Name: "fork()+/bin/sh", Kind: Latency,
			Setup: func(k *kernel.Kernel) error {
				return k.WriteUser(0, append([]byte("testfile"), 0))
			},
			Run: func(k *kernel.Kernel) (uint64, error) {
				// fork + shell: execve of the shell, which opens and
				// execves the target.
				var total uint64
				for _, c := range [][]uint64{
					{kernel.SysFork},
					{kernel.SysExecve, kernel.UserBuf},
					{kernel.SysOpen, kernel.UserBuf},
					{kernel.SysExecve, kernel.UserBuf},
				} {
					cy, err := timed(k.Syscall(c[0], c[1:]...), "sh step")
					if err != nil {
						return 0, err
					}
					total += cy
				}
				return total, nil
			},
		},
		{
			Name: "sigaction()", Kind: Latency,
			Run: func(k *kernel.Kernel) (uint64, error) {
				return timed(k.Syscall(kernel.SysSigaction, 5, 0x1000), "sigaction")
			},
		},
		{
			Name: "Signal delivery", Kind: Latency,
			Setup: func(k *kernel.Kernel) error {
				r := k.Syscall(kernel.SysSigaction, 5, 0x1000)
				if r.Failed {
					return fmt.Errorf("sigaction setup failed")
				}
				return nil
			},
			Run: func(k *kernel.Kernel) (uint64, error) {
				return timed(k.Syscall(kernel.SysKill, 5), "kill")
			},
		},
		{
			Name: "Protection fault", Kind: Latency,
			Run: func(k *kernel.Kernel) (uint64, error) {
				res := k.TriggerFault(0xffffea0000000000) // kernel address from user
				if res.Reason.String() != "iret" {
					return 0, fmt.Errorf("prot fault: %v %v", res.Reason, res.Trap)
				}
				return res.Cycles, nil
			},
		},
		{
			Name: "Page fault", Kind: Latency,
			Run: func(k *kernel.Kernel) (uint64, error) {
				res := k.TriggerFault(0x0000000000a00000) // unmapped user page
				if res.Reason.String() != "iret" {
					return 0, fmt.Errorf("page fault: %v %v", res.Reason, res.Trap)
				}
				return res.Cycles, nil
			},
		},
		ringLatency("Pipe I/O", kernel.SysPipeWrite, kernel.SysPipeRead, 64),
		ringLatency("UNIX socket I/O", kernel.SysUnixWrite, kernel.SysUnixRead, 64),
		ringLatency("TCP socket I/O", kernel.SysTCPWrite, kernel.SysTCPRead, 64),
		ringLatency("UDP socket I/O", kernel.SysUDPWrite, kernel.SysUDPRead, 64),

		ringBandwidth("Pipe I/O", kernel.SysPipeWrite, kernel.SysPipeRead),
		ringBandwidth("UNIX socket I/O", kernel.SysUnixWrite, kernel.SysUnixRead),
		ringBandwidth("TCP socket I/O", kernel.SysTCPWrite, kernel.SysTCPRead),
		{
			Name: "mmap() I/O", Kind: Bandwidth,
			Run: func(k *kernel.Kernel) (uint64, error) {
				// Copying out of a mapped file happens in user code; the
				// kernel is only entered to return.
				r := k.UserCopy(kernel.UserBuf+65536, kernel.UserBuf, 2048)
				return timed(r, "user copy")
			},
		},
		{
			Name: "File I/O", Kind: Bandwidth,
			Run: func(k *kernel.Kernel) (uint64, error) {
				fd, err := openTestFile(k)
				if err != nil {
					return 0, err
				}
				defer k.Syscall(kernel.SysClose, fd)
				c1, err := timed(k.Syscall(kernel.SysRead, fd, kernel.UserBuf+4096, 16384), "read 16k")
				if err != nil {
					return 0, err
				}
				c2, err := timed(k.Syscall(kernel.SysWrite, fd, kernel.UserBuf+4096, 16384), "write 16k")
				return c1 + c2, err
			},
		},
	}
	return ops
}

func setupFDs(n int) func(*kernel.Kernel) error {
	return func(k *kernel.Kernel) error {
		if err := k.WriteUser(0, append([]byte("testfile"), 0)); err != nil {
			return err
		}
		// Start from a clean fd table.
		for fd := uint64(0); fd < 64; fd++ {
			k.Syscall(kernel.SysClose, fd)
		}
		for i := 0; i < n; i++ {
			if r := k.Syscall(kernel.SysOpen, kernel.UserBuf); r.Failed || int64(r.Ret) < 0 {
				return fmt.Errorf("bench: fd setup open %d failed", i)
			}
		}
		return nil
	}
}

func ringLatency(name string, wr, rd uint64, size uint64) MicroOp {
	return MicroOp{
		Name: name, Kind: Latency,
		Setup: func(k *kernel.Kernel) error {
			return k.WriteUser(4096, make([]byte, 4096))
		},
		Run: func(k *kernel.Kernel) (uint64, error) {
			c1, err := timed(k.Syscall(wr, kernel.UserBuf+4096, size), "ring write")
			if err != nil {
				return 0, err
			}
			c2, err := timed(k.Syscall(rd, kernel.UserBuf+8192, size), "ring read")
			return c1 + c2, err
		},
	}
}

func ringBandwidth(name string, wr, rd uint64) MicroOp {
	op := ringLatency(name, wr, rd, 4096)
	op.Kind = Bandwidth
	return op
}

// Table holds measured overheads: Rows x Configs percentages over vanilla.
type Table struct {
	Title    string
	RowNames []string
	RowKinds []OpKind
	Configs  []string
	Baseline []float64   // vanilla cycles per op (or per workload run)
	Overhead [][]float64 // [row][config] percent
}

// Table1Configs returns the eleven protection columns of Table 1.
func Table1Configs() []core.Config {
	p := core.Presets()
	return p[1:] // everything except vanilla
}

// measureOps boots one kernel (from the shared build cache) and measures
// every op. Cycle counts are emulated and therefore deterministic, so
// columns measured concurrently report exactly what a sequential sweep
// would.
func measureOps(cfg core.Config, ops []MicroOp, iters int) ([]float64, error) {
	k, err := kernel.Boot(cfg, kernel.WithCache())
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(ops))
	for i, op := range ops {
		// Each op starts from a clean fd table (ops like fork()+/bin/sh
		// leak descriptors by design, as the real workloads do). Only open
		// descriptors are closed: closing a closed one takes sys_close's
		// fail path, which writes no kernel data, so skipping it leaves
		// every op's cycles unchanged. RunTable1Suite and setupFDs keep
		// closing all 64, because krxbench -funcs, -profile and -trace
		// attribute every instruction of that suite.
		for open := k.OpenFDs(); open != 0; open &= open - 1 {
			k.Syscall(kernel.SysClose, uint64(bits.TrailingZeros64(open)))
		}
		if op.Setup != nil {
			if err := op.Setup(k); err != nil {
				return nil, fmt.Errorf("%s (%s): %w", op.Name, cfg.Name(), err)
			}
		}
		// Warmup.
		if _, err := op.Run(k); err != nil {
			return nil, fmt.Errorf("%s (%s): %w", op.Name, cfg.Name(), err)
		}
		var total uint64
		for n := 0; n < iters; n++ {
			c, err := op.Run(k)
			if err != nil {
				return nil, fmt.Errorf("%s (%s): %w", op.Name, cfg.Name(), err)
			}
			total += c
		}
		out[i] = float64(total) / float64(iters)
	}
	return out, nil
}

// RunTable1 measures every micro-op under every configuration and returns
// the overhead table. The columns (and the vanilla baseline) are measured
// in parallel, one kernel per column, all columns sharing cached builds;
// results are folded in column order, so the table is identical to the
// sequential sweep's.
func RunTable1(iters int) (*Table, error) {
	if iters <= 0 {
		iters = 10
	}
	ops := MicroOps()
	cfgs := Table1Configs()
	t := &Table{Title: "Table 1: LMBench micro-benchmark overhead (%)"}
	for _, op := range ops {
		t.RowNames = append(t.RowNames, op.Name)
		t.RowKinds = append(t.RowKinds, op.Kind)
	}
	// Column 0 is the vanilla baseline, columns 1..len(cfgs) the protected
	// configurations.
	cols, err := sweep(append([]core.Config{core.Vanilla}, cfgs...), func(cfg core.Config) ([]float64, error) {
		return measureOps(cfg, MicroOps(), iters)
	})
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

// sweep measures one column per configuration concurrently and returns the
// per-config results in input order. The first error (in input order) wins.
func sweep(cfgs []core.Config, measure func(core.Config) ([]float64, error)) ([][]float64, error) {
	cols := make([][]float64, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg core.Config) {
			defer wg.Done()
			cols[i], errs[i] = measure(cfg)
		}(i, cfg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cols, nil
}
