// Package cpu emulates a KX64 processor: fetch/decode/execute over a paged
// address space, with user/kernel modes, SYSCALL/SYSRET and exception
// delivery, MPX bound registers, SMEP, and per-instruction cycle accounting
// (the evaluation's clock).
package cpu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Mode is the CPU privilege mode.
type Mode uint8

// Privilege modes.
const (
	User Mode = iota
	Kernel
)

func (m Mode) String() string {
	if m == Kernel {
		return "kernel"
	}
	return "user"
}

// UpperHalf is the start of the kernel's canonical upper half.
const UpperHalf uint64 = 0xffff800000000000

// TrapKind classifies CPU exceptions.
type TrapKind uint8

// Trap kinds.
const (
	TrapNone       TrapKind = iota
	TrapPageFault           // #PF
	TrapBoundRange          // #BR (MPX violation)
	TrapBreakpoint          // #BP (int3 — tripwires)
	TrapUndefined           // #UD
	TrapProtection          // #GP (SMEP, privilege violations)
)

func (k TrapKind) String() string {
	switch k {
	case TrapPageFault:
		return "#PF"
	case TrapBoundRange:
		return "#BR"
	case TrapBreakpoint:
		return "#BP"
	case TrapUndefined:
		return "#UD"
	case TrapProtection:
		return "#GP"
	}
	return "none"
}

// Trap describes a delivered exception.
type Trap struct {
	Kind  TrapKind
	Addr  uint64 // faulting data address (if applicable)
	RIP   uint64 // address of the faulting instruction
	Mode  Mode   // mode at the time of the fault
	Fault *mem.Fault
}

func (t *Trap) Error() string {
	return fmt.Sprintf("%s at rip=%#x addr=%#x (%s mode)", t.Kind, t.RIP, t.Addr, t.Mode)
}

// StopReason explains why Run returned.
type StopReason uint8

// Stop reasons.
const (
	StopHalt   StopReason = iota // HLT executed in kernel mode
	StopReturn                   // RET popped the sentinel stop address
	StopTrap                     // unhandled exception (kernel-mode fault)
	StopLimit                    // instruction budget exhausted
	StopSysret                   // sysret executed with StopOnSysret set
	StopIret                     // iret executed with StopOnIret set
)

func (r StopReason) String() string {
	switch r {
	case StopHalt:
		return "halt"
	case StopReturn:
		return "return"
	case StopTrap:
		return "trap"
	case StopLimit:
		return "limit"
	case StopSysret:
		return "sysret"
	case StopIret:
		return "iret"
	}
	return "?"
}

// StopMagic is the sentinel return address: a RET that pops this value stops
// the run cleanly (how the harness invokes a single kernel routine).
const StopMagic uint64 = 0xFFFF0FF0FF0FF0F0

// Bound is one MPX bound register.
type Bound struct {
	LB uint64
	UB uint64
}

// BudgetError is the structured watchdog verdict: a run consumed its whole
// instruction budget without reaching a stop condition. It replaces the old
// convention of silently returning StopLimit and letting callers misread a
// truncated run as a completed one.
type BudgetError struct {
	Budget uint64 // the instruction budget that was exhausted
	RIP    uint64 // where execution was parked when the watchdog fired
	Mode   Mode
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("watchdog: instruction budget (%d) exhausted at rip=%#x (%s mode)",
		e.Budget, e.RIP, e.Mode)
}

// RunResult summarizes a Run invocation.
type RunResult struct {
	Reason  StopReason
	Trap    *Trap
	Instrs  uint64
	Cycles  uint64
	HaltRIP uint64 // rip of the HLT when Reason == StopHalt
}

// CPU is the emulated processor.
type CPU struct {
	AS *mem.AddressSpace

	Regs   [isa.NumGPR]uint64
	RIP    uint64
	RFlags uint64
	Bnd    [isa.NumBnd]Bound
	Mode   Mode

	Cycles uint64
	Instrs uint64

	// SyscallEntry is the kernel's syscall entry point (MSR_LSTAR).
	SyscallEntry uint64
	// FaultEntry is the kernel's exception entry point: user-mode faults
	// are delivered here (kernel-mode faults stop the run — the kR^X
	// violation handler halts the system anyway).
	FaultEntry uint64
	// KernelStackTop is loaded into %rsp on mode switch into the kernel.
	KernelStackTop uint64
	// SMEP blocks kernel-mode instruction fetches from user addresses.
	SMEP bool

	// StopOnSysret makes Run return (StopSysret) right after a sysret
	// completes, and StopOnIret likewise for iret. The benchmark harness
	// uses these to bound one user->kernel->user round trip.
	StopOnSysret bool
	StopOnIret   bool

	// KernelBnd0, when MPXKernel is set, is loaded into %bnd0 on kernel
	// entry (ub = _krx_edata); the user value is spilled and restored on
	// exit, so kR^X-MPX does not interfere with user MPX usage (§5.1.3).
	MPXKernel  bool
	KernelBnd0 Bound

	// MSRs models wrmsr/rdmsr state (keyed by %rcx).
	MSRs map[uint64]uint64

	// probes are the installed exec probes (install order); probe is the
	// compiled dispatcher — nil, probes[0] (the single-probe fast path),
	// or a *multiProbe fan-out. trapProbes observe trap delivery.
	probes     []ExecProbe
	probe      ExecProbe
	trapProbes []TrapProbe

	// tick is the armed instruction-count ticker (probe.go); nil when off.
	// tickLeft is how many more instructions retire before it fires. It
	// counts what an exec probe would see — instructions that reached
	// Instrs++ — and survives RestoreState like the ticker itself.
	tick     Ticker
	tickLeft uint64

	// cov is the installed coverage sink (coverage.go); nil when off.
	cov *Coverage
	// observed is probe != nil || cov != nil: the single-step paths' one
	// check before notifyExec.
	observed bool

	// Pending is an externally forced exception: Run delivers it before the
	// next instruction, exactly as if the current instruction had trapped.
	// The fault injector uses it to model spurious #PF/#BR/#UD/#GP events
	// (machine-check-style noise the kernel must degrade gracefully under).
	Pending *Trap

	savedUserRSP  uint64
	savedUserBnd0 Bound
	inSyscall     bool

	fetchBuf [isa.MaxInstrLen]byte

	// dc is the predecoded translation cache (see dcache.go); nil when
	// disabled. blocks arms the superblock engine layered on it (see
	// bcache.go; every block it forms is compiled to thunks, thunk.go),
	// blockHot the hotness-gate threshold, shared the translation table
	// this CPU adopts blocks from and publishes them to (ShareBlocks), and
	// bstats/dstats the cumulative block-engine and decode-cache counters
	// (on the CPU, not the cache, so both survive cache toggles under one
	// reset contract — see BlockStats/DecodeCacheStats). All affect host
	// wall-clock only — Instrs, Cycles, traps, and probe callbacks are
	// bit-identical with them on or off.
	dc       *decodeCache
	blocks   bool
	blockHot uint32
	shared   *SharedBlocks
	bstats   BlockStats
	dstats   DecodeCacheStats

	// loopPrev is runBlock's scratch for a fixpoint-eligible self-loop: the
	// values its non-induction registers had when the current pass began
	// (fixLoop.repeat).
	loopPrev [isa.NumGPR]uint64
}

// New creates a CPU over the given address space. The decode cache and the
// superblock engine, which compiles every block it forms, are on by
// default; SetDecodeCache(false) reverts to fetch+decode per instruction,
// and SetBlockEngine(false) to per-instruction dispatch over cached decodes.
func New(as *mem.AddressSpace) *CPU {
	c := &CPU{AS: as, MSRs: make(map[uint64]uint64),
		blocks: true, blockHot: DefaultBlockHotThreshold}
	c.dc = newDecodeCache(&c.dstats, nil)
	return c
}

// Reg returns a register value.
func (c *CPU) Reg(r isa.Reg) uint64 { return c.Regs[r] }

// SetReg sets a register value.
func (c *CPU) SetReg(r isa.Reg, v uint64) { c.Regs[r] = v }

// effAddr computes the effective address of a memory operand, given the
// address of the *next* instruction (for %rip-relative references).
func (c *CPU) effAddr(m isa.MemRef, next uint64) uint64 {
	ea := uint64(int64(m.Disp))
	if m.RIPRel {
		return next + ea
	}
	if m.HasBase() {
		ea += c.Regs[m.Base]
	}
	if m.HasIndex() {
		ea += c.Regs[m.Index] * uint64(m.Scale)
	}
	return ea
}

// checkDataAccess enforces the privilege rules for a data access at addr.
func (c *CPU) checkDataAccess(addr uint64) *Trap {
	if c.Mode == User && addr >= UpperHalf {
		return &Trap{Kind: TrapProtection, Addr: addr, RIP: c.RIP, Mode: c.Mode}
	}
	return nil
}

func (c *CPU) load(addr uint64, size uint8) (uint64, *Trap) {
	if t := c.checkDataAccess(addr); t != nil {
		return 0, t
	}
	v, f := c.AS.Read(addr, size)
	if f != nil {
		return 0, &Trap{Kind: TrapPageFault, Addr: addr, RIP: c.RIP, Mode: c.Mode, Fault: f}
	}
	return v, nil
}

func (c *CPU) store(addr uint64, v uint64, size uint8) *Trap {
	if t := c.checkDataAccess(addr); t != nil {
		return t
	}
	if f := c.AS.Write(addr, v, size); f != nil {
		return &Trap{Kind: TrapPageFault, Addr: addr, RIP: c.RIP, Mode: c.Mode, Fault: f}
	}
	return nil
}

func (c *CPU) push(v uint64) *Trap {
	c.Regs[isa.RSP] -= 8
	return c.store(c.Regs[isa.RSP], v, 8)
}

func (c *CPU) pop() (uint64, *Trap) {
	v, t := c.load(c.Regs[isa.RSP], 8)
	if t != nil {
		return 0, t
	}
	c.Regs[isa.RSP] += 8
	return v, nil
}

// FMask is the simulated IA32_FMASK: flag bits cleared on kernel entry.
// Clearing DF matters for correctness — kernel string operations assume
// ascending addresses (the paper's footnote 7) — and real kernels mask it
// for exactly this reason.
const FMask = isa.FlagDF | isa.FlagsArith

// EnterKernel performs the SYSCALL mode transition.
func (c *CPU) EnterKernel(returnRIP uint64) {
	c.Regs[isa.RCX] = returnRIP
	c.Regs[isa.R11] = c.RFlags
	c.RFlags &^= FMask
	c.savedUserRSP = c.Regs[isa.RSP]
	c.Regs[isa.RSP] = c.KernelStackTop
	c.Mode = Kernel
	c.inSyscall = true
	c.RIP = c.SyscallEntry
	if c.MPXKernel {
		c.savedUserBnd0 = c.Bnd[0]
		c.Bnd[0] = c.KernelBnd0
	}
}

// ExitKernel performs the SYSRET transition.
func (c *CPU) ExitKernel() {
	c.RIP = c.Regs[isa.RCX]
	c.RFlags = c.Regs[isa.R11]
	c.Regs[isa.RSP] = c.savedUserRSP
	c.Mode = User
	c.inSyscall = false
	if c.MPXKernel {
		c.Bnd[0] = c.savedUserBnd0
	}
}

// deliverTrap routes an exception: user-mode traps enter the kernel fault
// handler (if configured); kernel-mode traps are fatal for the run.
func (c *CPU) deliverTrap(t *Trap) *Trap {
	c.Cycles += isa.TrapCost
	if len(c.trapProbes) != 0 {
		c.notifyTrap(t, isa.TrapCost)
	}
	if t.Mode == User && c.FaultEntry != 0 {
		// Push an exception frame on the kernel stack: rip, rsp, rflags.
		c.savedUserRSP = c.Regs[isa.RSP]
		c.Regs[isa.RSP] = c.KernelStackTop
		c.Mode = Kernel
		if c.MPXKernel {
			c.savedUserBnd0 = c.Bnd[0]
			c.Bnd[0] = c.KernelBnd0
		}
		// The frame carries enough to iret.
		if tr := c.push(c.RFlags); tr != nil {
			return tr
		}
		if tr := c.push(c.savedUserRSP); tr != nil {
			return tr
		}
		if tr := c.push(t.RIP); tr != nil {
			return tr
		}
		// Fault address in %rdi-equivalent scratch for the handler (the
		// simulation's CR2).
		c.Regs[isa.R9] = t.Addr
		c.RIP = c.FaultEntry
		return nil
	}
	return t
}

// Run executes until a stop condition or the instruction limit. When the
// superblock engine is armed it dispatches whole basic blocks per loop
// iteration — and chains block-to-block across successor links without
// re-entering this loop (bcache.go) — falling back to single-step dispatch
// whenever an exec probe is installed (the per-instruction callback stream
// must be produced), a trap is pending, a fetch privilege check fails, the
// entry point is still cold under the hotness gate, no block starts at RIP,
// or the remaining limit budget is smaller than the block. A coverage sink
// (SetCoverage) does not disarm blocks: they mark coverage a block at a
// time. Neither does a ticker (SetTick): its deadline caps the budget blocks
// may use exactly as the limit does, and the instruction that reaches it is
// single-stepped so the tick fires after that instruction's exec and before
// its trap (if any) is delivered.
func (c *CPU) Run(limit uint64) *RunResult {
	res := &RunResult{}
	startInstrs, startCycles := c.Instrs, c.Cycles
	for {
		done := c.Instrs - startInstrs
		if limit > 0 && done >= limit {
			res.Reason = StopLimit
			break
		}
		if c.Pending != nil {
			t := c.Pending
			c.Pending = nil
			if t2 := c.deliverTrap(t); t2 != nil {
				res.Reason = StopTrap
				res.Trap = t2
				break
			}
			continue
		}
		var stop StopReason
		var trap *Trap
		before := c.Instrs
		if c.tick != nil && c.tickLeft == 1 {
			rip := c.RIP
			stop, trap = c.Step()
			if c.Instrs != before {
				if c.tickLeft = c.tick.Tick(rip); c.tickLeft == 0 {
					panic("cpu: Ticker.Tick returned a zero stride")
				}
			}
		} else {
			if c.blocks && c.dc != nil && c.probe == nil &&
				!(c.Mode == User && c.RIP >= UpperHalf) &&
				!(c.SMEP && c.Mode == Kernel && c.RIP < UpperHalf) {
				// Fetch privilege holds for the whole block: the mode cannot
				// change mid-block (mode switches are terminators) and the
				// block never leaves its page.
				lim := limit
				if c.tick != nil && (limit == 0 || limit-done >= c.tickLeft) {
					// Rebase the deadline into the limit's terms: blocks may
					// retire at most tickLeft-1 instructions.
					lim = done + c.tickLeft - 1
				}
				stop, trap = c.blockStep(lim, done, startInstrs)
			} else {
				stop, trap = c.Step()
			}
			if c.tick != nil {
				c.tickLeft -= c.Instrs - before
			}
		}
		if trap != nil {
			if t := c.deliverTrap(trap); t != nil {
				res.Reason = StopTrap
				res.Trap = t
				break
			}
			continue
		}
		if stop != StepContinue {
			res.Reason = stop
			if stop == StopHalt {
				res.HaltRIP = c.RIP
			}
			break
		}
	}
	res.Instrs = c.Instrs - startInstrs
	res.Cycles = c.Cycles - startCycles
	return res
}

// StepContinue is the stop reason Step returns to mean "keep going": no
// stop reason Run reports has its value.
const StepContinue StopReason = 0xFF

// Step executes one instruction. It returns a stop reason (StepContinue to
// keep going) or a trap.
func (c *CPU) Step() (StopReason, *Trap) {
	// Fetch.
	if c.Mode == User && c.RIP >= UpperHalf {
		return StepContinue, &Trap{Kind: TrapProtection, Addr: c.RIP, RIP: c.RIP, Mode: c.Mode}
	}
	if c.SMEP && c.Mode == Kernel && c.RIP < UpperHalf {
		// SMEP: supervisor-mode execution prevention (blocks ret2usr).
		return StepContinue, &Trap{Kind: TrapProtection, Addr: c.RIP, RIP: c.RIP, Mode: c.Mode}
	}
	if c.dc != nil {
		if e, ud, ok := c.dc.lookup(c.AS, c.RIP); ok {
			if ud {
				// Cached deterministic decode failure: same #UD the slow
				// path would raise, with no Instrs/Cycles side effects.
				return StepContinue, &Trap{Kind: TrapUndefined, Addr: c.RIP, RIP: c.RIP, Mode: c.Mode}
			}
			c.Instrs++
			rip := c.RIP
			before := c.Cycles
			c.Cycles += e.cost
			stop, trap := c.exec(&e.in, c.RIP+uint64(e.ilen))
			if c.observed {
				c.notifyExec(rip, &e.in, c.Cycles-before)
			}
			return stop, trap
		}
	}
	return c.stepSlow()
}

// stepSlow is the uncached fetch+decode+execute path: the fallback when the
// decode cache is off, the address is not executable (the Fetch fault is
// authoritative), or the instruction straddles a page boundary the cache
// cannot own. Callers have already passed the fetch privilege checks.
func (c *CPU) stepSlow() (StopReason, *Trap) {
	n, f := c.AS.Fetch(c.RIP, c.fetchBuf[:])
	if f != nil {
		return StepContinue, &Trap{Kind: TrapPageFault, Addr: c.RIP, RIP: c.RIP, Mode: c.Mode, Fault: f}
	}
	in, ilen, err := isa.Decode(c.fetchBuf[:n])
	if err != nil {
		return StepContinue, &Trap{Kind: TrapUndefined, Addr: c.RIP, RIP: c.RIP, Mode: c.Mode}
	}
	c.Instrs++
	rip := c.RIP
	before := c.Cycles
	c.Cycles += in.Cost()
	next := c.RIP + uint64(ilen)
	stop, trap := c.exec(&in, next)
	if c.observed {
		c.notifyExec(rip, &in, c.Cycles-before)
	}
	return stop, trap
}

// State is a complete architectural snapshot of the CPU: everything Restore
// needs to resume as if the intervening execution never happened. The
// address space, the installed probes, the ticker and its countdown, and
// the coverage sink are deliberately excluded — memory has its own
// checkpoint machinery (mem.Checkpoint/Rollback) and observers belong to
// whoever installed them.
type State struct {
	Regs          [isa.NumGPR]uint64
	RIP           uint64
	RFlags        uint64
	Bnd           [isa.NumBnd]Bound
	Mode          Mode
	Cycles        uint64
	Instrs        uint64
	MSRs          map[uint64]uint64
	SavedUserRSP  uint64
	SavedUserBnd0 Bound
	InSyscall     bool
	Pending       *Trap
}

// SaveState captures the CPU's architectural state.
func (c *CPU) SaveState() State {
	s := State{
		Regs:          c.Regs,
		RIP:           c.RIP,
		RFlags:        c.RFlags,
		Bnd:           c.Bnd,
		Mode:          c.Mode,
		Cycles:        c.Cycles,
		Instrs:        c.Instrs,
		SavedUserRSP:  c.savedUserRSP,
		SavedUserBnd0: c.savedUserBnd0,
		InSyscall:     c.inSyscall,
		Pending:       c.Pending,
	}
	s.MSRs = make(map[uint64]uint64, len(c.MSRs))
	for k, v := range c.MSRs {
		s.MSRs[k] = v
	}
	return s
}

// RestoreState rewinds the CPU to a previously saved state.
func (c *CPU) RestoreState(s State) {
	c.Regs = s.Regs
	c.RIP = s.RIP
	c.RFlags = s.RFlags
	c.Bnd = s.Bnd
	c.Mode = s.Mode
	c.Cycles = s.Cycles
	c.Instrs = s.Instrs
	c.savedUserRSP = s.SavedUserRSP
	c.savedUserBnd0 = s.SavedUserBnd0
	c.inSyscall = s.InSyscall
	c.Pending = s.Pending
	// Refill the CPU's own map rather than replacing it: a restore per
	// fuzz iteration then allocates nothing here.
	if c.MSRs == nil {
		c.MSRs = make(map[uint64]uint64, len(s.MSRs))
	}
	clear(c.MSRs)
	for k, v := range s.MSRs {
		c.MSRs[k] = v
	}
}
