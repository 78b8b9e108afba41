package obs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/link"
)

// Attribution rules (the determinism contract, DESIGN.md §"Observability"):
//
//   - Exclusive counts are exact: every executed instruction is charged to
//     the function whose symbol range contains its address (binary search
//     over the image's placed functions, with a last-hit fast path that
//     makes the straight-line common case O(1) and decode-cache friendly).
//     Addresses below the upper half are "[user]"; upper-half addresses
//     outside every placed function are "[other]".
//
//   - Trap-delivery cost (isa.TrapCost per delivery, charged by the CPU
//     outside any instruction) is attributed to the function containing the
//     faulting RIP, via the TrapProbe channel. With both channels the
//     conservation invariant is exact: the sum of attributed cycles equals
//     the CPU's cycle delta over the attachment window.
//
//   - Inclusive counts ride a shadow call stack: CALL/SYSCALL push a frame,
//     RET/SYSRET/IRET pop one, and a frame's subtree total is credited to
//     its function when the frame pops (propagating to the caller), with
//     recursion counted once. Control transfers that bypass call/ret
//     discipline — tail jumps, ROP chains, trap entries — do not move
//     frames, so inclusive numbers are best-effort under adversarial
//     control flow while exclusive numbers stay exact.
//
//   - The syscall dimension keys every attributed cycle by the syscall
//     number in %rax when the SYSCALL instruction executed, until the
//     matching SYSRET; cycles outside any syscall key to -1.
//
//   - Snapshot restores rewind the CPU's counters; the profiler detects
//     these as external counter jumps (every genuine charge arrives with
//     its exact cost in a callback) and excludes them from the conservation
//     target, so the invariant stays exact across restore-heavy workloads
//     like fuzzing campaigns.

// pseudo-function slots appended after the image's placed functions.
const (
	pseudoUser  = 0 // rip below the upper half
	pseudoOther = 1 // upper half, outside every placed function
	numPseudo   = 2
)

// NoSyscall keys profile cycles attributed outside any syscall window.
const NoSyscall int64 = -1

// pframe is one shadow-stack frame: the function it resolved to (-1 until
// the first instruction after the call executes) and the cycle/instruction
// subtree accumulated while it or any callee was on top.
type pframe struct {
	idx  int32
	sub  uint64
	subI uint64
}

// Profiler attributes every executed cycle to its owning function and
// syscall. It implements cpu.ExecProbe and cpu.TrapProbe; install with
// Attach (or cpu.AddProbe) and read results with Report.
type Profiler struct {
	c *cpu.CPU

	starts []uint64
	ends   []uint64
	names  []string // placed functions, then the pseudo slots
	nFuncs int

	exclC, exclI []uint64
	inclC, inclI []uint64
	onStack      []uint32
	stack        []pframe
	last         int // last lookup hit (locality fast path)

	sysC, sysI map[int64]uint64
	curSys     int64

	startCycles uint64
	startInstrs uint64
	attributedC uint64
	attributedI uint64

	// Counter-rewind tracking: kernel.Restore rewinds CPU.Cycles/Instrs to
	// snapshot values, which would break a naive "delta since Attach"
	// baseline. Every charge the CPU makes fires a probe callback carrying
	// its exact cost, so any difference between the observed counter and
	// (previous counter + charged cost) is an external jump — a restore —
	// accumulated here (mod 2^64, so either direction is exact) and excluded
	// from the conservation target.
	prevCycles uint64
	prevInstrs uint64
	jumpC      uint64
	jumpI      uint64
}

// NewProfiler builds a profiler over the image's placed functions.
func NewProfiler(img *link.Image) *Profiler {
	p := &Profiler{curSys: NoSyscall, last: -1}
	funcs := append([]link.FuncSym(nil), img.Funcs...)
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Addr < funcs[j].Addr })
	for _, f := range funcs {
		p.starts = append(p.starts, f.Addr)
		p.ends = append(p.ends, f.Addr+f.Size)
		p.names = append(p.names, f.Name)
	}
	p.nFuncs = len(funcs)
	p.names = append(p.names, "[user]", "[other]")
	n := p.nFuncs + numPseudo
	p.exclC = make([]uint64, n)
	p.exclI = make([]uint64, n)
	p.inclC = make([]uint64, n)
	p.inclI = make([]uint64, n)
	p.onStack = make([]uint32, n)
	p.sysC = make(map[int64]uint64)
	p.sysI = make(map[int64]uint64)
	return p
}

// Attach installs the profiler on the CPU and anchors the conservation
// baseline at the CPU's current counters.
func (p *Profiler) Attach(c *cpu.CPU) {
	p.c = c
	p.startCycles = c.Cycles
	p.startInstrs = c.Instrs
	p.prevCycles = c.Cycles
	p.prevInstrs = c.Instrs
	c.AddProbe(p)
}

// Detach uninstalls the profiler. Accumulated counts are retained.
func (p *Profiler) Detach() {
	if p.c != nil {
		p.c.RemoveProbe(p)
	}
}

// lookup maps an instruction address to its function slot.
func (p *Profiler) lookup(rip uint64) int {
	if rip < cpu.UpperHalf {
		return p.nFuncs + pseudoUser
	}
	if l := p.last; l >= 0 && l < p.nFuncs && rip >= p.starts[l] && rip < p.ends[l] {
		return l
	}
	i := sort.Search(p.nFuncs, func(i int) bool { return p.ends[i] > rip })
	if i < p.nFuncs && rip >= p.starts[i] {
		p.last = i
		return i
	}
	return p.nFuncs + pseudoOther
}

// OnExec implements cpu.ExecProbe: exact exclusive attribution, the syscall
// dimension, and the shadow-stack bookkeeping for inclusive counts.
func (p *Profiler) OnExec(rip uint64, in *isa.Instr, cycles uint64) {
	p.jumpC += p.c.Cycles - (p.prevCycles + cycles)
	p.prevCycles = p.c.Cycles
	p.jumpI += p.c.Instrs - (p.prevInstrs + 1)
	p.prevInstrs = p.c.Instrs

	idx := p.lookup(rip)
	p.exclC[idx] += cycles
	p.exclI[idx]++
	p.attributedC += cycles
	p.attributedI++
	p.sysC[p.curSys] += cycles
	p.sysI[p.curSys]++

	if len(p.stack) == 0 {
		p.stack = append(p.stack, pframe{idx: int32(idx)})
		p.onStack[idx]++
	}
	top := &p.stack[len(p.stack)-1]
	if top.idx < 0 {
		top.idx = int32(idx)
		p.onStack[idx]++
	}
	top.sub += cycles
	top.subI++

	switch in.Op {
	case isa.CALL, isa.CALLR, isa.CALLM:
		p.stack = append(p.stack, pframe{idx: -1})
	case isa.SYSCALL:
		p.curSys = int64(p.c.Reg(isa.RAX))
		p.stack = append(p.stack, pframe{idx: -1})
	case isa.RET, isa.RETI:
		p.pop()
	case isa.SYSRET:
		p.curSys = NoSyscall
		p.pop()
	case isa.IRET:
		p.curSys = NoSyscall
		p.pop()
	}
}

// OnTrap implements cpu.TrapProbe: the delivery cost the CPU charges
// outside any instruction is attributed to the faulting function, keeping
// the conservation invariant exact.
func (p *Profiler) OnTrap(t *cpu.Trap, cycles uint64) {
	p.jumpC += p.c.Cycles - (p.prevCycles + cycles)
	p.prevCycles = p.c.Cycles
	p.jumpI += p.c.Instrs - p.prevInstrs
	p.prevInstrs = p.c.Instrs

	idx := p.lookup(t.RIP)
	p.exclC[idx] += cycles
	p.attributedC += cycles
	p.sysC[p.curSys] += cycles
	if len(p.stack) > 0 {
		p.stack[len(p.stack)-1].sub += cycles
	}
}

// pop closes the top shadow frame, crediting its subtree to its function
// (once per recursion group) and propagating the subtree to the caller.
func (p *Profiler) pop() {
	if len(p.stack) == 0 {
		return
	}
	f := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	if f.idx >= 0 {
		p.onStack[f.idx]--
		if p.onStack[f.idx] == 0 {
			p.inclC[f.idx] += f.sub
			p.inclI[f.idx] += f.subI
		}
	}
	if len(p.stack) > 0 {
		top := &p.stack[len(p.stack)-1]
		top.sub += f.sub
		top.subI += f.subI
	}
}

// Attributed returns the totals attributed so far (cycles, instructions).
func (p *Profiler) Attributed() (uint64, uint64) { return p.attributedC, p.attributedI }

// CheckConservation verifies the profiler's invariant against the CPU it is
// attached to: every cycle and instruction the CPU counted since Attach is
// attributed exactly once, on both the function and the syscall dimension.
func (p *Profiler) CheckConservation() error {
	wantC := p.c.Cycles - p.startCycles - p.jumpC
	wantI := p.c.Instrs - p.startInstrs - p.jumpI
	if p.attributedC != wantC || p.attributedI != wantI {
		return fmt.Errorf("obs: attribution leak: attributed %d cycles / %d instrs, CPU delta %d / %d",
			p.attributedC, p.attributedI, wantC, wantI)
	}
	var sumC, sumI uint64
	for i := range p.exclC {
		sumC += p.exclC[i]
		sumI += p.exclI[i]
	}
	if sumC != p.attributedC || sumI != p.attributedI {
		return fmt.Errorf("obs: function dimension diverges: sum %d/%d, attributed %d/%d",
			sumC, sumI, p.attributedC, p.attributedI)
	}
	sumC, sumI = 0, 0
	for _, v := range p.sysC {
		sumC += v
	}
	for _, v := range p.sysI {
		sumI += v
	}
	if sumC != p.attributedC || sumI != p.attributedI {
		return fmt.Errorf("obs: syscall dimension diverges: sum %d/%d, attributed %d/%d",
			sumC, sumI, p.attributedC, p.attributedI)
	}
	return nil
}

// FuncProfile is one function's attributed totals.
type FuncProfile struct {
	Name       string
	ExclCycles uint64
	ExclInstrs uint64
	InclCycles uint64
	InclInstrs uint64
}

// SyscallProfile is one syscall number's attributed totals. Nr is
// NoSyscall (-1) for cycles outside any syscall window.
type SyscallProfile struct {
	Nr     int64
	Cycles uint64
	Instrs uint64
}

// ProfileReport is a point-in-time rendering of the profiler's counts.
type ProfileReport struct {
	TotalCycles uint64 // CPU cycle delta over the attachment window
	TotalInstrs uint64
	Attributed  uint64           // attributed cycles (== TotalCycles when conserved)
	Funcs       []FuncProfile    // sorted by exclusive cycles desc, then name
	BySyscall   []SyscallProfile // sorted by syscall number
}

// Report snapshots the profiler. Frames still open on the shadow stack are
// virtually unwound so inclusive counts cover in-flight calls.
func (p *Profiler) Report() *ProfileReport {
	rep := &ProfileReport{
		TotalCycles: p.c.Cycles - p.startCycles - p.jumpC,
		TotalInstrs: p.c.Instrs - p.startInstrs - p.jumpI,
		Attributed:  p.attributedC,
	}
	inclC := append([]uint64(nil), p.inclC...)
	inclI := append([]uint64(nil), p.inclI...)
	onStack := append([]uint32(nil), p.onStack...)
	var carry, carryI uint64
	for i := len(p.stack) - 1; i >= 0; i-- {
		f := p.stack[i]
		sub, subI := f.sub+carry, f.subI+carryI
		if f.idx >= 0 {
			onStack[f.idx]--
			if onStack[f.idx] == 0 {
				inclC[f.idx] += sub
				inclI[f.idx] += subI
			}
		}
		carry, carryI = sub, subI
	}
	for i, name := range p.names {
		if p.exclI[i] == 0 && p.exclC[i] == 0 && inclC[i] == 0 {
			continue
		}
		rep.Funcs = append(rep.Funcs, FuncProfile{
			Name:       name,
			ExclCycles: p.exclC[i],
			ExclInstrs: p.exclI[i],
			InclCycles: inclC[i],
			InclInstrs: inclI[i],
		})
	}
	sort.Slice(rep.Funcs, func(i, j int) bool {
		if rep.Funcs[i].ExclCycles != rep.Funcs[j].ExclCycles {
			return rep.Funcs[i].ExclCycles > rep.Funcs[j].ExclCycles
		}
		return rep.Funcs[i].Name < rep.Funcs[j].Name
	})
	for nr, c := range p.sysC {
		rep.BySyscall = append(rep.BySyscall, SyscallProfile{Nr: nr, Cycles: c, Instrs: p.sysI[nr]})
	}
	sort.Slice(rep.BySyscall, func(i, j int) bool { return rep.BySyscall[i].Nr < rep.BySyscall[j].Nr })
	return rep
}

// Format renders the report: top functions by exclusive cycles, then the
// syscall dimension. namer maps syscall numbers to names (nil uses
// "sys_<nr>"); topN <= 0 prints every function.
func (r *ProfileReport) Format(topN int, namer func(nr int64) string) string {
	if namer == nil {
		namer = func(nr int64) string { return fmt.Sprintf("sys_%d", nr) }
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "profile: %d cycles / %d instrs attributed (%d total)\n",
		r.Attributed, r.TotalInstrs, r.TotalCycles)
	pct := func(v uint64) float64 {
		if r.TotalCycles == 0 {
			return 0
		}
		return 100 * float64(v) / float64(r.TotalCycles)
	}
	fmt.Fprintf(&sb, "  %-28s %12s %8s %12s %8s\n", "function", "excl-cyc", "excl%", "incl-cyc", "instrs")
	for i, f := range r.Funcs {
		if topN > 0 && i >= topN {
			fmt.Fprintf(&sb, "  ... %d more functions\n", len(r.Funcs)-i)
			break
		}
		fmt.Fprintf(&sb, "  %-28s %12d %7.1f%% %12d %8d\n",
			f.Name, f.ExclCycles, pct(f.ExclCycles), f.InclCycles, f.ExclInstrs)
	}
	for _, s := range r.BySyscall {
		name := "(outside syscall)"
		if s.Nr != NoSyscall {
			name = namer(s.Nr)
		}
		fmt.Fprintf(&sb, "  syscall %-24s %12d cycles %8d instrs\n", name, s.Cycles, s.Instrs)
	}
	return sb.String()
}
