package cpu

// The composable execution-probe API, and the instruction-count ticker.
//
// Probes are per-instruction observers: any number install independently
// via AddProbe/RemoveProbe, dispatch order is installation order, and the
// common cases stay cheap — zero probes is one predictable nil check per
// instruction, one probe is a single indirect call (no fan-out loop). An
// installed exec probe disarms the Run loop's superblock fast path
// (bcache.go), which otherwise skips the per-instruction dispatch the
// callbacks ride on; only the cycle profilers still need that stream. Coverage, the observer every fuzz campaign needs, is a CPU
// sink (coverage.go) that blocks mark a block at a time. An observer that
// only needs to act every N instructions — the fault injector — is a Ticker
// (SetTick): Run treats its deadline like an instruction limit, so blocks
// keep running up to it and only the instruction that reaches it is
// single-stepped.

import "repro/internal/isa"

// ExecProbe observes executed instructions. OnExec is invoked after every
// executed instruction — including one that faults during execution — with
// the instruction's address, its decoded form, and the cycles it consumed
// (rep-string per-element charges included). Probes must not retain in
// beyond the call.
type ExecProbe interface {
	OnExec(rip uint64, in *isa.Instr, cycles uint64)
}

// TrapProbe is an optional extension: a probe (or trap-only observer) that
// also wants trap-delivery events. OnTrap fires when the CPU delivers an
// exception — before the handler runs or the run stops — with the trap and
// the delivery cost (isa.TrapCost) that was just added to CPU.Cycles.
// Together with OnExec this accounts for every emulated cycle: the cycle
// conservation the profiler's invariant rests on.
type TrapProbe interface {
	OnTrap(t *Trap, cycles uint64)
}

// ExecProbeFunc adapts a function to the ExecProbe interface. Func values
// are not comparable, so a probe installed this way cannot be removed with
// RemoveProbe — use a (pointer-typed) struct probe when the observer's
// lifetime is shorter than the CPU's.
type ExecProbeFunc func(rip uint64, in *isa.Instr, cycles uint64)

// OnExec implements ExecProbe.
func (f ExecProbeFunc) OnExec(rip uint64, in *isa.Instr, cycles uint64) { f(rip, in, cycles) }

// multiProbe fans one dispatch out to several probes, in install order. It
// exists so the single-probe case can stay one indirect call: the compiled
// dispatcher is nil, the probe itself, or a *multiProbe.
type multiProbe struct {
	ps []ExecProbe
}

func (m *multiProbe) OnExec(rip uint64, in *isa.Instr, cycles uint64) {
	for _, p := range m.ps {
		p.OnExec(rip, in, cycles)
	}
}

// AddProbe installs p at the end of the dispatch order. If p also
// implements TrapProbe it is registered for trap-delivery events too.
// Installing the same probe value twice dispatches it twice.
func (c *CPU) AddProbe(p ExecProbe) {
	c.probes = append(c.probes, p)
	c.recompileProbes()
	if tp, ok := p.(TrapProbe); ok {
		c.trapProbes = append(c.trapProbes, tp)
	}
}

// RemoveProbe uninstalls the most recently added occurrence of p (probes
// are typically attached/detached in LIFO pairs around a run). Removing a
// probe that is not installed is a no-op.
func (c *CPU) RemoveProbe(p ExecProbe) {
	for i := len(c.probes) - 1; i >= 0; i-- {
		if c.probes[i] == p {
			c.probes = append(c.probes[:i], c.probes[i+1:]...)
			break
		}
	}
	c.recompileProbes()
	if tp, ok := p.(TrapProbe); ok {
		c.removeTrapProbe(tp)
	}
}

// AddTrapProbe registers a trap-only observer (one that does not want the
// per-instruction OnExec stream — e.g. the event tracer). Probes installed
// via AddProbe that implement TrapProbe are registered automatically and
// must not be added here too.
func (c *CPU) AddTrapProbe(p TrapProbe) {
	c.trapProbes = append(c.trapProbes, p)
}

// RemoveTrapProbe uninstalls a trap-only observer added with AddTrapProbe.
func (c *CPU) RemoveTrapProbe(p TrapProbe) {
	c.removeTrapProbe(p)
}

func (c *CPU) removeTrapProbe(p TrapProbe) {
	for i := len(c.trapProbes) - 1; i >= 0; i-- {
		if c.trapProbes[i] == p {
			c.trapProbes = append(c.trapProbes[:i], c.trapProbes[i+1:]...)
			return
		}
	}
}

// Probes returns the installed exec probes in dispatch order (a copy).
func (c *CPU) Probes() []ExecProbe {
	return append([]ExecProbe(nil), c.probes...)
}

// recompileProbes rebuilds the dispatch path: nil for none, the probe
// itself for one (the fast path), a fan-out wrapper otherwise.
func (c *CPU) recompileProbes() {
	switch len(c.probes) {
	case 0:
		c.probe = nil
	case 1:
		c.probe = c.probes[0]
	default:
		c.probe = &multiProbe{ps: append([]ExecProbe(nil), c.probes...)}
	}
}

// notifyTrap delivers a trap-delivery event to the registered trap probes.
func (c *CPU) notifyTrap(t *Trap, cycles uint64) {
	for _, p := range c.trapProbes {
		p.OnTrap(t, cycles)
	}
}

// Ticker is an instruction-count deadline observer. Tick fires once every
// stride retired instructions (counted exactly as an exec probe's callbacks
// are: an instruction that executes, trapping or not, counts; a fetch fault
// or a #UD does not) with the address of the instruction that reached the
// deadline, after that instruction executed and before a trap it raised is
// delivered — the same point an exec probe's OnExec would see it. Tick
// returns the stride to the next deadline, which must be at least 1.
type Ticker interface {
	Tick(rip uint64) (next uint64)
}

// SetTick arms t to tick after the next stride instructions that Run
// retires; a nil t disarms. The CPU has one ticker slot: arming a second
// while one is armed panics. The countdown is not machine state — it
// survives RestoreState, and CPU.Fork does not carry the ticker over.
func (c *CPU) SetTick(t Ticker, stride uint64) {
	if t == nil {
		c.tick, c.tickLeft = nil, 0
		return
	}
	if c.tick != nil {
		panic("cpu: SetTick while another ticker is armed")
	}
	if stride == 0 {
		panic("cpu: SetTick with a zero stride")
	}
	c.tick, c.tickLeft = t, stride
}
