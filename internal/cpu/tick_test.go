package cpu

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/isa"
)

// TestTickEquivalence is the ticker's differential oracle: over every
// coverage row and every stride from 1 to past the programs' lengths — so
// the deadline lands on every instruction, a block's last entry and the jcc
// half of a fused pair included — each engine, and the compiled one with an
// exec probe, produces the uncached stepper's exact tick/trap stream and
// state, with and without injector-style perturbations at the ticks.
func TestTickEquivalence(t *testing.T) {
	strides := append(upTo(40), 97, 1000)
	blocksRan := false
	for _, p := range rows("coverage/") {
		sweep(t, p, func(pt point, o *outcome, c *CPU) {
			if pt.stride == 1 && o.ticks[0].trap {
				t.Fatalf("%s: no tick on the first instruction", p.name)
			}
			blocksRan = blocksRan || c.BlockStats().Instrs > 0
		}, points(space{engines: allEngines, passes: []int{6}, limits: []uint64{1000}, strides: strides, act: both},
			space{engines: []int{hot1}, probe: []bool{true}, passes: []int{6}, limits: []uint64{1000}, strides: strides, act: both}))
	}
	if !blocksRan {
		t.Fatal("no ticked run retired an instruction in a block")
	}
}

// TestTickOnFusedJcc pins the deadline on the terminating jcc of the loop
// block — its last entry, and the jcc half of the pair the compiler fuses —
// while that block runs compiled on the other iterations.
func TestTickOnFusedJcc(t *testing.T) {
	// mov rcx; then the 3-entry body; the jcc is the loop's fourth entry.
	jcc := dcCodeVA + uint64(len(mustEncode(isa.MovRI(isa.RCX, 10), isa.AddRR(isa.RAX, isa.RCX),
		isa.SubRI(isa.RCX, 1), isa.CmpRI(isa.RCX, 0))))
	// 1 + 4*3: the 13th instruction is the third iteration's jcc; under
	// hot=1 the loop's block is compiled as soon as it forms.
	sweep(t, row(t, "coverage/cmp-jcc-fused"), func(pt point, o *outcome, c *CPU) {
		if k := o.ticks[0]; k.trap || k.rip != jcc || k.instrs != 13 {
			t.Fatalf("%v: first tick %+v, want the jcc at %#x after 13 instructions", pt, k, jcc)
		}
		if pt.engine == hot1 {
			must(t, "the fused loop", c, "Formed Instrs")
		}
	}, points(space{engines: allEngines, passes: []int{6}, limits: []uint64{1000}, strides: []uint64{13}}))
}

// TestTickBeforeTrapDelivery: when the deadline instruction traps, the tick
// fires after it executed (it is counted) and before its trap is delivered;
// a spurious trap the tick forces queues behind the real one.
func TestTickBeforeTrapDelivery(t *testing.T) {
	prog := []isa.Instr{
		isa.MovRI(isa.RAX, 1),
		isa.MovRI(isa.RBX, 2),
		isa.Load(isa.RCX, isa.Mem(isa.NoReg, fusionUnmappedVA)),
		isa.Ret(),
	}
	load := dcCodeVA + uint64(len(mustEncode(prog[:2]...)))
	for _, pt := range tickModes {
		c := tickCPU(t, pt, mustEncode(prog...))
		sp := &spuriousTicker{c: c}
		c.SetTick(sp, 3)
		c.AddTrapProbe(sp)
		res := c.Run(100)
		want := []string{fmt.Sprintf("tick rip=%#x instrs=3", load), fmt.Sprintf("trap #PF rip=%#x", load)}
		if !slices.Equal(sp.log, want) {
			t.Fatalf("%v: stream %q, want %q", pt, sp.log, want)
		}
		if res.Reason != StopTrap || res.Trap.Kind != TrapPageFault {
			t.Fatalf("%v: run %v %v, want the real #PF", pt, res.Reason, res.Trap)
		}
		if c.Pending == nil || c.Pending.Kind != TrapUndefined || c.Pending.RIP != load {
			t.Fatalf("%v: the spurious trap must stay queued behind the real one, pending=%v", pt, c.Pending)
		}
	}
}

// spuriousTicker forces a spurious #UD at its first deadline.
type spuriousTicker struct {
	c   *CPU
	log []string
}

func (s *spuriousTicker) Tick(rip uint64) uint64 {
	s.log = append(s.log, fmt.Sprintf("tick rip=%#x instrs=%d", rip, s.c.Instrs))
	s.c.Pending = &Trap{Kind: TrapUndefined, Addr: rip, RIP: rip, Mode: s.c.Mode}
	return 1000
}

func (s *spuriousTicker) OnTrap(t *Trap, cycles uint64) {
	s.log = append(s.log, fmt.Sprintf("trap %s rip=%#x", t.Kind, t.RIP))
}

// countTicker records the instruction count at each deadline.
type countTicker struct {
	c      *CPU
	stride uint64
	at     []uint64
}

func (k *countTicker) Tick(rip uint64) uint64 {
	k.at = append(k.at, k.c.Instrs)
	return k.stride
}

// tickModes are the machines the ticker tests pin: every engine, and
// compiled-hot1 with an exec probe armed.
var tickModes = points(space{engines: []int{uncached, cacheOnly, hot1, gated}}, space{engines: []int{hot1}, probe: []bool{true}})

// tickCPU is newMachine's machine for code under pt's engine and probe,
// rewound to the program entry by resetRaw.
func tickCPU(t *testing.T, pt point, code []byte) *CPU {
	t.Helper()
	c := newMachine(t, &program{code: code}, pt.engine)
	if pt.probe {
		c.AddProbe(&execLog{rips: map[uint64]bool{}})
	}
	resetRaw(t, c)
	return c
}

// TestTickAcrossRunCalls: a stride longer than the Run limit carries its
// countdown across Run calls, and RestoreState rewinds the machine but not
// the countdown.
func TestTickAcrossRunCalls(t *testing.T) {
	for _, pt := range tickModes {
		c := tickCPU(t, pt, countedLoop(200, isa.Ret()))
		k := &countTicker{c: c, stride: 25}
		c.SetTick(k, 25)
		for i := 0; i < 12; i++ {
			if res := c.Run(10); res.Reason != StopLimit || res.Instrs != 10 {
				t.Fatalf("%v: run %d: %v after %d", pt, i, res.Reason, res.Instrs)
			}
		}
		if want := []uint64{25, 50, 75, 100}; !slices.Equal(k.at, want) {
			t.Fatalf("%v: ticks at %v, want %v", pt, k.at, want)
		}

		// Rewind to before the last 20 instructions: the countdown (5 left
		// at Instrs 120) keeps running, so the next tick comes 5
		// instructions after the restore, at Instrs 105, then 130.
		c2 := tickCPU(t, pt, countedLoop(200, isa.Ret()))
		k2 := &countTicker{c: c2, stride: 25}
		c2.SetTick(k2, 25)
		c2.Run(100)
		s := c2.SaveState()
		c2.Run(20)
		c2.RestoreState(s)
		c2.Run(30)
		if want := []uint64{25, 50, 75, 100, 105, 130}; !slices.Equal(k2.at, want) {
			t.Fatalf("%v: ticks across a restore at %v, want %v", pt, k2.at, want)
		}
		c2.SetTick(nil, 0)
		c2.Run(100)
		if len(k2.at) != 6 {
			t.Fatalf("%v: a disarmed ticker fired: %v", pt, k2.at)
		}
	}
}

// TestTickForkAndSlot: CPU.Fork drops the ticker, and the single slot
// refuses a second ticker until the first is disarmed.
func TestTickForkAndSlot(t *testing.T) {
	c := tickCPU(t, point{engine: hot1}, countedLoop(200, isa.Ret()))
	k := &countTicker{c: c, stride: 7}
	c.SetTick(k, 7)
	c.Run(10)
	as, err := c.AS.Fork()
	if err != nil {
		t.Fatal(err)
	}
	child := c.Fork(as)
	child.Run(100)
	if len(k.at) != 1 {
		t.Fatalf("the forked CPU ticked its parent's ticker: %v", k.at)
	}
	ck := &countTicker{c: child, stride: 7}
	child.SetTick(ck, 7) // the child's slot is empty
	child.Run(20)
	if len(ck.at) != 2 {
		t.Fatalf("child ticker fired at %v, want twice", ck.at)
	}
	c.Run(4)
	if want := []uint64{7, 14}; !slices.Equal(k.at, want) {
		t.Fatalf("parent ticks %v, want %v", k.at, want)
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("second SetTick", func() { c.SetTick(&countTicker{c: c}, 3) })
	mustPanic("zero stride", func() { child.SetTick(nil, 0); child.SetTick(ck, 0) })
	c.SetTick(nil, 0)
	c.SetTick(&countTicker{c: c, stride: 3}, 3) // re-arming after a disarm is fine
}
