package cpu

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// setCovMode configures c for covModes[mode], the engine modes an armed
// ticker must agree across (covModes[0], the uncached stepper, is the
// reference); the probed mode arms an exec probe beside the ticker.
func setCovMode(c *CPU, mode int) {
	m := covModes[mode]
	c.SetDecodeCache(m.cache)
	c.SetBlockEngine(m.blocks)
	c.SetBlockHotThreshold(m.hot)
	if m.probed {
		c.AddProbe(&ripProbe{rips: map[uint64]struct{}{}})
	}
}

// tickLog is a Ticker that records every deadline into a log it shares
// with a trap probe, so the log is the interleaved tick/trap stream. With
// act set it perturbs the machine the way the fault injector does — a data
// byte flip, a bound-register corruption, or a forced spurious trap — and
// re-protects the data page, read-only or back to read-write, as an
// mprotect between two instructions would.
type tickLog struct {
	c      *CPU
	stride uint64
	act    bool
	ticks  int
	log    []string
}

func (l *tickLog) Tick(rip uint64) uint64 {
	c := l.c
	l.ticks++
	l.log = append(l.log, fmt.Sprintf("tick rip=%#x instrs=%d cycles=%d regs=%x flags=%#x",
		rip, c.Instrs, c.Cycles, c.Regs, c.RFlags))
	if l.act {
		switch l.ticks % 5 {
		case 1:
			if err := c.AS.Poke(dcDataVA+uint64(l.ticks%64), []byte{byte(l.ticks)}); err != nil {
				panic(err)
			}
		case 2:
			c.Bnd[1] = Bound{LB: uint64(l.ticks), UB: rip}
		case 3:
			perm := mem.PermRW
			if l.ticks%10 == 3 {
				perm = mem.PermR
			}
			if err := c.AS.Protect(dcDataVA, 1, perm); err != nil {
				panic(err)
			}
		case 4:
			c.Pending = &Trap{Kind: TrapUndefined, Addr: rip, RIP: rip, Mode: c.Mode}
		}
	}
	return l.stride
}

func (l *tickLog) OnTrap(t *Trap, cycles uint64) {
	l.log = append(l.log, fmt.Sprintf("trap %s rip=%#x addr=%#x", t.Kind, t.RIP, t.Addr))
}

// tickRun is everything architecturally visible from one ticked run.
type tickRun struct {
	log   []string
	final []string
	stats BlockStats
}

// runTicked runs cs under one engine mode with a tickLog armed at stride.
func runTicked(t *testing.T, cs covCase, mode int, stride uint64, act bool) tickRun {
	t.Helper()
	c := rawCPU(t, mem.PermRWX)
	if err := c.AS.Poke(dcCodeVA, cs.code); err != nil {
		t.Fatal(err)
	}
	setCovMode(c, mode)
	l := &tickLog{c: c, stride: stride, act: act}
	c.SetTick(l, stride)
	c.AddTrapProbe(l)
	var r tickRun
	for i := 0; i < cs.passes; i++ {
		resetRaw(t, c)
		var limit uint64 = 1000
		if len(cs.limits) > 0 {
			limit = cs.limits[i%len(cs.limits)]
		}
		res := c.Run(limit)
		r.final = append(r.final, fmt.Sprintf("%s instrs=%d cycles=%d trap=%v rip=%#x regs=%x flags=%#x bnd=%x instrs=%d cycles=%d pending=%v",
			res.Reason, res.Instrs, res.Cycles, res.Trap, c.RIP, c.Regs, c.RFlags, c.Bnd, c.Instrs, c.Cycles, c.Pending))
	}
	r.log = l.log
	r.stats = c.BlockStats()
	return r
}

// TestTickEquivalence is the ticker's differential oracle: over every
// coverage-case program (side exits, self-loops, traps mid-block, self-
// modification aborts, the fused cmp+jcc loop, limits shorter than a block,
// cached #UD) and
// every stride from 1 to past the programs' lengths — so the deadline lands
// on every instruction, a block's last entry and the jcc half of a fused
// pair included — each engine mode produces the uncached stepper's exact
// tick/trap stream and final state, with and without injector-style
// perturbations at the ticks.
func TestTickEquivalence(t *testing.T) {
	strides := []uint64{97, 1000}
	for s := uint64(1); s <= 40; s++ {
		strides = append(strides, s)
	}
	blocksRan := false
	for _, cs := range coverageCases(t) {
		for _, stride := range strides {
			for _, act := range []bool{false, true} {
				ref := runTicked(t, cs, 0, stride, act)
				if stride == 1 && !strings.HasPrefix(ref.log[0], "tick") {
					t.Fatalf("%s: the reference did not tick on its first instruction", cs.name)
				}
				for mode := 1; mode < len(covModes); mode++ {
					got := runTicked(t, cs, mode, stride, act)
					if !slices.Equal(got.log, ref.log) {
						t.Fatalf("%s stride %d act=%v: %s tick/trap stream diverges:\n got: %s\nwant: %s",
							cs.name, stride, act, covModes[mode].name,
							strings.Join(got.log, "\n      "), strings.Join(ref.log, "\n      "))
					}
					if !slices.Equal(got.final, ref.final) {
						t.Fatalf("%s stride %d act=%v: %s final state diverges:\n got: %s\nwant: %s",
							cs.name, stride, act, covModes[mode].name,
							strings.Join(got.final, "\n      "), strings.Join(ref.final, "\n      "))
					}
					if got.stats.Instrs > 0 {
						blocksRan = true
					}
				}
			}
		}
	}
	if !blocksRan {
		t.Fatal("no ticked run retired an instruction in a block")
	}
}

// tickCase returns the named coverage case.
func tickCase(t *testing.T, name string) covCase {
	t.Helper()
	for _, cs := range coverageCases(t) {
		if cs.name == name {
			return cs
		}
	}
	t.Fatalf("no coverage case %q", name)
	return covCase{}
}

// TestTickOnFusedJcc pins the deadline on the terminating jcc of the loop
// block — its last entry, and the jcc half of the pair the compiler fuses —
// while that block runs compiled on the other iterations.
func TestTickOnFusedJcc(t *testing.T) {
	cs := tickCase(t, "cmp-jcc-fused")
	// mov rcx; then the 3-entry body; the jcc is the loop's fourth entry.
	jcc := dcCodeVA + uint64(len(encodeProg(t,
		isa.MovRI(isa.RCX, 10), isa.AddRR(isa.RAX, isa.RCX), isa.SubRI(isa.RCX, 1), isa.CmpRI(isa.RCX, 0))))
	// 1 + 4*3: the 13th instruction is the third iteration's jcc; under
	// hot=1 the loop's block is compiled as soon as it forms.
	const stride = 13
	for mode := range covModes {
		r := runTicked(t, cs, mode, stride, false)
		if len(r.log) == 0 || !strings.HasPrefix(r.log[0], fmt.Sprintf("tick rip=%#x instrs=13 ", jcc)) {
			t.Fatalf("%s: first tick %q, want the jcc at %#x after 13 instructions", covModes[mode].name, r.log, jcc)
		}
		if covModes[mode].name == "compiled(hot=1)" && (r.stats.Compiled == 0 || r.stats.Instrs == 0) {
			t.Fatalf("the fused loop never ran compiled: %+v", r.stats)
		}
	}
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
	load := dcCodeVA + uint64(len(encodeProg(t, prog[:2]...)))
	for mode, m := range covModes {
		c := rawCPU(t, mem.PermRWX, prog...)
		setCovMode(c, mode)
		sp := &spuriousTicker{c: c}
		c.SetTick(sp, 3)
		c.AddTrapProbe(sp)
		res := c.Run(100)
		want := []string{fmt.Sprintf("tick rip=%#x instrs=3", load), fmt.Sprintf("trap #PF rip=%#x", load)}
		if !slices.Equal(sp.log, want) {
			t.Fatalf("%s: stream %q, want %q", m.name, sp.log, want)
		}
		if res.Reason != StopTrap || res.Trap.Kind != TrapPageFault {
			t.Fatalf("%s: run %v %v, want the real #PF", m.name, res.Reason, res.Trap)
		}
		if c.Pending == nil || c.Pending.Kind != TrapUndefined || c.Pending.RIP != load {
			t.Fatalf("%s: the spurious trap must stay queued behind the real one, pending=%v", m.name, c.Pending)
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

// loopCPU is rawCPU over a counted loop of n iterations (4 instructions
// each) under the given mode.
func loopCPU(t *testing.T, mode int, n int64) *CPU {
	t.Helper()
	body := []isa.Instr{isa.AddRR(isa.RAX, isa.RCX), isa.SubRI(isa.RCX, 1), isa.CmpRI(isa.RCX, 0)}
	c := rawCPU(t, mem.PermRWX, append(append([]isa.Instr{isa.MovRI(isa.RCX, n)}, body...),
		loopTo(t, body...), isa.Ret())...)
	setCovMode(c, mode)
	return c
}

// TestTickAcrossRunCalls: a stride longer than the Run limit carries its
// countdown across Run calls, and RestoreState rewinds the machine but not
// the countdown.
func TestTickAcrossRunCalls(t *testing.T) {
	for mode, m := range covModes {
		c := loopCPU(t, mode, 200)
		k := &countTicker{c: c, stride: 25}
		c.SetTick(k, 25)
		for i := 0; i < 12; i++ {
			if res := c.Run(10); res.Reason != StopLimit || res.Instrs != 10 {
				t.Fatalf("%s: run %d: %v after %d", m.name, i, res.Reason, res.Instrs)
			}
		}
		if want := []uint64{25, 50, 75, 100}; !slices.Equal(k.at, want) {
			t.Fatalf("%s: ticks at %v, want %v", m.name, k.at, want)
		}

		// Rewind to before the last 20 instructions: the countdown (5 left
		// at Instrs 120) keeps running, so the next tick comes 5
		// instructions after the restore, at Instrs 105, then 130.
		c2 := loopCPU(t, mode, 200)
		k2 := &countTicker{c: c2, stride: 25}
		c2.SetTick(k2, 25)
		c2.Run(100)
		s := c2.SaveState()
		c2.Run(20)
		c2.RestoreState(s)
		c2.Run(30)
		if want := []uint64{25, 50, 75, 100, 105, 130}; !slices.Equal(k2.at, want) {
			t.Fatalf("%s: ticks across a restore at %v, want %v", m.name, k2.at, want)
		}
		c2.SetTick(nil, 0)
		c2.Run(100)
		if len(k2.at) != 6 {
			t.Fatalf("%s: a disarmed ticker fired: %v", m.name, k2.at)
		}
	}
}

// TestTickForkAndSlot: CPU.Fork drops the ticker, and the single slot
// refuses a second ticker until the first is disarmed.
func TestTickForkAndSlot(t *testing.T) {
	c := loopCPU(t, 2, 200) // compiled(hot=1)
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
