package inject_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/inject"
)

// trapLog records every trap delivery, the stream a ticker's deadline must
// not reorder.
type trapLog struct {
	c   *cpu.CPU
	log []string
}

func (l *trapLog) OnTrap(t *cpu.Trap, cycles uint64) {
	l.log = append(l.log, fmt.Sprintf("%s rip=%#x addr=%#x instrs=%d", t.Kind, t.RIP, t.Addr, l.c.Instrs))
}

// engineModes are the CPU engine configurations an injected run must agree
// across; the first, the uncached stepper, is the reference.
var engineModes = []struct {
	name          string
	cache, blocks bool
	hot           int
}{
	{"uncached", false, false, 1},
	{"cache-only", true, false, 1},
	{"blocks(hot=1)", true, true, 1},
	{"blocks(hot=default)", true, true, cpu.DefaultBlockHotThreshold},
}

// injectedRun is everything an injected run makes visible.
type injectedRun struct {
	events   []inject.Event
	outcomes []string
	traps    []string
	state    string
	blockIns uint64
}

// runInjected boots a kernel under one engine mode, attaches an injector
// for plan, and drives the workload eight times: twice back to back, then
// six more times each from the restored boot snapshot, so Restores land
// between Attach and Detach and the countdown carries across them.
func runInjected(t *testing.T, plan inject.Plan, mode int) injectedRun {
	t.Helper()
	m := engineModes[mode]
	k := bootKernel(t, 55)
	c := k.CPU
	c.SetDecodeCache(m.cache)
	c.SetBlockEngine(m.blocks)
	c.SetBlockHotThreshold(m.hot)
	snap := k.Snapshot()
	tl := &trapLog{c: c}
	c.AddTrapProbe(tl)
	inj := inject.New(plan)
	inj.Attach(c, k.Space.AS, k.FaultTargets())
	var r injectedRun
	for pass := 0; pass < 8; pass++ {
		if pass >= 2 {
			if err := k.Restore(snap); err != nil {
				t.Fatal(err)
			}
		}
		r.outcomes = append(r.outcomes, workload(k)...)
	}
	inj.Detach()
	r.events = inj.Events
	r.traps = tl.log
	r.state = fmt.Sprintf("instrs=%d cycles=%d rip=%#x regs=%x flags=%#x bnd=%x mode=%s pending=%v",
		c.Instrs, c.Cycles, c.RIP, c.Regs, c.RFlags, c.Bnd, c.Mode, c.Pending)
	r.blockIns = c.BlockStats().Instrs
	return r
}

// TestInjectorDeadlineEquivalence: an injected kernel run retires the same
// instructions, cycles and traps, ends in the same state, and logs the
// exact same fault events (instruction count, kind, address and note) in
// every engine configuration as on the uncached stepper — so the ticker's
// deadline lets blocks run between injection opportunities without moving
// a single one.
func TestInjectorDeadlineEquivalence(t *testing.T) {
	blocksRan := false
	for _, every := range []uint64{7, 64, 512} {
		plan := inject.Plan{
			Seed: 99 + int64(every), Every: every, MaxFaults: -1,
			ByteFlip: 0.3, PermFlip: 0.1, BndCorrupt: 0.1, KeyClobber: 0.1, SpuriousTrap: 0.1,
		}
		ref := runInjected(t, plan, 0)
		if len(ref.events) == 0 || len(ref.traps) == 0 {
			t.Fatalf("every=%d: the reference injected %d faults and delivered %d traps; the plan is too thin to test",
				every, len(ref.events), len(ref.traps))
		}
		for mode := 1; mode < len(engineModes); mode++ {
			got := runInjected(t, plan, mode)
			name := fmt.Sprintf("every=%d %s", every, engineModes[mode].name)
			if !slices.Equal(got.events, ref.events) {
				t.Fatalf("%s: fault events diverge:\n got: %v\nwant: %v", name, got.events, ref.events)
			}
			if !slices.Equal(got.traps, ref.traps) {
				t.Fatalf("%s: trap stream diverges:\n got: %s\nwant: %s", name,
					strings.Join(got.traps, "\n      "), strings.Join(ref.traps, "\n      "))
			}
			if !slices.Equal(got.outcomes, ref.outcomes) {
				t.Fatalf("%s: syscall outcomes %v, want %v", name, got.outcomes, ref.outcomes)
			}
			if got.state != ref.state {
				t.Fatalf("%s: final state\n got: %s\nwant: %s", name, got.state, ref.state)
			}
			if engineModes[mode].blocks && got.blockIns > 0 {
				blocksRan = true
			}
		}
	}
	if !blocksRan {
		t.Fatal("no injected run retired an instruction in a block")
	}
}
