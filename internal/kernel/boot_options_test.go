package kernel

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
)

// countingProbe counts OnExec callbacks and the cycles they report.
type countingProbe struct {
	execs  int
	cycles uint64
}

func (p *countingProbe) OnExec(rip uint64, in *isa.Instr, cycles uint64) {
	p.execs++
	p.cycles += cycles
}

func TestBootOptionConflicts(t *testing.T) {
	prog, err := BuildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Build(prog, core.Vanilla)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Boot(core.Vanilla, WithImage(res), WithCache()); err == nil {
		t.Error("WithImage+WithCache: want error")
	}
}

func TestBootWithProbes(t *testing.T) {
	k, err := Boot(core.Vanilla, WithCache())
	if err != nil {
		t.Fatal(err)
	}
	p := &countingProbe{}
	k.CPU.AddProbe(p)
	r := k.Syscall(SysNull)
	if r.Failed {
		t.Fatalf("sys_null failed: %v", r.Run.Reason)
	}
	if uint64(p.execs) != k.CPU.Instrs || p.cycles != k.CPU.Cycles {
		t.Errorf("probe saw %d instrs / %d cycles, CPU %d / %d",
			p.execs, p.cycles, k.CPU.Instrs, k.CPU.Cycles)
	}
}

func TestBootWithTracer(t *testing.T) {
	tr := obs.NewTracer(0)
	k, err := Boot(core.Vanilla, WithCache(), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	snap := k.Snapshot()
	k.Syscall(SysGetpid)
	if err := k.Restore(snap); err != nil {
		t.Fatal(err)
	}
	text := obs.TraceText(tr.Events())
	for _, want := range []string{"snapshot", "syscall-enter sys_getpid", "syscall-exit sys_getpid", "restore"} {
		if !strings.Contains(text, want) {
			t.Errorf("trace missing %q:\n%s", want, text)
		}
	}
	// A user-mode fault must surface as a trap event via the CPU hook.
	tr.Reset()
	k.TriggerFault(0xdead0000)
	if !strings.Contains(obs.TraceText(tr.Events()), "trap #PF") {
		t.Errorf("trace missing trap event:\n%s", obs.TraceText(tr.Events()))
	}
}
