package attack

import (
	"testing"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/kernel"
	"repro/internal/sfi"
)

func TestGadgetSurvivalVanillaIsTotal(t *testing.T) {
	a := boot(t, core.Vanilla)
	b := boot(t, core.Vanilla)
	total, surviving := GadgetSurvival(a, b)
	if total == 0 {
		t.Fatal("no gadgets found")
	}
	if surviving != total {
		t.Fatalf("identical builds must share all gadgets: %d/%d", surviving, total)
	}
}

func TestGadgetSurvivalDiversifiedIsNegligible(t *testing.T) {
	// §7.3: "no gadget remained at its original location".
	a := boot(t, core.Config{Diversify: true, Seed: 201})
	b := boot(t, core.Config{Diversify: true, Seed: 202})
	total, surviving := GadgetSurvival(a, b)
	if total == 0 {
		t.Fatal("no gadgets found")
	}
	frac := float64(surviving) / float64(total)
	if frac > 0.02 {
		t.Fatalf("gadget survival %.3f (%d/%d) too high under diversification", frac, surviving, total)
	}
}

func TestRaceHazardWindowExists(t *testing.T) {
	// §5.3 "Race Hazards": the cleartext window between the callq and the
	// prologue encryption is real and observable.
	k := boot(t, core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 203})
	r := RaceHazard(k)
	if !r.Success {
		t.Fatalf("the race window should be observable: %v", r)
	}
}

func TestRegRandChangesScratchAssignments(t *testing.T) {
	// The §5.3 register-randomization complement: the same function uses
	// different scratch registers across seeds.
	a := boot(t, core.Config{Diversify: true, RegRand: true, Seed: 301})
	prog, err := kernel.BuildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	ia, err := core.Instrument(prog, a.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := core.Instrument(prog, core.Config{Diversify: true, RegRand: true, Seed: 302})
	if err != nil {
		t.Fatal(err)
	}
	fa := ia.Prog.Func("sys_null")
	fb := ib.Prog.Func("sys_null")
	if fa == nil || fb == nil {
		t.Fatal("sys_null missing")
	}
	if fa.String() == fb.String() {
		t.Fatal("register randomization produced identical code across seeds")
	}
	if a.Build.DivStats.RegRandFuncs == 0 {
		t.Fatal("no functions register-randomized")
	}
	// And semantics are preserved: the kernel still works.
	if r := a.Syscall(kernel.SysNull); r.Failed || r.Ret != 0 {
		t.Fatalf("regrand kernel broken: %v", r.Run.Reason)
	}
}

func TestRegRandKernelFullyFunctional(t *testing.T) {
	k := boot(t, core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true,
		RAProt: diversify.RADecoy, RegRand: true, Seed: 303})
	if err := k.WriteUser(0, append([]byte("testfile"), 0)); err != nil {
		t.Fatal(err)
	}
	fd := k.Syscall(kernel.SysOpen, kernel.UserBuf)
	if fd.Failed || int64(fd.Ret) < 0 {
		t.Fatalf("open under regrand: %v ret=%d", fd.Run.Reason, int64(fd.Ret))
	}
	r := k.Syscall(kernel.SysRead, fd.Ret, kernel.UserBuf+4096, 64)
	if r.Failed || r.Ret != 64 {
		t.Fatalf("read under regrand: %v ret=%d trap=%v", r.Run.Reason, int64(r.Ret), r.Run.Trap)
	}
}

func TestFullCoverageInstrumentsStubs(t *testing.T) {
	// §6 future work: assembler-level instrumentation covers the entry
	// stubs too; the accessor clones stay exempt.
	normal := boot(t, core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Seed: 401})
	full := boot(t, core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, FullCoverage: true, Seed: 401})
	if full.Build.SFIStats.ReadsTotal <= normal.Build.SFIStats.ReadsTotal {
		t.Fatalf("full coverage must analyze more reads: %d vs %d",
			full.Build.SFIStats.ReadsTotal, normal.Build.SFIStats.ReadsTotal)
	}
	// The syscall surface still works end to end.
	if r := full.Syscall(kernel.SysNull); r.Failed {
		t.Fatalf("full-coverage kernel broken: %v %v", r.Run.Reason, r.Run.Trap)
	}
	if err := full.WriteUser(0, append([]byte("testfile"), 0)); err != nil {
		t.Fatal(err)
	}
	if r := full.Syscall(kernel.SysOpen, kernel.UserBuf); r.Failed || int64(r.Ret) < 0 {
		t.Fatalf("open under full coverage failed")
	}
	// Clones remain uninstrumented: the ftrace peek still reads code.
	if r := full.Syscall(kernel.SysFtracePeek, full.Sym("_text")+16); r.Failed {
		t.Fatalf("accessor clone must stay exempt: %v", r.Run.Trap)
	}
	// And the leak is still blocked.
	if r := full.Syscall(kernel.SysLeak, full.Sym("_text")+16); !full.Violated(r) {
		t.Fatal("R^X must still hold under full coverage")
	}
}
