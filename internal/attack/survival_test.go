package attack

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/isa"
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

// scanSurvival is GadgetSurvival as a full scan: every gadget built, its
// length summed from its instructions, its bytes compared with b's.
func scanSurvival(a, b []byte) (total, surviving int) {
	for _, g := range ScanGadgets(a, 0) {
		total++
		end := g.Addr
		for _, in := range g.Ins {
			end += uint64(in.Length())
		}
		if end <= uint64(len(b)) && bytes.Equal(a[g.Addr:end], b[g.Addr:end]) {
			surviving++
		}
	}
	return total, surviving
}

// TestSurvivalMatchesFullScan: counting windows gives the full scan's
// (total, surviving) on the Vanilla pair and on the ladder's survival
// pairs (Diversify at seed and seed+1) for seeds 101..132.
func TestSurvivalMatchesFullScan(t *testing.T) {
	prog, err := kernel.BuildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	text := func(cfg core.Config) []byte {
		b, err := core.Build(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b.Image.Text
	}
	pairs := [][2]core.Config{{core.Vanilla, core.Vanilla}}
	for seed := int64(101); seed < 133; seed++ {
		pairs = append(pairs, [2]core.Config{{Diversify: true, Seed: seed}, {Diversify: true, Seed: seed + 1}})
	}
	for _, p := range pairs {
		a, b := text(p[0]), text(p[1])
		wt, ws := scanSurvival(a, b)
		gt, gs := survival(a, b)
		if gt != wt || gs != ws {
			t.Fatalf("%s seed %d vs %d: counted %d/%d survive, the full scan %d/%d",
				p[0].Name(), p[0].Seed, p[1].Seed, gs, gt, ws, wt)
		}
	}
}

// TestSurvivalCountsEveryGadget: survival and ScanGadgets share one window
// predicate, so an image compared with itself counts exactly the gadgets
// the scan builds, all surviving, on every preset and on random bytes; a
// random pair also matches the full scan's survivors.
func TestSurvivalCountsEveryGadget(t *testing.T) {
	prog, err := kernel.BuildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range core.Presets() {
		b, err := core.Build(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := len(ScanGadgets(b.Image.Text, 0))
		if total, surviving := survival(b.Image.Text, b.Image.Text); total != n || surviving != n {
			t.Fatalf("%s: %d/%d survive against itself, ScanGadgets finds %d", cfg.Name(), surviving, total, n)
		}
	}
	r := rand.New(rand.NewSource(1))
	found := 0
	for i := 0; i < 64; i++ {
		// Bytes biased towards rets and register numbers, so windows
		// decode; long enough, some of them, to shard.
		a := make([]byte, r.Intn(3*scanChunkMin))
		for j := range a {
			switch r.Intn(8) {
			case 0:
				a[j] = 0xC3
			case 1, 2:
				a[j] = byte(r.Intn(isa.NumGPR))
			default:
				a[j] = byte(r.Intn(256))
			}
		}
		n := len(ScanGadgets(a, 0))
		if total, surviving := survival(a, a); total != n || surviving != n {
			t.Fatalf("random slice %d (%d bytes): %d/%d survive against itself, ScanGadgets finds %d", i, len(a), surviving, total, n)
		}
		found += n
		b := bytes.Clone(a[:r.Intn(len(a)+1)])
		for k := 0; k < len(b)/64; k++ {
			b[r.Intn(len(b))] ^= byte(1 + r.Intn(255))
		}
		wt, ws := scanSurvival(a, b)
		if gt, gs := survival(a, b); gt != wt || gs != ws {
			t.Fatalf("random pair %d: counted %d/%d survive, the full scan %d/%d", i, gs, gt, ws, wt)
		}
	}
	if found == 0 {
		t.Fatal("the random slices hold no gadget")
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
