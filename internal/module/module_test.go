package module

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/diversify"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sfi"
)

// testModule builds a module with a function that reads its own module
// data, calls a kernel helper, and returns a computed value, plus a
// function with an attacker-reachable arbitrary read.
func testModule(t *testing.T) *Object {
	t.Helper()
	entry, err := ir.NewBuilder("mod_entry").
		I(
			isa.MovSym(isa.R8, "mod_counter"),
			isa.Load(isa.RAX, isa.Mem(isa.R8, 0)),
			isa.Inc(isa.RAX),
			isa.Store(isa.Mem(isa.R8, 0), isa.RAX),
			isa.MovRR(isa.RDI, isa.RAX),
			isa.Call("do_set_uid"), // kernel extern: sets cred.uid = rdi
			isa.MovSym(isa.R8, "mod_counter"),
			isa.Load(isa.RAX, isa.Mem(isa.R8, 0)),
			isa.Ret(),
		).Func()
	if err != nil {
		t.Fatal(err)
	}
	peek, err := ir.NewBuilder("mod_peek").
		I(
			isa.Load(isa.RAX, isa.Mem(isa.RDI, 0)),
			isa.Ret(),
		).Func()
	if err != nil {
		t.Fatal(err)
	}
	return &Object{
		Name: "krxtest",
		Prog: &ir.Program{
			Funcs: []*ir.Function{entry, peek},
			Data:  []ir.DataSym{{Name: "mod_counter", Bytes: make([]byte, 8)}},
		},
	}
}

func bootK(t *testing.T, cfg core.Config) *kernel.Kernel {
	t.Helper()
	k, err := kernel.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// callModFunc invokes a loaded module function directly in kernel mode.
func callModFunc(t *testing.T, k *kernel.Kernel, addr uint64, arg uint64) *cpu.RunResult {
	t.Helper()
	stack, err := k.Space.AllocMapped(2)
	if err != nil {
		t.Fatal(err)
	}
	top := stack + 2*mem.PageSize - 16
	c := k.CPU
	c.Mode = cpu.Kernel
	c.SetReg(isa.RSP, top)
	if f := c.AS.Write(top, cpu.StopMagic, 8); f != nil {
		t.Fatal(f)
	}
	c.SetReg(isa.RDI, arg)
	c.RIP = addr
	return c.Run(1 << 18)
}

func fullKRX() core.Config {
	return core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 31}
}

func TestLoadRunUnload(t *testing.T) {
	k := bootK(t, fullKRX())
	l := NewLoader(k)
	m, err := l.Load(testModule(t))
	if err != nil {
		t.Fatal(err)
	}
	if !l.IsLoaded("krxtest") {
		t.Fatal("module not tracked")
	}
	// The module function runs, updates module data, calls into the
	// kernel image across the modules_text -> .text boundary.
	res := callModFunc(t, k, m.Symbols["mod_entry"], 0)
	if res.Reason != cpu.StopReturn {
		t.Fatalf("mod_entry: %v trap=%v", res.Reason, res.Trap)
	}
	if got := k.CPU.Reg(isa.RAX); got != 1 {
		t.Fatalf("mod_counter = %d, want 1", got)
	}
	// Kernel extern was really invoked: uid == counter value.
	b, _ := k.Space.AS.Peek(k.Sym("cred"), 8)
	if b[0] != 1 {
		t.Fatalf("do_set_uid not reached: uid=%d", b[0])
	}
	if err := l.Unload("krxtest"); err != nil {
		t.Fatal(err)
	}
	if l.IsLoaded("krxtest") {
		t.Fatal("module still tracked after unload")
	}
	if k.Space.AS.Mapped(m.TextAddr) {
		t.Fatal("module text still mapped")
	}
}

func TestModuleTextIsExecuteOnly(t *testing.T) {
	k := bootK(t, fullKRX())
	l := NewLoader(k)
	m, err := l.Load(testModule(t))
	if err != nil {
		t.Fatal(err)
	}
	// The instrumented arbitrary read inside the module must not be able
	// to read module (or kernel) text.
	res := callModFunc(t, k, m.Symbols["mod_peek"], m.TextAddr)
	if res.Reason == cpu.StopReturn {
		t.Fatal("module text read through instrumented module code must be blocked")
	}
	// But module data reads work.
	res = callModFunc(t, k, m.Symbols["mod_peek"], m.Symbols["mod_counter"])
	if res.Reason != cpu.StopReturn {
		t.Fatalf("module data read: %v trap=%v", res.Reason, res.Trap)
	}
}

func TestModuleSynonymClosedUnderKRX(t *testing.T) {
	k := bootK(t, fullKRX())
	l := NewLoader(k)
	m, err := l.Load(testModule(t))
	if err != nil {
		t.Fatal(err)
	}
	// The physmap alias of the module's text frames must be unmapped.
	syn := k.Space.SynonymAddr
	_ = syn
	// (MapModuleText owns the pfn; reconstruct the physmap address.)
	if _, f := k.Space.AS.LoadByte(physAddr(m)); f == nil {
		t.Fatal("module text physmap synonym still readable")
	}
}

func physAddr(m *Loaded) uint64 {
	return 0xffff880000000000 + uint64(m.pfn)<<12
}

func TestUnloadZapsAndRestoresSynonym(t *testing.T) {
	k := bootK(t, fullKRX())
	l := NewLoader(k)
	m, err := l.Load(testModule(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Unload("krxtest"); err != nil {
		t.Fatal(err)
	}
	// Synonym restored, contents zapped.
	b, f := k.Space.AS.LoadByte(physAddr(m))
	if f != nil {
		t.Fatalf("synonym not restored: %v", f)
	}
	if b != 0 {
		t.Fatal("module text not zapped on unload")
	}
}

func TestModuleDiversifiedAcrossLoads(t *testing.T) {
	// Two kernels with different seeds must place/shuffle module code
	// differently (module diversification at load time).
	addrs := map[uint64]bool{}
	texts := map[string]bool{}
	for _, seed := range []int64{41, 42} {
		cfg := fullKRX()
		cfg.Seed = seed
		k := bootK(t, cfg)
		l := NewLoader(k)
		m, err := l.Load(testModule(t))
		if err != nil {
			t.Fatal(err)
		}
		addrs[m.Symbols["mod_entry"]-m.TextAddr] = true
		raw, err2 := k.Space.AS.Peek(m.TextAddr, int(m.TextSize))
		if err2 != nil {
			t.Fatal(err2)
		}
		texts[string(raw)] = true
	}
	if len(texts) != 2 {
		t.Fatal("module text identical across seeds (no diversification)")
	}
}

func TestVanillaModuleKeepsSynonym(t *testing.T) {
	k := bootK(t, core.Vanilla)
	l := NewLoader(k)
	m, err := l.Load(testModule(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, f := k.Space.AS.LoadByte(physAddr(m)); f != nil {
		t.Fatalf("vanilla module synonym should remain readable: %v", f)
	}
	res := callModFunc(t, k, m.Symbols["mod_entry"], 0)
	if res.Reason != cpu.StopReturn {
		t.Fatalf("vanilla module run: %v %v", res.Reason, res.Trap)
	}
}

func TestDoubleLoadRejected(t *testing.T) {
	k := bootK(t, core.Vanilla)
	l := NewLoader(k)
	if _, err := l.Load(testModule(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load(testModule(t)); err == nil {
		t.Fatal("double load must be rejected")
	}
	if err := l.Unload("nope"); err == nil {
		t.Fatal("unload of unknown module must fail")
	}
}

func TestMPXModuleEnforced(t *testing.T) {
	k := bootK(t, core.Config{XOM: core.XOMMPX, Seed: 44})
	l := NewLoader(k)
	m, err := l.Load(testModule(t))
	if err != nil {
		t.Fatal(err)
	}
	k.CPU.Bnd[0] = k.CPU.KernelBnd0 // as after kernel entry
	res := callModFunc(t, k, m.Symbols["mod_peek"], k.Sym("_text"))
	if res.Reason != cpu.StopTrap || res.Trap.Kind != cpu.TrapBoundRange {
		t.Fatalf("MPX module read of kernel text must #BR: %v %v", res.Reason, res.Trap)
	}
}

func TestMixedModeUnprotectedModule(t *testing.T) {
	// §6: kR^X supports mixed code — an unprotected module loads alongside
	// the protected kernel. Its own reads are uninstrumented, so it can
	// (dangerously, by design) read code.
	k := bootK(t, fullKRX())
	l := NewLoader(k)
	obj := testModule(t)
	obj.Name = "legacy"
	obj.Unprotected = true
	m, err := l.Load(obj)
	if err != nil {
		t.Fatal(err)
	}
	// Functional: runs and calls kernel externs.
	res := callModFunc(t, k, m.Symbols["mod_entry"], 0)
	if res.Reason != cpu.StopReturn {
		t.Fatalf("unprotected module run: %v %v", res.Reason, res.Trap)
	}
	// Its arbitrary read is NOT range-checked: it can read kernel text
	// (the hardware allows it — X implies R). This is the documented cost
	// of incremental deployment.
	res = callModFunc(t, k, m.Symbols["mod_peek"], k.Sym("_text"))
	if res.Reason != cpu.StopReturn {
		t.Fatalf("unprotected module read should be unchecked: %v %v", res.Reason, res.Trap)
	}
	// A protected module on the same kernel still cannot.
	prot := testModule(t)
	m2, err := l.Load(prot)
	if err != nil {
		t.Fatal(err)
	}
	res = callModFunc(t, k, m2.Symbols["mod_peek"], k.Sym("_text"))
	if res.Reason == cpu.StopReturn {
		t.Fatal("protected module read must be blocked")
	}
}

func TestOversizedModuleRejected(t *testing.T) {
	k := bootK(t, core.Vanilla)
	l := NewLoader(k)
	big := &Object{
		Name: "huge",
		Prog: &ir.Program{
			Funcs: []*ir.Function{mustRet(t)},
			BSS:   []ir.BSSSym{{Name: "blob", Size: 2 << 30}},
		},
	}
	if _, err := l.Load(big); err == nil {
		t.Fatal("oversized module must be rejected by the (fixed) sanity check")
	}
}

func mustRet(t *testing.T) *ir.Function {
	t.Helper()
	f, err := ir.NewBuilder("noop").I(isa.Ret()).Func()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestModuleGetsRegRand: a module goes through the kernel's whole pass
// pipeline, so register randomization reaches it as it reaches the
// kernel. The module references no kernel symbol, so the two loads can
// differ only by what the passes did to it.
func TestModuleGetsRegRand(t *testing.T) {
	fn, err := ir.NewBuilder("mod_scratch").
		I(
			isa.MovRR(isa.R8, isa.RDI),
			isa.AddRI(isa.R8, 1),
			isa.MovRR(isa.R9, isa.R8),
			isa.MovRR(isa.RAX, isa.R9),
			isa.Ret(),
		).Func()
	if err != nil {
		t.Fatal(err)
	}
	obj := &Object{Name: "regrand", Prog: &ir.Program{Funcs: []*ir.Function{fn}}}
	var texts [2][]byte
	for i, regRand := range []bool{false, true} {
		cfg := fullKRX()
		cfg.RegRand = regRand
		k := bootK(t, cfg)
		m, err := NewLoader(k).Load(obj)
		if err != nil {
			t.Fatal(err)
		}
		if res := callModFunc(t, k, m.Symbols["mod_scratch"], 41); res.Reason != cpu.StopReturn || k.CPU.Reg(isa.RAX) != 42 {
			t.Fatalf("RegRand=%t: mod_scratch: %v rax=%d", regRand, res.Reason, k.CPU.Reg(isa.RAX))
		}
		if texts[i], err = k.Space.AS.Peek(m.TextAddr, int(m.TextSize)); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(texts[0], texts[1]) {
		t.Fatal("module text identical with and without RegRand: the module skipped register randomization")
	}
}
