package obs

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
)

func TestRegistrySnapshotSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Add(3)
	r.Counter("alpha").Inc()
	r.Gauge("mid", func() uint64 { return 7 })

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", len(snap))
	}
	wantOrder := []string{"alpha", "mid", "zeta"}
	wantValue := []uint64{1, 7, 3}
	for i, m := range snap {
		if m.Name != wantOrder[i] || m.Value != wantValue[i] {
			t.Errorf("snapshot[%d] = %s=%d, want %s=%d", i, m.Name, m.Value, wantOrder[i], wantValue[i])
		}
	}
}

func TestRegistryCounterIdentity(t *testing.T) {
	r := NewRegistry()
	a, b := r.Counter("x"), r.Counter("x")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatalf("aliased counter reads %d, want 2", b.Value())
	}
}

func TestRegistryCrossKindPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("c")
	r.Gauge("g", func() uint64 { return 0 })
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	expectPanic("counter-as-gauge", func() { r.Gauge("c", func() uint64 { return 0 }) })
	expectPanic("gauge-as-counter", func() { r.Counter("g") })
}

func TestRegistryConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("concurrent count = %d, want 8000", got)
	}
}

func TestRegistryFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("events").Add(5)
	if s := r.Format(); !strings.Contains(s, "events") || !strings.Contains(s, "5") {
		t.Errorf("format missing metric: %q", s)
	}
}

func TestRegisterFork(t *testing.T) {
	as := mem.NewAddressSpace()
	if _, err := as.Map(0x1000, 1, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := as.Freeze(); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	RegisterFork(r, "fork", func() uint64 { return 5 }, as)
	got := map[string]uint64{}
	for _, m := range r.Snapshot() {
		got[m.Name] = m.Value
	}
	want := map[string]uint64{
		"fork.forks": 5, "fork.shared_frames": 1,
		"fork.cow_breaks": 0, "fork.private_frames": 0,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
	if fa := as.StoreByte(0x1008, 0xAA); fa != nil {
		t.Fatal(fa)
	}
	if v := as.CowStats().Breaks; v != 1 {
		t.Fatalf("cow breaks after write = %d, want 1", v)
	}
}

func TestRegisterBoot(t *testing.T) {
	r := NewRegistry()
	RegisterBoot(r, "boot", func() uint64 { return 3 }, func() uint64 { return 33 })
	got := map[string]uint64{}
	for _, m := range r.Snapshot() {
		got[m.Name] = m.Value
	}
	if got["boot.fresh"] != 3 || got["boot.forked"] != 33 || len(got) != 2 {
		t.Errorf("boot gauges = %v, want boot.fresh 3 and boot.forked 33", got)
	}
}

func TestRegisterRollback(t *testing.T) {
	as := mem.NewAddressSpace()
	if _, err := as.Map(0x1000, 1, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	as.Checkpoint()
	// One structural cycle touching three entries, then a content-only one.
	if _, err := as.Map(0x2000, 2, mem.PermR); err != nil {
		t.Fatal(err)
	}
	if err := as.Protect(0x1000, 1, mem.PermR); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := as.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
	r := NewRegistry()
	RegisterRollback(r, "rollback", as)
	got := map[string]uint64{}
	for _, m := range r.Snapshot() {
		got[m.Name] = m.Value
	}
	want := map[string]uint64{"rollback.rollbacks": 2, "rollback.structural": 1, "rollback.journaled": 3}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
}

func TestRegisterPhysmap(t *testing.T) {
	as := mem.NewAddressSpace()
	if err := as.MapDemandZero(0x100000, 8); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	RegisterPhysmap(r, "physmap", as)
	// Gauges read the live space: a store materializes one page, an unmap
	// punches two holes, and a read touches nothing.
	if f := as.StoreByte(0x100000, 1); f != nil {
		t.Fatal(f)
	}
	if err := as.Unmap(0x102000, 2); err != nil {
		t.Fatal(err)
	}
	if _, f := as.LoadByte(0x105000); f != nil {
		t.Fatal(f)
	}
	got := map[string]uint64{}
	for _, m := range r.Snapshot() {
		got[m.Name] = m.Value
	}
	want := map[string]uint64{"physmap.pages": 8, "physmap.materialized": 1, "physmap.holes": 2}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
}

// TestRegisterBlockEngine runs a register-only counting loop on a bare CPU
// and checks the block-engine gauges read its live BlockStats — merged
// included: the loop's block compiles to a fused cmp+jae and one merged
// call over its three remaining entries, and since formation compiles, the
// entry and exit blocks add their own merged runs for 9 in all.
func TestRegisterBlockEngine(t *testing.T) {
	const code, stack = 0x100000, 0x200000
	as := mem.NewAddressSpace()
	if _, err := as.Map(code, 1, mem.PermX); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Map(stack, 1, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	// mov rcx,0; head: cmp rcx,50; jae out; add rax,rcx; add rcx,1; jmp head; out: ret
	prog := []isa.Instr{
		isa.MovRI(isa.RCX, 0), isa.CmpRI(isa.RCX, 50), {Op: isa.JCC, CC: isa.CondAE},
		isa.AddRR(isa.RAX, isa.RCX), isa.AddRI(isa.RCX, 1), {Op: isa.JMP}, isa.Ret(),
	}
	offs := make([]int64, len(prog)+1)
	for i, in := range prog {
		b, err := in.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		offs[i+1] = offs[i] + int64(len(b))
	}
	prog[2].Imm = offs[6] - offs[3]
	prog[5].Imm = offs[1] - offs[6]
	var text []byte
	for _, in := range prog {
		var err error
		if text, err = in.Encode(text); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.Poke(code, text); err != nil {
		t.Fatal(err)
	}
	c := cpu.New(as)
	c.SetBlockHotThreshold(1)
	c.Mode, c.RIP = cpu.Kernel, code
	c.Regs[isa.RSP] = stack + mem.PageSize - 8
	if f := as.Write(c.Regs[isa.RSP], cpu.StopMagic, 8); f != nil {
		t.Fatal(f)
	}
	if res := c.Run(10000); res.Reason != cpu.StopReturn {
		t.Fatalf("run: %+v", res)
	}
	r := NewRegistry()
	RegisterBlockEngine(r, "block_engine", c)
	got := map[string]uint64{}
	for _, m := range r.Snapshot() {
		got[m.Name] = m.Value
	}
	s := c.BlockStats()
	want := map[string]uint64{
		"block_engine.compiled": s.Compiled, "block_engine.fused": s.Fused,
		"block_engine.merged": 9, "block_engine.loop_iters": s.LoopIters,
		"block_engine.instrs": s.Instrs,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
	if s.Merged != 9 || s.LoopIters == 0 {
		t.Errorf("the loop did not run merged: %+v", s)
	}
}
