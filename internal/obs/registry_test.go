package obs

import (
	"strings"
	"sync"
	"testing"

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
