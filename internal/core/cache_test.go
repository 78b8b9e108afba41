package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/diversify"
	"repro/internal/sfi"
)

// TestNameExhaustiveGrid pins Name() over the full XOM × Diversify × RAProt
// grid. The regression this guards: XOMHideM used to fall through the XOM
// switch and render as "Vanilla".
func TestNameExhaustiveGrid(t *testing.T) {
	xoms := []struct {
		cfg  Config
		name string
	}{
		{Config{}, ""},
		{Config{XOM: XOMSFI, SFILevel: sfi.O0}, "SFI(-O0)"},
		{Config{XOM: XOMSFI, SFILevel: sfi.O1}, "SFI(-O1)"},
		{Config{XOM: XOMSFI, SFILevel: sfi.O2}, "SFI(-O2)"},
		{Config{XOM: XOMSFI, SFILevel: sfi.O3}, "SFI"},
		{Config{XOM: XOMMPX}, "MPX"},
		{Config{XOM: XOMEPT}, "EPT"},
		{Config{XOM: XOMHideM}, "HideM"},
	}
	divs := []struct {
		diversify bool
		ra        diversify.RAProt
		name      string
	}{
		{false, diversify.RANone, ""},
		{true, diversify.RANone, "FG"},
		{true, diversify.RADecoy, "D"},
		{true, diversify.RAEncrypt, "X"},
	}
	seen := map[string]Config{}
	for _, x := range xoms {
		for _, d := range divs {
			cfg := x.cfg
			cfg.Diversify, cfg.RAProt = d.diversify, d.ra
			want := ""
			switch {
			case x.name == "" && d.name == "":
				want = "Vanilla"
			case x.name == "":
				want = d.name
			case d.name == "":
				want = x.name
			default:
				want = x.name + "+" + d.name
			}
			got := cfg.Name()
			if got != want {
				t.Errorf("Name(%+v) = %q, want %q", cfg, got, want)
			}
			if prev, dup := seen[got]; dup {
				t.Errorf("name %q ambiguous: %+v and %+v", got, prev, cfg)
			}
			seen[got] = cfg
		}
	}
}

// TestPresetSeedConvention pins the documented convention: Vanilla keeps
// Seed 0, every protected preset uses Seed 1, and preset names are unique
// (so the build-cache key space and the report columns cannot collide).
func TestPresetSeedConvention(t *testing.T) {
	names := map[string]bool{}
	for _, p := range Presets() {
		if names[p.Name()] {
			t.Errorf("duplicate preset name %q", p.Name())
		}
		names[p.Name()] = true
		want := int64(1)
		if p.Name() == "Vanilla" {
			want = 0
		}
		if p.Seed != want {
			t.Errorf("preset %s: Seed = %d, want %d", p.Name(), p.Seed, want)
		}
	}
}

// TestBuildKeyDistinguishesConfigs: any two presets (and seed variants)
// must key differently, while runtime-only knobs (watchdog budget, fault
// plan) must not affect the key — they do not change the built image.
func TestBuildKeyDistinguishesConfigs(t *testing.T) {
	keys := map[string]string{}
	for _, p := range Presets() {
		k := p.BuildKey()
		if prev, dup := keys[k]; dup {
			t.Errorf("presets %s and %s share build key %q", prev, p.Name(), k)
		}
		keys[k] = p.Name()
	}
	a := Config{XOM: XOMSFI, SFILevel: sfi.O3, Diversify: true, Seed: 1}
	b := a
	b.Seed = 2
	if a.BuildKey() == b.BuildKey() {
		t.Error("seed must participate in the build key")
	}
	c := a
	c.WatchdogBudget = 1 << 20
	if a.BuildKey() != c.BuildKey() {
		t.Error("watchdog budget is runtime-only and must not change the key")
	}
}

// TestCacheSingleflight: 16 goroutines racing on the same (program, config)
// must coalesce into exactly one build and share the identical result
// pointer; a second config builds once more.
func TestCacheSingleflight(t *testing.T) {
	src := miniProg(t)
	cache := NewImageCache(nil)
	cfg := Config{XOM: XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 1}

	var wg sync.WaitGroup
	results := make([]*BuildResult, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cache.Build(src, "mini", cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r != results[0] {
			t.Fatalf("goroutine %d got a different result pointer (cache did not coalesce)", i)
		}
	}
	if got := cache.Stats().Builds; got != 1 {
		t.Fatalf("16 concurrent requests ran %d builds, want 1", got)
	}
	if got := cache.Stats().Hits; got != 15 {
		t.Fatalf("Stats().Hits = %d, want 15", got)
	}

	other := cfg
	other.Seed = 2
	if _, err := cache.Build(src, "mini", other); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Builds; got != 2 {
		t.Fatalf("distinct config must build once more: Stats().Builds = %d, want 2", got)
	}
}

// TestCacheDistinguishesPrograms: the same config over two corpus
// identities must not share an image.
func TestCacheDistinguishesPrograms(t *testing.T) {
	cache := NewImageCache(nil)
	cfg := Config{XOM: XOMSFI, SFILevel: sfi.O3}
	r1, err := cache.Build(miniProg(t), "a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cache.Build(miniProg(t), "b", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatal("different program identities must not share a cache entry")
	}
	if got := cache.Stats().Builds; got != 2 {
		t.Fatalf("Stats().Builds = %d, want 2", got)
	}
}

// TestCachedBuildEquivalence: a cache hit must hand back a result
// indistinguishable from an uncached Build — identical image bytes, symbol
// table, and pass statistics.
func TestCachedBuildEquivalence(t *testing.T) {
	src := miniProg(t)
	for _, cfg := range []Config{
		{XOM: XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 1},
		{XOM: XOMMPX, Diversify: true, RAProt: diversify.RADecoy, Seed: 1},
		{XOM: XOMHideM, Seed: 1},
	} {
		cached, err := NewImageCache(nil).Build(src, "mini", cfg)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := Build(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%x", cached.Image.Text) != fmt.Sprintf("%x", direct.Image.Text) {
			t.Errorf("%s: cached image bytes differ from a direct build", cfg.Name())
		}
		if len(cached.Image.Symbols) != len(direct.Image.Symbols) {
			t.Errorf("%s: symbol tables differ", cfg.Name())
		}
		for name, addr := range direct.Image.Symbols {
			if cached.Image.Symbols[name] != addr {
				t.Errorf("%s: symbol %s at %#x cached vs %#x direct", cfg.Name(), name, cached.Image.Symbols[name], addr)
			}
		}
		if cached.SFIStats != direct.SFIStats {
			t.Errorf("%s: SFI stats differ: %+v vs %+v", cfg.Name(), cached.SFIStats, direct.SFIStats)
		}
		if cached.DivStats != direct.DivStats {
			t.Errorf("%s: diversification stats differ: %+v vs %+v", cfg.Name(), cached.DivStats, direct.DivStats)
		}
	}
}
