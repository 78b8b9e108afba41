package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/diversify"
	"repro/internal/sfi"
	"repro/internal/store"
)

// corruptBlobFile flips one byte of the stored image blob on disk.
func corruptBlobFile(t *testing.T, disk *store.Disk, key store.Key) {
	t.Helper()
	path := filepath.Join(disk.Dir(), store.KindImage, key.Hash()[:2], key.Hash()+".blob")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestBuildResultBlobRoundTrip(t *testing.T) {
	src := miniProg(t)
	cfg := Config{XOM: XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 1}
	direct, err := Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeBuildResult(direct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBuildResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%x", got.Image.Text) != fmt.Sprintf("%x", direct.Image.Text) {
		t.Error("decoded image bytes differ")
	}
	for name, addr := range direct.Image.Symbols {
		if got.Image.Symbols[name] != addr {
			t.Errorf("symbol %s: %#x decoded vs %#x direct", name, got.Image.Symbols[name], addr)
		}
	}
	if got.SFIStats != direct.SFIStats {
		t.Errorf("SFI stats: %+v vs %+v", got.SFIStats, direct.SFIStats)
	}
	if got.DivStats != direct.DivStats {
		t.Errorf("diversification stats: %+v vs %+v", got.DivStats, direct.DivStats)
	}
	// The audit's entry-phantom check reads the exemptions.
	if !slices.Equal(got.NoDiversify, direct.NoDiversify) || len(got.NoDiversify) != len(got.Image.Funcs) {
		t.Fatalf("exemptions: %v decoded vs %v direct", got.NoDiversify, direct.NoDiversify)
	}
	if !slices.Contains(got.NoDiversify, true) || !slices.Contains(got.NoDiversify, false) {
		t.Fatalf("miniProg must have exempt and diversified functions: %v", got.NoDiversify)
	}
	if _, err := DecodeBuildResult(data[:8]); err == nil {
		t.Fatal("truncated blob decoded")
	}
	// Layout 1 had no magic or version word: the rest of the blob alone
	// must not decode.
	if _, err := DecodeBuildResult(data[8:]); err == nil {
		t.Fatal("blob without its magic and version decoded")
	}
	bumped := slices.Clone(data)
	bumped[4]++
	if _, err := DecodeBuildResult(bumped); err == nil {
		t.Fatal("blob of another layout version decoded")
	}
}

func TestImageCacheWarmStartsFromStore(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	src := miniProg(t)
	cfg := Config{XOM: XOMSFI, SFILevel: sfi.O3, Seed: 1, WatchdogBudget: 1 << 20}

	cold := NewImageCache(disk)
	r1, err := cold.Build(src, "mini", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.Stats().Builds; got != 1 {
		t.Fatalf("cold cache Builds = %d, want 1", got)
	}

	// A fresh cache over the same store is the second process: the image
	// must come from disk with zero compilations.
	warm := NewImageCache(disk)
	r2, err := warm.Build(src, "mini", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Builds is tracked per-cache (store layers report zero), so the warm
	// cache's folded count is exactly its own compilations.
	if got := warm.Stats().Builds; got != 0 {
		t.Fatalf("warm cache compiled %d times, want 0", got)
	}
	if fmt.Sprintf("%x", r2.Image.Text) != fmt.Sprintf("%x", r1.Image.Text) {
		t.Error("warm-started image differs from the built one")
	}
	// Runtime-only knobs come from the requesting config, not the blob.
	if r2.Config.WatchdogBudget != cfg.WatchdogBudget {
		t.Errorf("decoded result Config.WatchdogBudget = %d, want %d",
			r2.Config.WatchdogBudget, cfg.WatchdogBudget)
	}
	if !slices.Equal(r2.NoDiversify, r1.NoDiversify) {
		t.Fatalf("warm-started exemptions %v, built %v", r2.NoDiversify, r1.NoDiversify)
	}
}

// TestImageCacheWarmCountersAreHonest: a second process over a populated
// store reads one blob from disk and does nothing else, and its counters
// say exactly that.
func TestImageCacheWarmCountersAreHonest(t *testing.T) {
	dir := t.TempDir()
	cold, err := store.Open(dir, "0")
	if err != nil {
		t.Fatal(err)
	}
	src := miniProg(t)
	cfg := Config{XOM: XOMSFI, SFILevel: sfi.O3, Diversify: true, Seed: 1}
	if _, err := NewImageCache(cold).Build(src, "mini", cfg); err != nil {
		t.Fatal(err)
	}
	key := store.Key{ProgID: "mini", BuildKey: cfg.BuildKey()}
	info, err := os.Stat(filepath.Join(dir, store.KindImage, key.Hash()[:2], key.Hash()+".blob"))
	if err != nil {
		t.Fatal(err)
	}

	disk, err := store.Open(dir, "0")
	if err != nil {
		t.Fatal(err)
	}
	warm := NewImageCache(disk)
	if _, err := warm.Build(src, "mini", cfg); err != nil {
		t.Fatal(err)
	}
	want := store.Stats{Hits: 1, Bytes: uint64(info.Size())}
	if got := warm.Stats(); got != want {
		t.Fatalf("warm Stats = %+v, want %+v", got, want)
	}
}

func TestImageCacheRebuildsAfterCorruption(t *testing.T) {
	dir := t.TempDir()
	disk, err := store.OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := miniProg(t)
	cfg := Config{XOM: XOMMPX, Seed: 1}
	if _, err := NewImageCache(disk).Build(src, "mini", cfg); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored image behind the store's back, then warm-start: the
	// checksum rejects the blob and the cache falls back to a rebuild.
	key := store.Key{ProgID: "mini", BuildKey: cfg.BuildKey()}
	corruptBlobFile(t, disk, key)

	warm := NewImageCache(disk)
	res, err := warm.Build(src, "mini", cfg)
	if err != nil {
		t.Fatalf("rebuild after corruption failed: %v", err)
	}
	if res == nil || res.Image == nil {
		t.Fatal("rebuild returned no image")
	}
	s := warm.Stats()
	if s.Corrupt == 0 {
		t.Error("corruption not counted in Stats().Corrupt")
	}
	// The rebuild re-Put the blob: a third cache must now warm-start clean.
	third := NewImageCache(disk)
	if _, err := third.Build(src, "mini", cfg); err != nil {
		t.Fatal(err)
	}
	if got := third.Stats().Builds; got != 0 {
		t.Fatalf("cache after rebuild compiled %d times, want 0", got)
	}
}
