package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestDiskPutGetRoundTrip(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{ProgID: "prog", BuildKey: "xom=1"}
	payload := []byte("image bytes")
	if err := d.Put(KindImage, k, payload); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get(KindImage, k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, want %q", got, payload)
	}
	if _, err := d.Get(KindCorpus, k); !IsNotFound(err) {
		t.Fatalf("same key under different kind must miss, got %v", err)
	}
	s := d.Stats()
	if s.Puts != 1 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	k := Key{ProgID: "persisted"}
	d1, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Put(KindImage, k, []byte("survives")); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d2.Get(KindImage, k)
	if err != nil {
		t.Fatalf("blob lost across reopen: %v", err)
	}
	if string(got) != "survives" {
		t.Fatalf("Get = %q", got)
	}
}

func TestDiskReapsPartialTempFiles(t *testing.T) {
	// Kill-mid-write torture: plant the exact artifacts a killed writer
	// leaves behind — *.tmp files at every stage of completeness — and
	// verify open ignores and reaps them all without disturbing real blobs.
	dir := t.TempDir()
	d1, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	good := Key{ProgID: "good"}
	if err := d1.Put(KindImage, good, []byte("intact")); err != nil {
		t.Fatal(err)
	}

	victim := Key{ProgID: "victim"}
	hash := victim.Hash()
	sub := filepath.Join(dir, KindImage, hash[:2])
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	// Empty temp file, header-only temp file, and an almost-complete one.
	full := wrapBlob([]byte("almost made it"))
	plants := map[string][]byte{
		hash + ".tmp1": nil,
		hash + ".tmp2": full[:blobHeaderSize],
		hash + ".tmp3": full[:len(full)-1],
	}
	for name, data := range plants {
		if err := os.WriteFile(filepath.Join(sub, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d2, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Get(KindImage, victim); !IsNotFound(err) {
		t.Fatalf("partial write must read as a miss, got %v", err)
	}
	if _, err := d2.Get(KindImage, good); err != nil {
		t.Fatalf("intact blob disturbed by reaping: %v", err)
	}
	for name := range plants {
		if _, err := os.Stat(filepath.Join(sub, name)); !os.IsNotExist(err) {
			t.Errorf("temp file %s not reaped (err=%v)", name, err)
		}
	}
}

func TestDiskRejectsCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{ProgID: "rotted"}
	if err := d.Put(KindImage, k, []byte("pristine payload")); err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit on disk behind the store's back.
	path := d.blobPath(KindImage, k.Hash())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := d.Get(KindImage, k)
	nf, ok := err.(*NotFoundError)
	if !ok || !nf.Corrupt {
		t.Fatalf("corrupt blob must be a Corrupt miss, got data=%q err=%v", got, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt blob not deleted (err=%v)", err)
	}
	if s := d.Stats(); s.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", s.Corrupt)
	}
	// The rebuild path: a fresh Put over the discarded address must work.
	if err := d.Put(KindImage, k, []byte("rebuilt")); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Get(KindImage, k); err != nil || string(got) != "rebuilt" {
		t.Fatalf("rebuild after corruption: %q, %v", got, err)
	}
}

func TestDiskLRUEvictionUnderTwoImageQuota(t *testing.T) {
	// Quota sized for exactly two enveloped blobs: the third Put evicts the
	// least recently used one (and only it).
	payload := bytes.Repeat([]byte{0xAB}, 100)
	blobSize := uint64(blobHeaderSize + len(payload))
	d, err := OpenDisk(t.TempDir(), 2*blobSize)
	if err != nil {
		t.Fatal(err)
	}
	k1 := Key{ProgID: "img1"}
	k2 := Key{ProgID: "img2"}
	k3 := Key{ProgID: "img3"}
	for _, k := range []Key{k1, k2} {
		if err := d.Put(KindImage, k, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Touch img1 so img2 is the LRU victim.
	if _, err := d.Get(KindImage, k1); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(KindImage, k3, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(KindImage, k2); !IsNotFound(err) {
		t.Fatalf("img2 should have been evicted, got %v", err)
	}
	if _, err := d.Get(KindImage, k1); err != nil {
		t.Fatalf("img1 evicted despite recent use: %v", err)
	}
	if _, err := d.Get(KindImage, k3); err != nil {
		t.Fatalf("img3 evicted right after Put: %v", err)
	}
	s := d.Stats()
	if s.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", s.Evictions)
	}
	if s.Bytes != 2*blobSize {
		t.Fatalf("Bytes = %d, want %d", s.Bytes, 2*blobSize)
	}
}

func TestDiskEvictionOrderSurvivesReopen(t *testing.T) {
	// The reopened store seeds LRU order from mtimes, so the oldest blob of
	// the previous process is the first eviction victim.
	payload := bytes.Repeat([]byte{0x22}, 50)
	blobSize := uint64(blobHeaderSize + len(payload))
	dir := t.TempDir()
	d1, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := Key{ProgID: "old"}
	newer := Key{ProgID: "newer"}
	if err := d1.Put(KindImage, old, payload); err != nil {
		t.Fatal(err)
	}
	// Distinct mtimes without sleeping.
	future := filepath.Join(dir, KindImage, old.Hash()[:2], old.Hash()+".blob")
	info, err := os.Stat(future)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Put(KindImage, newer, payload); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(future, info.ModTime().Add(-1e9), info.ModTime().Add(-1e9)); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDisk(dir, 2*blobSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Put(KindImage, Key{ProgID: "third"}, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Get(KindImage, old); !IsNotFound(err) {
		t.Fatalf("oldest blob should be the reopen eviction victim, got %v", err)
	}
	if _, err := d2.Get(KindImage, newer); err != nil {
		t.Fatalf("newer blob evicted out of order: %v", err)
	}
}

func TestDiskConcurrentAccess(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := Key{ProgID: fmt.Sprintf("p%d", i%7)}
				switch i % 3 {
				case 0:
					if err := d.Put(KindImage, k, []byte(strings.Repeat("x", 32))); err != nil {
						t.Error(err)
						return
					}
				case 1:
					d.Get(KindImage, k)
				}
			}
		}(g)
	}
	wg.Wait()
	d.Stats()
}
