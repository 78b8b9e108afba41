package audit

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"testing"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/ir"
	"repro/internal/kernel"
	"repro/internal/sfi"
	"repro/internal/store"
)

// layoutOneBlob encodes a build in the image-blob layout that carried the
// post-pass program: no magic or version word, and a gob trailer of
// stats and IR with no exemption field.
func layoutOneBlob(t *testing.T, res *core.BuildResult, prog *ir.Program) []byte {
	t.Helper()
	var img bytes.Buffer
	mustDo(t, res.Image.WriteImage(&img))
	var out bytes.Buffer
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(img.Len()))
	out.Write(n[:])
	out.Write(img.Bytes())
	mustDo(t, gob.NewEncoder(&out).Encode(struct {
		SFIStats sfi.Stats
		DivStats diversify.Stats
		Prog     *ir.Program
	}{res.SFIStats, res.DivStats, prog}))
	return out.Bytes()
}

// TestStaleImageBlobIsRebuilt: a store entry written in the old blob
// layout must not warm-start a kernel. The cache rebuilds and overwrites
// it, and the kernel it boots keeps its exemptions, so the entry-phantom
// check passes instead of flagging every hand-written stub.
func TestStaleImageBlobIsRebuilt(t *testing.T) {
	prog, err := kernel.BuildCorpus()
	mustDo(t, err)
	res, err := core.Build(prog, sfixRAEncrypt)
	mustDo(t, err)
	ins, err := core.Instrument(prog, sfixRAEncrypt)
	mustDo(t, err)

	dir := t.TempDir()
	seeded, err := store.OpenDisk(dir, 0)
	mustDo(t, err)
	key := store.Key{ProgID: "kernel-corpus", BuildKey: sfixRAEncrypt.BuildKey()}
	mustDo(t, seeded.Put(store.KindImage, key, layoutOneBlob(t, res, ins.Prog)))

	disk, err := store.OpenDisk(dir, 0)
	mustDo(t, err)
	orig := kernel.SetBuildCache(core.NewImageCache(disk))
	defer kernel.SetBuildCache(orig)
	k, err := kernel.Boot(sfixRAEncrypt, kernel.WithCache())
	mustDo(t, err)
	if s := kernel.BuildCache().Stats(); s.Builds != 1 || s.Puts != 1 || s.Corrupt != 1 {
		t.Fatalf("stale blob: Builds %d, Puts %d, Corrupt %d; want a rebuild that overwrites it", s.Builds, s.Puts, s.Corrupt)
	}
	var c Cache
	if bad := c.Failed(k, nil); len(bad) != 0 {
		t.Fatalf("kernel booted over a stale blob fails %v", bad)
	}

	// The overwritten entry now warm-starts a second process.
	reopened, err := store.OpenDisk(dir, 0)
	mustDo(t, err)
	warm := core.NewImageCache(reopened)
	if _, err := warm.Build(prog, "kernel-corpus", sfixRAEncrypt); err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.Builds != 0 || s.Hits != 1 {
		t.Fatalf("overwritten blob: Builds %d, Hits %d; want a clean warm start", s.Builds, s.Hits)
	}
}
