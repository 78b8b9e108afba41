package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/diversify"
	"repro/internal/link"
	"repro/internal/sfi"
)

// BuildResult store-blob layout. All numbers are little endian:
//
//	[4] magic "KRXB"
//	u32 layout version (2)
//	u64 image length
//	KRXIMG01 image bytes (the same bytes `krxbench -emit` writes)
//	gob{SFIStats, DivStats, NoDiversify}
//
// The blob holds what boots and what the audit reads, and no IR. Layout 1
// had no magic or version and carried the post-pass program in its
// trailer; such a blob fails to decode here, and ImageCache rebuilds and
// overwrites it. Config is not serialized: runtime-only knobs (watchdog
// budget, fault plan) belong to the requesting caller, and
// build-affecting fields are already the key.

var buildBlobMagic = [4]byte{'K', 'R', 'X', 'B'}

const buildBlobVersion = 2

// buildTrailer is the gob-encoded remainder of a BuildResult blob.
type buildTrailer struct {
	SFIStats    sfi.Stats
	DivStats    diversify.Stats
	NoDiversify []bool
}

// EncodeBuildResult serializes res for the artifact store.
func EncodeBuildResult(res *BuildResult) ([]byte, error) {
	var img bytes.Buffer
	if err := res.Image.WriteImage(&img); err != nil {
		return nil, fmt.Errorf("core: encode image: %w", err)
	}
	var out bytes.Buffer
	var hdr [16]byte
	copy(hdr[:4], buildBlobMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], buildBlobVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(img.Len()))
	out.Write(hdr[:])
	out.Write(img.Bytes())
	if err := gob.NewEncoder(&out).Encode(buildTrailer{
		SFIStats:    res.SFIStats,
		DivStats:    res.DivStats,
		NoDiversify: res.NoDiversify,
	}); err != nil {
		return nil, fmt.Errorf("core: encode trailer: %w", err)
	}
	return out.Bytes(), nil
}

// DecodeBuildResult reverses EncodeBuildResult. The returned result's
// Config is zero — the caller owns it (see the layout note above).
func DecodeBuildResult(data []byte) (*BuildResult, error) {
	r := bytes.NewReader(data)
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: decode blob header: %w", err)
	}
	if [4]byte(hdr[:4]) != buildBlobMagic {
		return nil, fmt.Errorf("core: bad build blob magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != buildBlobVersion {
		return nil, fmt.Errorf("core: build blob layout %d, want %d", v, buildBlobVersion)
	}
	imgLen := binary.LittleEndian.Uint64(hdr[8:16])
	if imgLen > uint64(r.Len()) {
		return nil, fmt.Errorf("core: image length %d exceeds blob remainder %d", imgLen, r.Len())
	}
	img, err := link.ReadImage(io.LimitReader(r, int64(imgLen)))
	if err != nil {
		return nil, fmt.Errorf("core: decode image: %w", err)
	}
	var tr buildTrailer
	if err := gob.NewDecoder(r).Decode(&tr); err != nil {
		return nil, fmt.Errorf("core: decode trailer: %w", err)
	}
	if len(tr.NoDiversify) != len(img.Funcs) {
		return nil, fmt.Errorf("core: blob classifies %d functions, image has %d",
			len(tr.NoDiversify), len(img.Funcs))
	}
	return &BuildResult{
		Image:       img,
		SFIStats:    tr.SFIStats,
		DivStats:    tr.DivStats,
		NoDiversify: tr.NoDiversify,
	}, nil
}
