package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The on-disk blob container. Every artifact is wrapped in a versioned,
// checksummed envelope so a reader can reject torn, truncated, or
// bit-rotted files without knowing anything about the payload:
//
//	magic "KRXBLOB1"
//	u32   container version (1)
//	u64   payload length
//	[32]  sha256(payload)
//	payload
//
// Writes never expose a partial file under the final name: the blob is
// written to a *.tmp sibling and renamed into place (atomic on POSIX), so
// a kill at any instant leaves either the old blob, the new blob, or a
// *.tmp orphan that the next OpenDisk reaps. No fsync is issued — this is
// a cache, and the failure a lost blob costs is one rebuild; the property
// the container defends is never serving a corrupt artifact, which the
// checksum enforces on every read.

var blobMagic = [8]byte{'K', 'R', 'X', 'B', 'L', 'O', 'B', '1'}

const blobVersion = 1

// blobHeaderSize is the fixed envelope size: magic + version + length +
// checksum.
const blobHeaderSize = 8 + 4 + 8 + sha256.Size

// Disk is the artifact store: a content-addressed file tree under a root
// directory, with LRU eviction under a byte quota. Blobs live at
// <dir>/<kind>/<hash[:2]>/<hash>.blob; recency is tracked in memory
// (seeded from file mtimes at open, so LRU order survives across
// processes approximately — exact within one).
type Disk struct {
	dir   string
	quota uint64 // 0 = unlimited

	mu    sync.Mutex
	seq   uint64
	ents  map[string]*diskEnt // addr (kind/hash) -> entry
	bytes uint64
	stats Stats
}

type diskEnt struct {
	path string
	size uint64
	seq  uint64 // LRU clock: higher = more recently used
}

// OpenDisk opens (creating if needed) the store rooted at dir, bounded by
// quota bytes (0 = unlimited). Partial *.tmp files from killed writers are
// reaped, and the resident blobs are indexed for LRU eviction in
// modification-time order.
func OpenDisk(dir string, quota uint64) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	d := &Disk{
		dir:   dir,
		quota: quota,
		ents:  make(map[string]*diskEnt),
	}
	type seeded struct {
		addr string
		ent  *diskEnt
		mod  int64
	}
	var seen []seeded
	err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		if strings.Contains(de.Name(), ".tmp") {
			// A writer died mid-write; the rename never happened, so the
			// orphan is garbage by construction.
			os.Remove(path)
			return nil
		}
		if !strings.HasSuffix(de.Name(), ".blob") {
			return nil
		}
		info, err := de.Info()
		if err != nil {
			return nil // raced with a concurrent evictor; skip
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return nil
		}
		parts := strings.Split(filepath.ToSlash(rel), "/")
		if len(parts) != 3 {
			return nil
		}
		a := parts[0] + "/" + strings.TrimSuffix(parts[2], ".blob")
		seen = append(seen, seeded{
			addr: a,
			ent:  &diskEnt{path: path, size: uint64(info.Size())},
			mod:  info.ModTime().UnixNano(),
		})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	// Oldest first, so eviction order approximates the access order of the
	// previous process.
	sort.Slice(seen, func(i, j int) bool { return seen[i].mod < seen[j].mod })
	for _, s := range seen {
		d.seq++
		s.ent.seq = d.seq
		d.ents[s.addr] = s.ent
		d.bytes += s.ent.size
	}
	return d, nil
}

// Open is the flag-level constructor behind -cache-dir/-cache-quota: the
// store rooted at dir, bounded by the parsed quota spec (see ParseBytes).
func Open(dir, quotaSpec string) (*Disk, error) {
	quota, err := ParseBytes(quotaSpec)
	if err != nil {
		return nil, err
	}
	return OpenDisk(dir, quota)
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

func addr(kind string, key Key) string { return kind + "/" + key.Hash() }

func (d *Disk) blobPath(kind, hash string) string {
	return filepath.Join(d.dir, kind, hash[:2], hash+".blob")
}

// Get reads and validates the blob under (kind, key). A blob that fails
// container validation — bad magic, bad version, bad length, checksum
// mismatch — is deleted and reported as a corrupt miss: the caller
// rebuilds, and the store never hands out a torn artifact.
func (d *Disk) Get(kind string, key Key) ([]byte, error) {
	a := addr(kind, key)
	d.mu.Lock()
	ent, ok := d.ents[a]
	if ok {
		d.seq++
		ent.seq = d.seq
	}
	d.mu.Unlock()
	if !ok {
		d.mu.Lock()
		d.stats.Misses++
		d.mu.Unlock()
		return nil, &NotFoundError{Kind: kind, Key: key}
	}
	raw, err := os.ReadFile(ent.path)
	if err != nil {
		// Indexed but unreadable (evicted by another process, permissions):
		// drop the index entry and miss.
		d.drop(a, false)
		return nil, &NotFoundError{Kind: kind, Key: key}
	}
	payload, verr := unwrapBlob(raw)
	if verr != nil {
		os.Remove(ent.path)
		d.drop(a, true)
		return nil, &NotFoundError{Kind: kind, Key: key, Corrupt: true}
	}
	d.mu.Lock()
	d.stats.Hits++
	d.mu.Unlock()
	return payload, nil
}

// drop removes an index entry after its file disappeared or failed
// validation.
func (d *Disk) drop(a string, corrupt bool) {
	d.mu.Lock()
	if ent, ok := d.ents[a]; ok {
		delete(d.ents, a)
		d.bytes -= ent.size
	}
	d.stats.Misses++
	if corrupt {
		d.stats.Corrupt++
	}
	d.mu.Unlock()
}

// unwrapBlob validates the container envelope and returns the payload.
func unwrapBlob(raw []byte) ([]byte, error) {
	if len(raw) < blobHeaderSize {
		return nil, fmt.Errorf("store: blob truncated (%d bytes)", len(raw))
	}
	if [8]byte(raw[:8]) != blobMagic {
		return nil, fmt.Errorf("store: bad blob magic")
	}
	if v := binary.LittleEndian.Uint32(raw[8:12]); v != blobVersion {
		return nil, fmt.Errorf("store: blob version %d, want %d", v, blobVersion)
	}
	n := binary.LittleEndian.Uint64(raw[12:20])
	payload := raw[blobHeaderSize:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("store: blob payload %d bytes, header says %d", len(payload), n)
	}
	var want [sha256.Size]byte
	copy(want[:], raw[20:blobHeaderSize])
	if sha256.Sum256(payload) != want {
		return nil, fmt.Errorf("store: blob checksum mismatch")
	}
	return payload, nil
}

// wrapBlob builds the container envelope around payload.
func wrapBlob(payload []byte) []byte {
	out := make([]byte, blobHeaderSize+len(payload))
	copy(out[:8], blobMagic[:])
	binary.LittleEndian.PutUint32(out[8:12], blobVersion)
	binary.LittleEndian.PutUint64(out[12:20], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(out[20:blobHeaderSize], sum[:])
	copy(out[blobHeaderSize:], payload)
	return out
}

// Put writes data under (kind, key) crash-safely: the enveloped blob lands
// in a *.tmp sibling first and is renamed into place, then LRU eviction
// brings the store back under quota.
func (d *Disk) Put(kind string, key Key, data []byte) error {
	hash := key.Hash()
	path := d.blobPath(kind, hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: put %s/%s: %w", kind, key, err)
	}
	// The temp file must live in the final file's directory: rename is only
	// atomic within one filesystem.
	tmp, err := os.CreateTemp(filepath.Dir(path), hash+".tmp*")
	if err != nil {
		return fmt.Errorf("store: put %s/%s: %w", kind, key, err)
	}
	blob := wrapBlob(data)
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s/%s: %w", kind, key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s/%s: %w", kind, key, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s/%s: %w", kind, key, err)
	}
	a := addr(kind, key)
	d.mu.Lock()
	if old, ok := d.ents[a]; ok {
		d.bytes -= old.size
	}
	d.seq++
	d.ents[a] = &diskEnt{path: path, size: uint64(len(blob)), seq: d.seq}
	d.bytes += uint64(len(blob))
	d.stats.Puts++
	d.evictLocked()
	d.mu.Unlock()
	return nil
}

// evictLocked deletes least-recently-used blobs until the byte quota
// holds.
func (d *Disk) evictLocked() {
	if d.quota == 0 {
		return
	}
	for d.bytes > d.quota {
		var victim string
		var vent *diskEnt
		for a, ent := range d.ents {
			if vent == nil || ent.seq < vent.seq {
				victim, vent = a, ent
			}
		}
		os.Remove(vent.path)
		delete(d.ents, victim)
		d.bytes -= vent.size
		d.stats.Evictions++
	}
}

// Stats returns a snapshot of the store's counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.Bytes = d.bytes
	return s
}
