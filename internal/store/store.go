// Package store is the content-addressed artifact store behind every cache
// in the harness: compiled kernel images and fuzz corpora with their
// coverage sets persist through one layered Store interface instead of
// process-private maps.
//
// Keys are structured (Key{ProgID, BuildKey}) and hash to content
// addresses; values are versioned, checksummed blobs. The two concrete
// layers — Mem (a byte-quota LRU in memory) and Disk (crash-safe files
// written via temp-file + rename) — compose through Layered, so a consumer
// sees one Get/Put surface whether it is running purely in memory (the
// pre-store behaviour) or warm-starting from a shared on-disk store across
// processes.
//
// Crash safety is detection, not durability: a kill mid-write leaves only a
// *.tmp file (reaped on the next Open) because the final name appears
// atomically via rename; a torn or bit-rotted blob fails its checksum on
// read and is deleted and reported as a miss, so the worst a crash can do
// is cost one rebuild — never serve corrupt artifacts.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// Well-known artifact kinds. A kind namespaces the key space (and, on disk,
// the directory tree), so an image and a corpus checkpoint under the same
// key never collide.
const (
	// KindImage holds serialized core.BuildResult blobs (linked kernel
	// images plus pass statistics and post-pass IR).
	KindImage = "image"
	// KindCorpus holds fuzz campaign ledger checkpoints: the corpus, the
	// coverage set, and the crash buckets at a batch boundary.
	KindCorpus = "corpus"
)

// Key identifies one artifact: the program (corpus) identity and the
// canonical build-affecting configuration string. It replaces the old
// `progID + "\x00" + buildKey` string concatenation — structured, usable as
// a map key, and printable in logs without escape soup.
type Key struct {
	ProgID   string
	BuildKey string
}

// String renders the key for logs and error messages.
func (k Key) String() string { return k.ProgID + "+" + k.BuildKey }

// Hash returns the key's content address: a sha256 over the
// length-prefixed fields (so no two distinct keys can collide by field
// boundary ambiguity), rendered as lowercase hex.
func (k Key) Hash() string {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(k.ProgID)))
	h.Write(n[:])
	h.Write([]byte(k.ProgID))
	binary.LittleEndian.PutUint64(n[:], uint64(len(k.BuildKey)))
	h.Write(n[:])
	h.Write([]byte(k.BuildKey))
	return hex.EncodeToString(h.Sum(nil))
}

// Stats is the uniform counter set every layer (and the build cache on top
// of them) reports — the replacement for the deleted ad-hoc
// Builds()/Hits()/Reset() accessors. The obs registry publishes these as
// the store.* gauges.
type Stats struct {
	Hits      uint64 // Gets served
	Misses    uint64 // Gets that found nothing
	Puts      uint64 // blobs written
	Evictions uint64 // blobs evicted under the byte quota
	Corrupt   uint64 // blobs rejected by checksum/container validation
	Bytes     uint64 // payload bytes currently resident
	Pins      uint64 // currently pinned entries
	Builds    uint64 // real compilations performed on behalf of this store
}

// Add returns the field-wise sum — how a layered store folds its layers'
// counters into one snapshot.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Hits:      s.Hits + o.Hits,
		Misses:    s.Misses + o.Misses,
		Puts:      s.Puts + o.Puts,
		Evictions: s.Evictions + o.Evictions,
		Corrupt:   s.Corrupt + o.Corrupt,
		Bytes:     s.Bytes + o.Bytes,
		Pins:      s.Pins + o.Pins,
		Builds:    s.Builds + o.Builds,
	}
}

// StatsSource is anything that can report store statistics — a layer, a
// composed store, or the build cache. The obs registry registers against
// this interface.
type StatsSource interface {
	Stats() Stats
}

// Store is the layered cache API: content-addressed blobs under
// (kind, key), with byte quotas, LRU eviction, and pinning for artifacts
// that must survive eviction while a build is in flight. Implementations
// are safe for concurrent use.
type Store interface {
	StatsSource

	// Get returns the blob stored under (kind, key), or a *NotFoundError.
	// A blob that fails validation is removed and reported as not found
	// (with Corrupt set) — the caller's recovery for both is the same:
	// rebuild and Put.
	Get(kind string, key Key) ([]byte, error)

	// Put stores data under (kind, key), evicting least-recently-used
	// unpinned entries if the byte quota would be exceeded.
	Put(kind string, key Key, data []byte) error

	// Pin marks (kind, key) unevictable until the returned release func is
	// called. Pinning a key before it exists is allowed — it protects the
	// window between a Put and the dependent Get of an in-flight build.
	Pin(kind string, key Key) (release func())

	// Close releases any resources (file handles, background state).
	Close() error
}

// NotFoundError reports a Get that found no (valid) blob.
type NotFoundError struct {
	Kind string
	Key  Key
	// Corrupt marks a blob that existed but failed validation and was
	// discarded; the miss then costs a rebuild, never a bad artifact.
	Corrupt bool
}

func (e *NotFoundError) Error() string {
	if e.Corrupt {
		return fmt.Sprintf("store: %s/%s: blob failed validation (discarded)", e.Kind, e.Key)
	}
	return fmt.Sprintf("store: %s/%s: not found", e.Kind, e.Key)
}

// IsNotFound reports whether err is a *NotFoundError (corrupt or plain).
func IsNotFound(err error) bool {
	_, ok := err.(*NotFoundError)
	return ok
}

// ParseBytes parses a human byte quantity for the -cache-quota flag:
// a plain number is bytes; K/M/G (and KB/MB/GB, KiB/MiB/GiB) suffixes are
// binary multiples. 0 means no quota.
func ParseBytes(s string) (uint64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("store: empty byte quantity")
	}
	mult := uint64(1)
	upper := strings.ToUpper(t)
	for _, suf := range []struct {
		s string
		m uint64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30},
	} {
		if strings.HasSuffix(upper, suf.s) {
			mult = suf.m
			t = t[:len(t)-len(suf.s)]
			break
		}
	}
	n, err := strconv.ParseUint(strings.TrimSpace(t), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("store: bad byte quantity %q: %v", s, err)
	}
	return n * mult, nil
}
