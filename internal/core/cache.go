package core

import (
	"fmt"
	"sync"

	"repro/internal/ir"
	"repro/internal/store"
)

// BuildKey renders the canonical build-cache key of a configuration: every
// field that influences the compiled image, and nothing else. Runtime-only
// knobs (WatchdogBudget, FaultPlan) are deliberately excluded — two kernels
// that differ only in runtime policy share one compiled image.
func (c Config) BuildKey() string {
	return fmt.Sprintf("xom=%d,sfi=%d,div=%t,k=%d,ra=%d,rr=%t,fc=%t,seed=%d,guard=%d,kaslr=%t",
		c.XOM, c.SFILevel, c.Diversify, c.K, c.RAProt, c.RegRand, c.FullCoverage,
		c.Seed, c.GuardSize, c.KASLR)
}

// ImageCache memoizes Build results by typed store.Key{ProgID, BuildKey},
// optionally backed by a persistent store.Store: on a miss it first tries
// to decode a serialized BuildResult from the backing store, and only
// compiles (then Puts the encoded result) when the store misses too. With
// a nil backing store it behaves exactly like the old in-memory Cache.
//
// A BuildResult handed out by the cache is shared: callers must treat the
// Prog, Image, and stats as immutable, installing the image into fresh
// address spaces rather than mutating it (link.Image.Install only reads).
//
// Concurrent requests for the same key are single-flighted: exactly one
// build (or store fetch) runs, the rest block on it — Stats().Builds
// therefore counts distinct (corpus, config) compilations, which the sweep
// tests and the CI warm-start gate assert on.
type ImageCache struct {
	mu      sync.Mutex
	entries map[store.Key]*cacheEntry
	stats   store.Stats
	backing store.Store // may be nil: purely in-memory
}

type cacheEntry struct {
	once sync.Once
	res  *BuildResult
	err  error
}

// NewImageCache returns an empty build cache over an optional backing
// store (nil = in-memory only).
func NewImageCache(backing store.Store) *ImageCache {
	return &ImageCache{entries: make(map[store.Key]*cacheEntry), backing: backing}
}

// Build returns the cached BuildResult for (progID, cfg), fetching it from
// the backing store or compiling prog on the first request. progID must
// identify the corpus contents: callers that reuse one in-memory program
// pass a stable name; callers with distinct programs must pass distinct
// IDs or the cache would alias them.
func (c *ImageCache) Build(prog *ir.Program, progID string, cfg Config) (*BuildResult, error) {
	key := store.Key{ProgID: progID, BuildKey: cfg.BuildKey()}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	} else {
		c.stats.Hits++
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.res, e.err = c.load(prog, key, cfg)
	})
	return e.res, e.err
}

// load fills a cache entry: backing-store fetch first, compile on miss.
// The key is pinned for the duration so quota eviction cannot tear the
// blob out between the Put and a concurrent process's Get.
func (c *ImageCache) load(prog *ir.Program, key store.Key, cfg Config) (*BuildResult, error) {
	if c.backing != nil {
		release := c.backing.Pin(store.KindImage, key)
		defer release()
		if data, err := c.backing.Get(store.KindImage, key); err == nil {
			res, derr := DecodeBuildResult(data)
			if derr == nil {
				// The blob stores only build-affecting state; runtime-only
				// knobs come from the requesting config, matching the
				// first-caller semantics of the in-memory cache.
				res.Config = cfg
				return res, nil
			}
			// Undecodable payload inside a valid container (schema drift):
			// fall through to a rebuild, which overwrites the blob.
		}
	}
	res, err := Build(prog, cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.Builds++
	c.mu.Unlock()
	if c.backing != nil {
		if data, eerr := EncodeBuildResult(res); eerr == nil {
			// A failed Put degrades persistence, not correctness.
			_ = c.backing.Put(store.KindImage, key, data)
		}
	}
	return res, nil
}

// Stats folds the cache's own counters (Builds, singleflight Hits) with
// the backing store's, giving one snapshot for the store.* gauges.
func (c *ImageCache) Stats() store.Stats {
	c.mu.Lock()
	s := c.stats
	c.mu.Unlock()
	if c.backing != nil {
		s = s.Add(c.backing.Stats())
	}
	return s
}
