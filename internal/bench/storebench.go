// Artifact-store host-performance benchmark: what the persistent
// content-addressed store buys a booting process. A cold link runs the full
// build pipeline over the kernel corpus — SFI instrumentation,
// diversification, linking; a store hit is a fresh ImageCache (a new
// process) reading the blob back from a populated on-disk store. Both must
// produce the byte-identical image — the warm-start invariant the store
// tests and CI cmp gates enforce — so the rows report a pure host-time
// ratio. Kernel construction (bootImage) is identical either way and is
// deliberately outside both windows: it would only dilute the ratio with
// work the store cannot touch.

package bench

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/store"
)

// StoreResult is one configuration's artifact-store measurement: the cost
// of a cold link (image built from scratch) against a store hit (a fresh
// ImageCache over a populated on-disk store serving the same image — the
// second-process warm start). Both timings are min-of-emuReps.
type StoreResult struct {
	Name            string  `json:"name"`
	Reps            int     `json:"reps"`
	ColdNs          int64   `json:"host_ns_per_cold_link"`
	HitNs           int64   `json:"host_ns_per_store_hit"`
	StoreHitSpeedup float64 `json:"store_hit_speedup"`
}

// measureStore times cold-link vs store-hit image acquisition under one
// configuration. Every hit repetition uses a fresh ImageCache over the same
// disk store — the in-process memo starts empty, so the timed path is blob
// read + decode, never a hidden memory hit — and is checked for zero link
// builds and a byte-identical image.
func measureStore(cfg core.Config) (StoreResult, error) {
	res := StoreResult{Name: "store/" + cfg.Name(), Reps: emuReps}
	dir, err := os.MkdirTemp("", "krx-storebench-")
	if err != nil {
		return res, fmt.Errorf("bench: %s: %w", res.Name, err)
	}
	defer os.RemoveAll(dir)
	disk, err := store.OpenDisk(dir, 0)
	if err != nil {
		return res, fmt.Errorf("bench: %s: %w", res.Name, err)
	}
	prog, err := kernel.BuildCorpus()
	if err != nil {
		return res, fmt.Errorf("bench: %s: corpus: %w", res.Name, err)
	}

	// Populate the store once, untimed: the blob every hit repetition reads.
	ref, err := core.NewImageCache(disk).Build(prog, "kernel-corpus", cfg)
	if err != nil {
		return res, fmt.Errorf("bench: %s: populate: %w", res.Name, err)
	}

	var cold, hit time.Duration
	for rep := 0; rep < emuReps; rep++ {
		start := time.Now()
		r, err := core.Build(prog, cfg) // the full link pipeline
		if err != nil {
			return res, fmt.Errorf("bench: %s: cold link: %w", res.Name, err)
		}
		d := time.Since(start)
		if !bytes.Equal(r.Image.Text, ref.Image.Text) {
			return res, fmt.Errorf("bench: %s: cold-linked image differs from the stored one", res.Name)
		}
		if rep == 0 || d < cold {
			cold = d
		}
	}
	for rep := 0; rep < emuReps; rep++ {
		warm := core.NewImageCache(disk)
		start := time.Now()
		r, err := warm.Build(prog, "kernel-corpus", cfg)
		if err != nil {
			return res, fmt.Errorf("bench: %s: store hit: %w", res.Name, err)
		}
		d := time.Since(start)
		if got := warm.Stats().Builds; got != 0 {
			return res, fmt.Errorf("bench: %s: store hit ran %d link builds, want 0", res.Name, got)
		}
		if !bytes.Equal(r.Image.Text, ref.Image.Text) {
			return res, fmt.Errorf("bench: %s: store-hit image differs from the cold link", res.Name)
		}
		if rep == 0 || d < hit {
			hit = d
		}
	}
	res.ColdNs = cold.Nanoseconds()
	res.HitNs = hit.Nanoseconds()
	if res.HitNs > 0 {
		res.StoreHitSpeedup = float64(res.ColdNs) / float64(res.HitNs)
	}
	return res, nil
}
