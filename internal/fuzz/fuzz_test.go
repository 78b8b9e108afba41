package fuzz

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/inject"
	"repro/internal/sfi"
)

func campaignOpts(iters int) Options {
	plan := inject.DefaultPlan(42)
	return Options{
		Iters: iters,
		Seed:  42,
		Config: core.Config{
			XOM: core.XOMSFI, SFILevel: sfi.O3,
			Diversify: true, RAProt: diversify.RAEncrypt,
			Seed: 42,
		},
		Plan: &plan,
	}
}

// runCampaign boots the campaign opts describe and runs it to the end.
func runCampaign(t *testing.T, opts Options) *Report {
	t.Helper()
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCrashTriage checks the triage pipeline end to end on a campaign large
// enough to crash: buckets are deduplicated, sorted, and every minimized
// reproducer is no longer than what it minimizes.
func TestCrashTriage(t *testing.T) {
	r := runCampaign(t, campaignOpts(200))
	if len(r.Crashes) == 0 {
		t.Fatal("200 hostile iterations produced no crashes")
	}
	seen := map[string]bool{}
	prev := ""
	for _, c := range r.Crashes {
		if seen[c.Bucket] {
			t.Errorf("bucket %q appears twice (dedup broken)", c.Bucket)
		}
		seen[c.Bucket] = true
		if c.Bucket < prev {
			t.Errorf("buckets not sorted: %q after %q", c.Bucket, prev)
		}
		prev = c.Bucket
		if c.Min == nil || len(c.Min.Calls) == 0 {
			t.Errorf("bucket %q: missing minimized repro", c.Bucket)
		} else if len(c.Min.Calls) > len(c.Prog.Calls) {
			t.Errorf("bucket %q: minimized repro longer than original (%d > %d)",
				c.Bucket, len(c.Min.Calls), len(c.Prog.Calls))
		}
	}
}

// TestMinimizedReproReplays re-executes each minimized reproducer under its
// crash's iteration seed and requires the same bucket — the repro actually
// reproduces.
func TestMinimizedReproReplays(t *testing.T) {
	f, err := New(campaignOpts(200))
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Crashes {
		res, err := f.exec(c.Min, f.injSeed(c.Iter))
		if err != nil {
			t.Fatalf("bucket %q: replay: %v", c.Bucket, err)
		}
		if res.Bucket != c.Bucket {
			t.Errorf("bucket %q: minimized repro lands in %q on replay", c.Bucket, res.Bucket)
		}
	}
}

// TestCleanKernelNoInjection: without a fault plan, the vanilla kernel's
// benign surface alone should not produce harness errors, and audit
// violations should be impossible (nothing perturbs the machine but the
// syscalls themselves).
func TestCleanKernelNoInjection(t *testing.T) {
	opts := campaignOpts(100)
	opts.Plan = nil
	r := runCampaign(t, opts)
	if r.Faults != 0 {
		t.Fatalf("injected %d faults with no plan", r.Faults)
	}
	for _, c := range r.Crashes {
		if c.Bucket == "harness-panic" {
			t.Fatalf("uncontained panic bucket on a clean campaign: %s", c.Min)
		}
	}
}
