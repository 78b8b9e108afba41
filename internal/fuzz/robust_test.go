package fuzz

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestOptionsValidation: negative counts are rejected with a typed
// *OptionsError naming the offending field; zero values still take their
// defaults.
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name  string
		opts  Options
		field string
	}{
		{"negative-iters", Options{Iters: -1}, "Iters"},
		{"negative-workers", Options{Workers: -2}, "Workers"},
		{"negative-minimize", Options{MaxMinimize: -64}, "MaxMinimize"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.opts)
			var oe *OptionsError
			if !errors.As(err, &oe) {
				t.Fatalf("New(%+v) = %v, want *OptionsError", tc.opts, err)
			}
			if oe.Field != tc.field {
				t.Errorf("OptionsError.Field = %q, want %q", oe.Field, tc.field)
			}
		})
	}

	var o Options
	if err := o.Normalize(); err != nil {
		t.Fatalf("zero Options must normalize cleanly: %v", err)
	}
	if o.Iters != 1000 || o.Workers != 1 || o.MaxMinimize != 64 {
		t.Errorf("defaults = iters %d workers %d minimize %d, want 1000/1/64",
			o.Iters, o.Workers, o.MaxMinimize)
	}
}

// TestZeroWorkerGuards: a zero-value Fuzzer (never built by New) must fail
// every worker-touching entry point with a typed *NoWorkersError — not an
// index-out-of-range panic.
func TestZeroWorkerGuards(t *testing.T) {
	var f Fuzzer
	var nw *NoWorkersError

	if _, err := f.Run(); !errors.As(err, &nw) {
		t.Errorf("Run on zero-value Fuzzer = %v, want *NoWorkersError", err)
	}
	if _, err := f.Kernel(); !errors.As(err, &nw) {
		t.Errorf("Kernel on zero-value Fuzzer = %v, want *NoWorkersError", err)
	}
	if _, err := f.Kernels(); !errors.As(err, &nw) {
		t.Errorf("Kernels on zero-value Fuzzer = %v, want *NoWorkersError", err)
	}
	if _, err := f.ExecIteration(0); !errors.As(err, &nw) {
		t.Errorf("ExecIteration on zero-value Fuzzer = %v, want *NoWorkersError", err)
	}
}

// TestPartialReportPrefix is the graceful-shutdown contract: a campaign
// cancelled after batch k emits a Partial report that is byte-identical —
// bar the partial marker — to a full campaign requesting exactly those
// k*BatchSize iterations. Cancellation never tears a batch: the in-flight
// batch drains and merges before the ledger is finalized, at any worker
// count and whether workers are booted or forked.
func TestPartialReportPrefix(t *testing.T) {
	const cutoff = 2 * BatchSize

	full, err := Fuzz(campaignOpts(cutoff))
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial {
		t.Fatal("uncancelled campaign marked partial")
	}

	for _, tc := range []struct {
		name    string
		workers int
		fork    bool
	}{
		{"workers=1", 1, false},
		{"workers=2", 2, false},
		{"workers=4/fork", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := campaignOpts(4 * BatchSize)
			opts.Workers, opts.Fork = tc.workers, tc.fork
			f, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			f.batchHook = func(done int) {
				if done >= cutoff {
					cancel()
				}
			}
			partial, err := f.RunContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !partial.Partial {
				t.Fatal("cancelled campaign did not mark its report partial")
			}
			if partial.Iters != cutoff {
				t.Fatalf("partial report folded %d iters, want %d (batch-aligned drain)", partial.Iters, cutoff)
			}
			got := strings.Replace(partial.String(), " partial=true", "", 1)
			if got != full.String() {
				t.Errorf("partial report is not the canonical prefix:\n--- partial (marker stripped) ---\n%s--- full %d iters ---\n%s",
					got, cutoff, full.String())
			}
		})
	}
}

// TestPreCancelledRun: a context cancelled before the first batch yields an
// empty partial report, not an error and not a hang.
func TestPreCancelledRun(t *testing.T) {
	f, err := New(campaignOpts(BatchSize))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := f.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial || rep.Iters != 0 || rep.Executed != 0 {
		t.Errorf("pre-cancelled run: partial=%v iters=%d executed=%d, want true/0/0",
			rep.Partial, rep.Iters, rep.Executed)
	}
}
