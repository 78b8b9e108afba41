package fuzz

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/store"
)

// TestWarmStartZeroBuildsByteIdentical is the store acceptance property the
// CI gate enforces: a second campaign over a populated artifact store boots
// every worker without a single link build, and its report is byte-identical
// to the cold run's — at one worker and at four.
func TestWarmStartZeroBuildsByteIdentical(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	orig := kernel.SetBuildCache(core.NewImageCache(disk))
	defer kernel.SetBuildCache(orig)

	cold, err := Fuzz(campaignOpts(150))
	if err != nil {
		t.Fatal(err)
	}
	if kernel.BuildCache().Stats().Builds == 0 {
		t.Fatal("cold campaign against an empty store compiled nothing")
	}
	want := cold.String()

	for _, workers := range []int{1, 4} {
		// A fresh ImageCache over the same disk is the second process.
		kernel.SetBuildCache(core.NewImageCache(disk))
		opts := campaignOpts(150)
		opts.Workers = workers
		warm, err := Fuzz(opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := kernel.BuildCache().Stats().Builds; got != 0 {
			t.Fatalf("workers=%d: warm start ran %d link builds, want 0", workers, got)
		}
		if got := warm.String(); got != want {
			t.Fatalf("workers=%d: warm report diverges from cold:\n--- cold ---\n%s--- warm ---\n%s",
				workers, want, got)
		}
	}
}

// TestCheckpointResumeByteIdentical is the crash-resume contract: a campaign
// killed after its first batch, resumed from the checkpoint store by a fresh
// fuzzer, finalizes to the byte-identical report of an uninterrupted run —
// and a resume with nothing left to do re-emits those same bytes, unmarked
// partial.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	want, err := Fuzz(campaignOpts(150))
	if err != nil {
		t.Fatal(err)
	}

	opts := campaignOpts(150)
	opts.Checkpoint = store.NewMem(0)

	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.batchHook = func(int) { cancel() } // "kill" after the first saved batch
	part, err := f.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Partial || part.Iters != BatchSize {
		t.Fatalf("interrupted run: partial=%v iters=%d, want true/%d",
			part.Partial, part.Iters, BatchSize)
	}

	resumed, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.ledger.Done(); got != BatchSize {
		t.Fatalf("resumed ledger at iteration %d, want %d", got, BatchSize)
	}
	full, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial {
		t.Fatal("resumed-to-completion run marked partial")
	}
	if full.String() != want.String() {
		t.Fatalf("resumed report diverges from uninterrupted run:\n--- uninterrupted ---\n%s--- resumed ---\n%s",
			want.String(), full.String())
	}

	// Resume of a finished campaign: nothing to execute, same bytes.
	done, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	again, err := done.Run()
	if err != nil {
		t.Fatal(err)
	}
	if again.Partial {
		t.Fatal("resume-complete run marked partial")
	}
	if again.String() != want.String() {
		t.Fatal("resume-complete report diverges from uninterrupted run")
	}
}

// TestCheckpointLongerRerunExtends: Iters is excluded from the campaign key,
// so re-running with a higher iteration budget extends the stored ledger
// instead of cold-starting — and lands on the same bytes as a single long
// campaign.
func TestCheckpointLongerRerunExtends(t *testing.T) {
	ck := store.NewMem(0)

	short := campaignOpts(BatchSize)
	short.Checkpoint = ck
	if _, err := Fuzz(short); err != nil {
		t.Fatal(err)
	}

	long := campaignOpts(150)
	long.Checkpoint = ck
	f, err := New(long)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.ledger.Done(); got != BatchSize {
		t.Fatalf("extended rerun resumed at %d, want %d", got, BatchSize)
	}
	got, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Fuzz(campaignOpts(150))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("extended campaign diverges from a single long run:\n--- single ---\n%s--- extended ---\n%s",
			want.String(), got.String())
	}
}
