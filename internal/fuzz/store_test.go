package fuzz

import (
	"context"
	"testing"

	"repro/internal/store"
)

// tempStore opens an empty on-disk store under the test's temp directory.
func tempStore(t *testing.T) *store.Disk {
	t.Helper()
	d, err := store.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCheckpointResumeByteIdentical is the crash-resume contract: a campaign
// killed after its first batch, resumed from the checkpoint store by a fresh
// fuzzer, finalizes to the byte-identical report of an uninterrupted run —
// and a resume with nothing left to do re-emits those same bytes, unmarked
// partial.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	want := runCampaign(t, campaignOpts(150))

	opts := campaignOpts(150)
	opts.Checkpoint = tempStore(t)

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
	full, err := resumed.RunContext(context.Background())
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
	again, err := done.RunContext(context.Background())
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
	ck := tempStore(t)

	short := campaignOpts(BatchSize)
	short.Checkpoint = ck
	runCampaign(t, short)

	long := campaignOpts(150)
	long.Checkpoint = ck
	f, err := New(long)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.ledger.Done(); got != BatchSize {
		t.Fatalf("extended rerun resumed at %d, want %d", got, BatchSize)
	}
	got, err := f.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := runCampaign(t, campaignOpts(150))
	if got.String() != want.String() {
		t.Fatalf("extended campaign diverges from a single long run:\n--- single ---\n%s--- extended ---\n%s",
			want.String(), got.String())
	}
}
