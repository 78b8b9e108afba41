package fuzz

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"repro/internal/store"
)

// Campaign checkpointing: the ledger's merge state — corpus, coverage set,
// crash buckets, counters — serialized to the artifact store at batch
// boundaries, so a campaign killed mid-run (or a -serve worker fleet
// warm-starting) resumes from the last completed batch instead of
// iteration zero. Because Fold order is canonical and the checkpoint cuts
// at a batch boundary, a resumed campaign finalizes to the byte-identical
// report a single uninterrupted run would have produced.
//
// The checkpoint key deliberately excludes Iters and Workers: a longer
// rerun extends the same campaign, and worker count never changes the
// ledger (the determinism contract). Everything that does change the
// iteration stream — seed, config build key, fault plan, minimization
// budget — is in the key, so mismatched campaigns can never cross-resume.

// CampaignKey returns the store key identifying this campaign's checkpoint.
func (o *Options) CampaignKey() store.Key {
	plan := "none"
	if o.Plan != nil {
		plan = fmt.Sprintf("%+v", *o.Plan)
	}
	return store.Key{
		ProgID: "fuzz-campaign",
		BuildKey: fmt.Sprintf("seed=%d,cfg=%s,plan=%s,minimize=%d",
			o.Seed, o.Config.BuildKey(), plan, o.MaxMinimize),
	}
}

// ledgerState is the gob image of a Ledger at a batch boundary. Cover is a
// sorted slice, not the live map: gob map encoding order is random, and a
// checkpoint blob should be stable for identical state.
type ledgerState struct {
	Done            int
	Corpus          []*Prog
	Cover           []uint64
	Crashes         []*Crash // sorted by bucket
	Executed        int
	Faults          int
	AuditViolations map[string]int
}

// SaveCheckpoint writes the ledger's current merge state to the campaign's
// checkpoint store. No-op without one. Callers must invoke it only at
// batch boundaries — the invariant LoadCheckpoint's resume depends on.
func (l *Ledger) SaveCheckpoint() error {
	if l.opts.Checkpoint == nil {
		return nil
	}
	st := ledgerState{
		Done:            l.done,
		Corpus:          l.corpus,
		Cover:           make([]uint64, 0, len(l.cover)),
		Executed:        l.report.Executed,
		Faults:          l.report.Faults,
		AuditViolations: l.report.AuditViolations,
	}
	for rip := range l.cover {
		st.Cover = append(st.Cover, rip)
	}
	sort.Slice(st.Cover, func(i, j int) bool { return st.Cover[i] < st.Cover[j] })
	for _, c := range l.crashes {
		st.Crashes = append(st.Crashes, c)
	}
	sort.Slice(st.Crashes, func(i, j int) bool { return st.Crashes[i].Bucket < st.Crashes[j].Bucket })
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return fmt.Errorf("fuzz: encode checkpoint: %w", err)
	}
	if err := l.opts.Checkpoint.Put(store.KindCorpus, l.opts.CampaignKey(), buf.Bytes()); err != nil {
		return fmt.Errorf("fuzz: save checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint restores the ledger from the campaign's stored checkpoint,
// returning whether one was found. A corrupt or missing blob is a clean
// cold start, never an error — the store already discarded anything that
// failed validation.
func (l *Ledger) LoadCheckpoint() (bool, error) {
	if l.opts.Checkpoint == nil {
		return false, nil
	}
	data, err := l.opts.Checkpoint.Get(store.KindCorpus, l.opts.CampaignKey())
	if err != nil {
		if store.IsNotFound(err) {
			return false, nil
		}
		return false, fmt.Errorf("fuzz: load checkpoint: %w", err)
	}
	var st ledgerState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		// Schema drift inside a checksum-valid blob: cold-start and let the
		// next SaveCheckpoint overwrite it.
		return false, nil
	}
	l.done = st.Done
	l.corpus = st.Corpus
	l.cover = make(map[uint64]struct{}, len(st.Cover))
	for _, rip := range st.Cover {
		l.cover[rip] = struct{}{}
	}
	l.crashes = make(map[string]*Crash, len(st.Crashes))
	for _, c := range st.Crashes {
		l.crashes[c.Bucket] = c
	}
	l.report.Executed = st.Executed
	l.report.Faults = st.Faults
	if st.AuditViolations != nil {
		l.report.AuditViolations = st.AuditViolations
	}
	return true, nil
}
