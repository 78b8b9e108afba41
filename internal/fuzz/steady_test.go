package fuzz

import (
	"context"
	"slices"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/diversify"
)

// failedFresh lists the checks a one-shot audit.Audit of the executor's
// kernel fails, in report order.
func failedFresh(w *Executor) []string {
	var out []string
	for _, f := range audit.Audit(w.k).Findings {
		if !f.OK {
			out = append(out, f.Check)
		}
	}
	return out
}

// TestAuditCacheMatchesFreshAudit is the audit cache's differential test:
// after every iteration of a 200-iteration injected campaign, the
// executor's cached verdicts name exactly the checks a fresh Audit fails,
// whether or not the iteration itself audited.
func TestAuditCacheMatchesFreshAudit(t *testing.T) {
	mpx := core.Config{XOM: core.XOMMPX, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 42}
	for _, cfg := range []core.Config{campaignOpts(0).Config, mpx} {
		t.Run(cfg.Name(), func(t *testing.T) {
			opts := campaignOpts(200)
			opts.Config = cfg
			w, err := NewExecutor(opts)
			if err != nil {
				t.Fatal(err)
			}
			l := NewLedger(opts, w)
			audited := 0
			for i := 0; i < opts.Iters; i++ {
				prog := PickProg(opts.Seed, i, l.Corpus(), w.Kaddrs())
				res, err := w.Exec(prog, InjSeed(opts.Seed, i))
				if err != nil {
					t.Fatal(err)
				}
				fresh := failedFresh(w)
				if cached := w.audit.Failed(w.k, nil); !slices.Equal(cached, fresh) {
					t.Fatalf("iter %d: cached audit fails %v, fresh audit %v", i, cached, fresh)
				}
				if res.Faults > 0 || res.Bucket != "" {
					audited++
					if !slices.Equal(res.AuditBad, fresh) {
						t.Fatalf("iter %d: Exec reports %v, fresh audit %v", i, res.AuditBad, fresh)
					}
				}
				// Folding grows the corpus later iterations mutate, and its
				// minimization replays run on w between audits.
				l.Fold(i, prog, res)
			}
			if audited == 0 {
				t.Fatal("no iteration audited: the campaign injected nothing")
			}
		})
	}
}

// TestPickProgAllocatesOnlyItsProg pins program selection's steady state:
// with a recycled generator warm, PickProg allocates the Prog it returns
// and its Calls array, nothing more, on generation and mutation alike.
func TestPickProgAllocatesOnlyItsProg(t *testing.T) {
	f, err := New(campaignOpts(256))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	corpus := f.ledger.Corpus()
	if len(corpus) < 2 {
		t.Fatalf("corpus of %d programs, want a few to mutate", len(corpus))
	}
	for _, c := range [][]*Prog{nil, corpus} {
		for i := 0; i < 64; i++ {
			var p *Prog
			allocs := testing.AllocsPerRun(20, func() { p = PickProg(42, i, c, f.kaddrs) })
			if allocs > 2 {
				t.Errorf("iter %d (corpus %d): PickProg allocates %.0f times for a %d-call Prog, want <= 2",
					i, len(c), allocs, len(p.Calls))
			}
		}
	}
}

// TestExecAllocatesOnlyItsResults pins an iteration's steady state: once
// the executor is warm, Exec allocates no more than its ExecResult owns
// (the coverage slice, the failed-check list and the crash bucket) on top
// of what the syscalls themselves allocate. The syscalls' share — the two
// results Kernel.Syscall builds per call, the traps and faults they carry,
// and the pages the kernel's first stores materialize — is measured by
// running the same calls bare, from the same restored machine under the
// same injector. So the restore, the injector's re-seeding and the audit of
// cached verdicts must allocate nothing. Each injected fault formats a log
// note, which keeps faulted iterations out of the pin; crashing ones still
// run the audit.
func TestExecAllocatesOnlyItsResults(t *testing.T) {
	opts := campaignOpts(256)
	w, err := NewExecutor(opts)
	if err != nil {
		t.Fatal(err)
	}
	pinned, crashed := 0, 0
	for i := 0; i < opts.Iters; i++ {
		prog := PickProg(opts.Seed, i, nil, w.Kaddrs())
		seed := InjSeed(opts.Seed, i)
		res, err := w.Exec(prog, seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Faults > 0 {
			continue
		}
		bare := testing.AllocsPerRun(5, func() {
			if err := w.k.Restore(w.snap); err != nil {
				t.Fatal(err)
			}
			w.inj.Reseed(seed)
			w.inj.Attach(w.k.CPU, w.k.Space.AS, w.targets)
			for _, c := range prog.Calls {
				if w.k.Syscall(c.Nr, c.Args[0], c.Args[1], c.Args[2]).Failed {
					break
				}
			}
			w.inj.Detach()
		})
		owned := 0
		for _, has := range []bool{res.Cover != nil, res.AuditBad != nil, res.Bucket != ""} {
			if has {
				owned++
			}
		}
		allocs := testing.AllocsPerRun(5, func() { res, err = w.Exec(prog, seed) })
		if allocs > bare+float64(owned) {
			t.Errorf("iter %d: Exec allocates %.0f times, its syscalls %.0f and its result %d (bucket %q)",
				i, allocs, bare, owned, res.Bucket)
		}
		pinned++
		if res.Bucket != "" {
			crashed++
		}
	}
	if pinned < 20 || crashed == 0 {
		t.Fatalf("pinned %d iterations (%d crashing), want at least 20 with a crash among them", pinned, crashed)
	}
}

// TestMinimizeReplayMatchesExec: every candidate minimization replays in a
// seed-42 campaign lands where a full Exec of it lands, with the same
// crashing call, syscall count and fault count.
func TestMinimizeReplayMatchesExec(t *testing.T) {
	opts := campaignOpts(512)
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	type replayed struct {
		cand *Prog
		seed int64
		res  ExecResult
	}
	var cands []replayed
	f.ledger.replayHook = func(cand *Prog, seed int64, res ExecResult) {
		cands = append(cands, replayed{cand, seed, res})
	}
	r, err := f.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Crashes) == 0 || len(cands) == 0 {
		t.Fatalf("%d crashes, %d minimization candidates: nothing to compare", len(r.Crashes), len(cands))
	}
	w, err := NewExecutor(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		full, err := w.Exec(c.cand, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if full.Bucket != c.res.Bucket || full.CrashIdx != c.res.CrashIdx ||
			full.NExec != c.res.NExec || full.Faults != c.res.Faults {
			t.Errorf("%s: replay {%q %d %d %d}, Exec {%q %d %d %d}", c.cand,
				c.res.Bucket, c.res.CrashIdx, c.res.NExec, c.res.Faults,
				full.Bucket, full.CrashIdx, full.NExec, full.Faults)
		}
	}
}

// TestMinimizeMemoSkipsRepeats: on the [A,B,C] shape, where a candidate
// crashes exactly when it keeps A and C, delta removal tries [A,B], [A,C]
// (which shrinks the program), [C], then [A] and [C] again. The repeat of
// [C] comes from the memo, so the replay hook sees four replays, not five,
// while the budget and Executed are charged for all five candidates.
func TestMinimizeMemoSkipsRepeats(t *testing.T) {
	a, b, c := Call{Nr: 1}, Call{Nr: 2}, Call{Nr: 3}
	const bucket = "crash/shape"
	for _, tc := range []struct {
		budget, replays, executed int
	}{
		{64, 4, 7},
		{5, 4, 7}, // the fifth candidate is the memo hit, still charged
		{4, 4, 6}, // out of budget before the repeat
	} {
		l := NewLedger(Options{MaxMinimize: tc.budget}, nil)
		l.replay = func(cand *Prog, _ int64) (ExecResult, error) {
			res := ExecResult{NExec: len(cand.Calls), CrashIdx: -1}
			if slices.Contains(cand.Calls, a) && slices.Contains(cand.Calls, c) {
				res.Bucket, res.CrashIdx = bucket, len(cand.Calls)-1
			}
			return res, nil
		}
		replays := 0
		l.replayHook = func(*Prog, int64, ExecResult) { replays++ }
		min := l.minimize(&Prog{Calls: []Call{a, b, c}}, bucket, 7)
		if !slices.Equal(min.Calls, []Call{a, c}) {
			t.Errorf("budget %d: minimized to %v, want [A C]", tc.budget, min.Calls)
		}
		if replays != tc.replays || l.report.Executed != tc.executed {
			t.Errorf("budget %d: %d replays and Executed %d, want %d and %d",
				tc.budget, replays, l.report.Executed, tc.replays, tc.executed)
		}
	}
}
