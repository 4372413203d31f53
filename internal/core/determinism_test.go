package core

import (
	"testing"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/verify"
)

// runSnapshot captures everything a verification run produces that the
// determinism contract covers: per-claim results, aggregate quality, and the
// ledger's token and fee totals.
type runSnapshot struct {
	results []claim.Result
	quality metrics.Quality
	usage   llm.Usage
	dollars float64
	calls   int
}

// stackBuilder constructs a method stack for a snapshot run; tests swap in
// builders with fault-injecting or resilient middleware.
type stackBuilder func(t testing.TB, seed int64) ([]verify.Method, *llm.Ledger)

func snapshotRun(t *testing.T, seed int64, workers int, gen func() []*claim.Document, profDocs []*claim.Document) runSnapshot {
	t.Helper()
	return snapshotRunWith(t, seed, workers, gen, profDocs, stack)
}

func snapshotRunWith(t *testing.T, seed int64, workers int, gen func() []*claim.Document, profDocs []*claim.Document, build stackBuilder) runSnapshot {
	t.Helper()
	methods, ledger := build(t, seed)
	stats, err := profile.Run(methods, profDocs, ledger, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Methods:        methods,
		Stats:          stats,
		AccuracyTarget: 0.99,
		Seed:           seed,
		Workers:        workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	docs := gen()
	ledger.Reset()
	p.VerifyDocumentsParallel(docs, workers)
	snap := runSnapshot{
		quality: metrics.Evaluate(docs),
		usage:   ledger.TotalUsage(),
		dollars: ledger.TotalDollars(),
		calls:   ledger.TotalCalls(),
	}
	for _, d := range docs {
		for _, c := range d.Claims {
			snap.results = append(snap.results, c.Result)
		}
	}
	return snap
}

// TestVerifyDeterministicAcrossWorkerCounts is the tentpole property: for a
// fixed seed, every worker count must produce bit-identical per-claim
// results, identical quality metrics, and identical ledger token and fee
// totals. Claim-level parallelism may only change wall-clock time.
func TestVerifyDeterministicAcrossWorkerCounts(t *testing.T) {
	cases := []struct {
		name  string
		seed  int64
		gen   func(t *testing.T) ([]*claim.Document, []*claim.Document)
		build stackBuilder // nil = the plain stack
	}{
		{
			name: "AggChecker",
			seed: 404,
			gen: func(t *testing.T) ([]*claim.Document, []*claim.Document) {
				docs, err := data.AggChecker(404)
				if err != nil {
					t.Fatal(err)
				}
				return docs[8:20], docs[:8]
			},
		},
		{
			name: "JoinBench",
			seed: 405,
			gen: func(t *testing.T) ([]*claim.Document, []*claim.Document) {
				_, normalized, err := data.JoinBench(405)
				if err != nil {
					t.Fatal(err)
				}
				profFlat, _, err := data.JoinBench(406)
				if err != nil {
					t.Fatal(err)
				}
				return normalized, profFlat[:6]
			},
		},
		{
			// PR 1's guarantee must survive the resilience middleware: a
			// nonzero fault plan plus retries still yields bit-identical
			// runs at any worker count, because faults and backoff jitter
			// derive from request identity, never from arrival order.
			name: "AggCheckerFaulted",
			seed: 404,
			gen: func(t *testing.T) ([]*claim.Document, []*claim.Document) {
				docs, err := data.AggChecker(404)
				if err != nil {
					t.Fatal(err)
				}
				return docs[8:20], docs[:8]
			},
			build: func(t testing.TB, seed int64) ([]verify.Method, *llm.Ledger) {
				return resilientStack(t, seed, verify.Middleware{FaultRate: 0.2, Retries: 2})
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			evalDocs, profDocs := tc.gen(t)
			gen := func() []*claim.Document { return claim.CloneDocuments(evalDocs) }
			build := tc.build
			if build == nil {
				build = stack
			}
			base := snapshotRunWith(t, tc.seed, 1, gen, profDocs, build)
			if len(base.results) == 0 {
				t.Fatal("no claims verified in baseline run")
			}
			for _, workers := range []int{2, 8} {
				got := snapshotRunWith(t, tc.seed, workers, gen, profDocs, build)
				if got.quality != base.quality {
					t.Errorf("workers=%d quality %v != sequential %v", workers, got.quality, base.quality)
				}
				if got.usage != base.usage {
					t.Errorf("workers=%d token usage %+v != sequential %+v", workers, got.usage, base.usage)
				}
				if got.dollars != base.dollars {
					t.Errorf("workers=%d fees $%v != sequential $%v", workers, got.dollars, base.dollars)
				}
				if got.calls != base.calls {
					t.Errorf("workers=%d calls %d != sequential %d", workers, got.calls, base.calls)
				}
				if len(got.results) != len(base.results) {
					t.Fatalf("workers=%d produced %d results, sequential %d", workers, len(got.results), len(base.results))
				}
				for i := range base.results {
					if got.results[i] != base.results[i] {
						t.Errorf("workers=%d claim %d result differs:\n got %+v\nwant %+v",
							workers, i, got.results[i], base.results[i])
					}
				}
			}
		})
	}
}
