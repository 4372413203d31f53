package cedar

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/claim"
)

func TestEndToEndPublicAPI(t *testing.T) {
	sys, err := New(Options{Seed: 5, AccuracyTarget: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	profDocs, err := Benchmark(BenchAggChecker, 1001)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ProfileOn(profDocs[:6]); err != nil {
		t.Fatal(err)
	}
	if len(sys.Stats()) != 4 {
		t.Fatalf("stats = %d methods", len(sys.Stats()))
	}
	if sys.Schedule() == "(not planned)" {
		t.Fatal("schedule not planned after profiling")
	}
	docs, err := Benchmark(BenchAggChecker, 1002)
	if err != nil {
		t.Fatal(err)
	}
	docs = docs[:10]
	rep, err := sys.Verify(docs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("report: %v\nschedule: %s", rep, sys.Schedule())
	if rep.Claims != 70 {
		t.Errorf("claims = %d", rep.Claims)
	}
	if rep.Verified < 40 {
		t.Errorf("verified = %d, too few", rep.Verified)
	}
	if rep.Dollars <= 0 || rep.Calls <= 0 {
		t.Errorf("cost accounting empty: %+v", rep)
	}
	if rep.Quality.F1 < 0.4 {
		t.Errorf("F1 = %v", rep.Quality.F1)
	}
	if !strings.Contains(rep.String(), "cost=$") {
		t.Errorf("report string = %q", rep.String())
	}
}

func TestVerifyBeforeProfile(t *testing.T) {
	sys, err := New(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	docs, _ := Benchmark(BenchTabFact, 1)
	if _, err := sys.Verify(docs); !errors.Is(err, ErrNotProfiled) {
		t.Errorf("err = %v", err)
	}
}

func TestNewOptionsValidation(t *testing.T) {
	if _, err := New(Options{AccuracyTarget: 1.5}); err == nil {
		t.Error("expected error for invalid target")
	}
	sys, err := New(Options{}) // default target
	if err != nil {
		t.Fatal(err)
	}
	if sys.opts.AccuracyTarget != 0.99 {
		t.Errorf("default target = %v", sys.opts.AccuracyTarget)
	}
}

func TestCustomDocumentVerification(t *testing.T) {
	// Build a document by hand through the public API: the paper's running
	// example around the airlines table.
	db := NewDatabase("airlinesafety")
	tab, err := LoadCSVTable("airlines", strings.NewReader(
		"airline,fatal_accidents_00_14,fatalities_00_14\n"+
			"Aer Lingus,0,0\n"+
			"Malaysia Airlines,2,537\n"+
			"United / Continental,2,109\n"))
	if err != nil {
		t.Fatal(err)
	}
	db.AddTable(tab)

	good, err := NewClaim("c1",
		"Malaysia Airlines recorded 2 fatal accidents between 2000 and 2014.",
		"2",
		"A look at airline safety. Malaysia Airlines recorded 2 fatal accidents between 2000 and 2014.")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := NewClaim("c2",
		"Malaysia Airlines recorded 9 fatal accidents between 2000 and 2014.",
		"9", "")
	if err != nil {
		t.Fatal(err)
	}
	doc := &Document{ID: "demo", Domain: "demo", Data: db, Claims: []*Claim{good, bad}}

	sys, err := New(Options{Seed: 11, AccuracyTarget: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	profDocs, err := Benchmark(BenchAggChecker, 1003)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ProfileOn(profDocs[:6]); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Verify([]*Document{doc}); err != nil {
		t.Fatal(err)
	}
	if !good.Result.Correct {
		t.Errorf("true claim marked incorrect: %+v", good.Result)
	}
	if bad.Result.Correct {
		t.Errorf("false claim marked correct: %+v", bad.Result)
	}
	if good.Result.Query == "" {
		t.Error("no query recorded for verified claim")
	}
}

func TestNewClaimErrors(t *testing.T) {
	if _, err := NewClaim("x", "No value here.", "42", ""); err == nil {
		t.Error("expected error for absent value")
	}
	c, err := NewClaim("x", "The count was 42.", "42", "Unrelated paragraph.")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Context, c.Sentence) {
		t.Error("context must contain the sentence")
	}
}

func TestBenchmarkNames(t *testing.T) {
	for _, name := range []string{BenchAggChecker, BenchTabFact, BenchWikiText} {
		docs, err := Benchmark(name, 3)
		if err != nil || len(docs) == 0 {
			t.Errorf("Benchmark(%q): %d docs, %v", name, len(docs), err)
		}
	}
	if _, err := Benchmark("nope", 1); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestCostBudgetOption(t *testing.T) {
	sys, err := New(Options{Seed: 21, CostBudgetPerClaim: 0.0003})
	if err != nil {
		t.Fatal(err)
	}
	profDocs, err := Benchmark(BenchAggChecker, 1004)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ProfileOn(profDocs[:6]); err != nil {
		t.Fatal(err)
	}
	docs, err := Benchmark(BenchAggChecker, 1005)
	if err != nil {
		t.Fatal(err)
	}
	docs = docs[:8]
	rep, err := sys.Verify(docs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("budget run: %v under schedule %s", rep, sys.Schedule())
	if rep.Dollars/float64(rep.Claims) > 0.0012 {
		t.Errorf("realized per-claim cost $%.5f far above budget", rep.Dollars/float64(rep.Claims))
	}
}

func TestCacheResponsesOption(t *testing.T) {
	// With caching on, verifying the same documents twice books fewer
	// dollars the second time (temperature-0 calls hit the cache).
	sys, err := New(Options{Seed: 31, AccuracyTarget: 0.99, CacheResponses: true})
	if err != nil {
		t.Fatal(err)
	}
	profDocs, err := Benchmark(BenchAggChecker, 1006)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ProfileOn(profDocs[:6]); err != nil {
		t.Fatal(err)
	}
	docs1, err := Benchmark(BenchAggChecker, 1007)
	if err != nil {
		t.Fatal(err)
	}
	docs1 = docs1[:6]
	rep1, err := sys.Verify(docs1)
	if err != nil {
		t.Fatal(err)
	}
	docs2, err := Benchmark(BenchAggChecker, 1007)
	if err != nil {
		t.Fatal(err)
	}
	docs2 = docs2[:6]
	rep2, err := sys.Verify(docs2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("first run $%.4f (%d calls), second $%.4f (%d calls)", rep1.Dollars, rep1.Calls, rep2.Dollars, rep2.Calls)
	// Temperature-0 calls hit the cache on the repeat run; only the
	// stochastic retries (temperature > 0, uncacheable by design) still
	// reach the models.
	if rep2.Calls >= rep1.Calls/2 {
		t.Errorf("cache did not absorb repeat calls: %d vs %d", rep2.Calls, rep1.Calls)
	}
	if rep2.Dollars >= rep1.Dollars {
		t.Errorf("cache did not reduce repeat cost: $%.4f vs $%.4f", rep2.Dollars, rep1.Dollars)
	}
	// Verdict quality stays in the same band (retry randomness may move
	// individual outcomes; the cache itself must not degrade results).
	if diff := rep2.Quality.F1 - rep1.Quality.F1; diff < -0.15 {
		t.Errorf("cached run quality collapsed: %.3f vs %.3f", rep2.Quality.F1, rep1.Quality.F1)
	}
}

func TestEvaluateExported(t *testing.T) {
	docs, err := Benchmark(BenchTabFact, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate an all-correct verdict and check the exported scorer.
	incorrect := 0
	for _, d := range docs {
		for _, c := range d.Claims {
			c.Result.Correct = true
			if !c.Gold.Correct {
				incorrect++
			}
		}
	}
	q := Evaluate(docs)
	if q.TP != 0 || q.FN != incorrect {
		t.Errorf("all-correct verdicts: %+v (want FN=%d)", q, incorrect)
	}
}

func TestWorkersOption(t *testing.T) {
	sys, err := New(Options{Seed: 41, AccuracyTarget: 0.99, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	profDocs, err := Benchmark(BenchAggChecker, 1008)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ProfileOn(profDocs[:6]); err != nil {
		t.Fatal(err)
	}
	docs, err := Benchmark(BenchAggChecker, 1009)
	if err != nil {
		t.Fatal(err)
	}
	docs = docs[:12]
	rep, err := sys.Verify(docs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Claims != 84 || rep.Verified == 0 {
		t.Errorf("parallel report = %+v", rep)
	}
	for _, d := range docs {
		for _, c := range d.Claims {
			if c.Result.Method == "" {
				t.Fatalf("claim %s unannotated", c.ID)
			}
		}
	}
}

// TestResilienceOptions runs the public API under injected faults with
// retries and hedging: the run must complete with every claim annotated,
// identical reports at workers 1 and 8, and live resilience counters.
func TestResilienceOptions(t *testing.T) {
	verifyAt := func(workers int) (Report, []*Document, *System) {
		sys, err := New(Options{
			Seed:           51,
			AccuracyTarget: 0.99,
			Workers:        workers,
			FaultRate:      0.2,
			Retries:        2,
			Timeout:        5 * time.Minute,
			HedgeAfter:     2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		profDocs, err := Benchmark(BenchAggChecker, 1010)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.ProfileOn(profDocs[:6]); err != nil {
			t.Fatal(err)
		}
		docs, err := Benchmark(BenchAggChecker, 1011)
		if err != nil {
			t.Fatal(err)
		}
		docs = docs[:10]
		rep, err := sys.Verify(docs)
		if err != nil {
			t.Fatal(err)
		}
		return rep, docs, sys
	}

	seq, seqDocs, sys := verifyAt(1)
	if seq.Verified == 0 {
		t.Fatal("nothing verified under 20% faults with retries")
	}
	snap := sys.Resilience()
	if snap.Faults == 0 || snap.Attempts == 0 {
		t.Errorf("resilience counters dead: %v", snap)
	}
	if snap.Retries == 0 {
		t.Errorf("20%% faults with retries enabled should retry at least once: %v", snap)
	}
	for _, d := range seqDocs {
		for _, c := range d.Claims {
			if c.Result.Method == "" {
				t.Fatalf("claim %s lost under faults", c.ID)
			}
		}
	}

	par, parDocs, _ := verifyAt(8)
	if par != seq {
		t.Errorf("faulty run differs across worker counts:\n workers=8 %+v\n workers=1 %+v", par, seq)
	}
	for i, d := range parDocs {
		for j, c := range d.Claims {
			if c.Result != seqDocs[i].Claims[j].Result {
				t.Errorf("claim %s result differs across worker counts:\n got %+v\nwant %+v",
					c.ID, c.Result, seqDocs[i].Claims[j].Result)
			}
		}
	}
}

// A breaker threshold alone (no faults) must not perturb a healthy run.
func TestBreakerOptionHealthyRun(t *testing.T) {
	sys, err := New(Options{Seed: 52, AccuracyTarget: 0.9, BreakerThreshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	profDocs, err := Benchmark(BenchAggChecker, 1012)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ProfileOn(profDocs[:6]); err != nil {
		t.Fatal(err)
	}
	docs, err := Benchmark(BenchAggChecker, 1013)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Verify(docs[:6])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified == 0 {
		t.Error("healthy run with breaker verified nothing")
	}
	if snap := sys.Resilience(); snap.BreakerTrips != 0 || snap.BreakerSheds != 0 {
		t.Errorf("breaker acted on a healthy provider: %v", snap)
	}
}

// TestStreamSubmitBlocksPastWindow counts NewStream's bound with no one
// reading Results: window documents wait their turn and one more is being
// verified or awaits delivery, so Submit number window+2 blocks until a
// result is read. (That a stream verifies as a batch does, in any arrival
// order, is a cell of cmd/cedar-serve's TestIdentityMatrix.)
func TestStreamSubmitBlocksPastWindow(t *testing.T) {
	docs, err := Benchmark(BenchAggChecker, 505)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Options{Seed: 404})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ProfileOn(docs[:6]); err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			st, submit := sys.NewStream(window), claim.CloneDocuments(docs[6:6+window+3])
			var admitted atomic.Int64
			go func() {
				for _, d := range submit {
					if err := st.Submit(d); err != nil {
						t.Error(err)
					}
					admitted.Add(1)
				}
				st.Close()
			}()
			for deadline := time.Now().Add(5 * time.Second); admitted.Load() < int64(window+1) && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(50 * time.Millisecond) // every chance to run past the bound
			if got := admitted.Load(); got != int64(window+1) {
				t.Errorf("%d documents admitted with none delivered, want %d", got, window+1)
			}
			delivered := 0
			for range st.Results() {
				delivered++
			}
			if delivered != len(submit) {
				t.Errorf("%d of %d documents delivered", delivered, len(submit))
			}
			if err := st.Submit(submit[0]); err != ErrStreamClosed {
				t.Errorf("Submit after Close = %v, want ErrStreamClosed", err)
			}
		})
	}
}
