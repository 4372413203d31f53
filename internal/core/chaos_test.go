package core

import (
	"fmt"
	"testing"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/llm"
	"repro/internal/llm/resilience"
	"repro/internal/llm/sim"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/schedule"
	"repro/internal/verify"
)

// resilientStack builds the stack cedar ships (verify.NewStack) with fault
// injection, retries and optionally a hedge and a tracer. The breaker is
// deliberately absent — its shared state is order-dependent, so it gets its
// own tests instead of a seat in the identity matrix.
func resilientStack(t testing.TB, seed int64, mw verify.Middleware) ([]verify.Method, *llm.Ledger) {
	t.Helper()
	s, err := verify.NewStack(seed, mw)
	if err != nil {
		t.Fatal(err)
	}
	return s.Methods, s.Ledger
}

// runSnapshot captures what the pipeline tests read of a verification run:
// per-claim results and aggregate quality. (That a run is identical at any
// worker count, fault rate or plan-cache warmth is cmd/cedar-serve's
// TestIdentityMatrix.)
type runSnapshot struct {
	results []claim.Result
	quality metrics.Quality
}

// snapshotRun profiles and runs the pipeline over clones of evalDocs on the
// stack verify.NewStack builds with mw.
func snapshotRun(t *testing.T, seed int64, workers int, evalDocs, profDocs []*claim.Document, mw verify.Middleware) runSnapshot {
	t.Helper()
	methods, ledger := resilientStack(t, seed, mw)
	stats, err := profile.Run(methods, profDocs, ledger)
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
	docs := claim.CloneDocuments(evalDocs)
	ledger.Reset()
	p.VerifyDocumentsParallel(docs, workers)
	snap := runSnapshot{quality: metrics.Evaluate(docs)}
	for _, d := range docs {
		for _, c := range d.Claims {
			snap.results = append(snap.results, c.Result)
		}
	}
	return snap
}

// assertQualityPartition checks the scoring invariant of the Failed bugfix:
// quality is computed over non-failed claims only, the confusion counts plus
// Failed partition the corpus exactly, and Failed agrees with the per-claim
// terminal labels.
func assertQualityPartition(t *testing.T, snap runSnapshot) {
	t.Helper()
	q := snap.quality
	if got, want := q.TP+q.FP+q.FN+q.TN+q.Failed, len(snap.results); got != want {
		t.Errorf("confusion counts + failed = %d, want %d claims (%+v)", got, want, q)
	}
	failed := 0
	for _, r := range snap.results {
		if r.Method == claim.MethodFailed {
			failed++
		}
	}
	if q.Failed != failed {
		t.Errorf("Quality.Failed = %d, but %d claims carry method %q", q.Failed, failed, claim.MethodFailed)
	}
}

// TestQualityPartitionProperty is the fault-rate sweep of the scoring fix:
// at every fault rate the confusion counts plus Failed sum to the corpus
// size, and at rate 0 (no transport loss) the quality equals the plain
// un-faulted stack's — the resilience middleware and the Failed accounting
// must not perturb clean-run numbers.
func TestQualityPartitionProperty(t *testing.T) {
	docs, err := data.AggChecker(404)
	if err != nil {
		t.Fatal(err)
	}
	profDocs, evalDocs := docs[:8], docs[8:20]
	plain := snapshotRun(t, 404, 1, evalDocs, profDocs, verify.Middleware{})
	for _, rate := range []float64{0, 0.1, 0.35, 0.6, 0.9} {
		rate := rate
		t.Run(fmt.Sprintf("rate=%v", rate), func(t *testing.T) {
			snap := snapshotRun(t, 404, 4, evalDocs, profDocs, verify.Middleware{FaultRate: rate, Retries: 1})
			assertQualityPartition(t, snap)
			if rate == 0 {
				if snap.quality.Failed != 0 {
					t.Errorf("rate 0 produced %d failed claims", snap.quality.Failed)
				}
				if snap.quality != plain.quality {
					t.Errorf("rate 0 quality %v != plain stack %v", snap.quality, plain.quality)
				}
			}
		})
	}
}

// TestBreakerDegradesToNextMethod pins the degradation path of the
// acceptance criteria: with the cheapest method's model 100% faulty behind a
// breaker, the breaker trips open, its claims shed at zero cost, and the
// scheduler's next methods still verify the document — the breaker converts
// "this model is down" into "use the next-cheapest method", never into an
// aborted document.
func TestBreakerDegradesToNextMethod(t *testing.T) {
	docs, err := data.AggChecker(999)
	if err != nil {
		t.Fatal(err)
	}
	evalDocs := claim.CloneDocuments(docs[8:14])

	seed := int64(999)
	ledger := llm.NewLedger()
	res := &metrics.Resilience{}
	sim35, err := sim.New(llm.ModelGPT35, seed)
	if err != nil {
		t.Fatal(err)
	}
	// gpt3.5 always fails with a retryable transient error; threshold 3
	// trips the breaker early in the run.
	broken := &resilience.Breaker{
		Client: &llm.Metered{
			Client: &resilience.Faulty{
				Client:  sim35,
				Plan:    resilience.Plan{Seed: 1, Rate: 1, Transient: 1},
				Metrics: res,
			},
			Ledger: ledger,
		},
		FailureThreshold: 3,
		Metrics:          res,
	}
	healthy := func(model string) llm.Client {
		m, err := sim.New(model, seed)
		if err != nil {
			t.Fatal(err)
		}
		return &llm.Metered{Client: m, Ledger: ledger}
	}
	methods := []verify.Method{
		verify.NewOneShot(broken, llm.ModelGPT35, "oneshot-gpt3.5"),
		verify.NewOneShot(healthy(llm.ModelGPT4o), llm.ModelGPT4o, "oneshot-gpt4o"),
		verify.NewAgent(healthy(llm.ModelGPT41), llm.ModelGPT41, "agent-gpt4.1", seed+1),
	}
	// Force a schedule that leads with the dead method so degradation is
	// actually exercised (a profiled schedule would simply skip it).
	plan := &schedule.Schedule{Steps: []schedule.Step{
		{Method: "oneshot-gpt3.5", Tries: 2},
		{Method: "oneshot-gpt4o", Tries: 2},
		{Method: "agent-gpt4.1", Tries: 2},
	}}
	p, err := NewWithSchedule(Config{Methods: methods, Seed: seed, Workers: 1}, plan)
	if err != nil {
		t.Fatal(err)
	}
	p.VerifyDocuments(evalDocs)

	verified, byDead := 0, 0
	for _, d := range evalDocs {
		for _, c := range d.Claims {
			if c.Result.Method == "oneshot-gpt3.5" {
				byDead++
			}
			if c.Result.Verified {
				verified++
			}
		}
	}
	if byDead != 0 {
		t.Errorf("%d claims credited to the dead method", byDead)
	}
	if verified == 0 {
		t.Fatal("no claim verified: breaker-open did not degrade to the next method")
	}
	if got := broken.State(); got != resilience.Open {
		t.Errorf("breaker state = %v, want open", got)
	}
	snap := res.Snapshot()
	if snap.BreakerTrips == 0 {
		t.Error("breaker never tripped despite a 100% faulty model")
	}
	if snap.BreakerSheds == 0 {
		t.Error("breaker never shed a call while open")
	}
	// Shed calls must be free: the dead model's ledger entries may contain
	// only the pre-trip failed attempts, each billing tokens, never a shed.
	for _, e := range ledger.Entries() {
		if e.Model == llm.ModelGPT35 && e.Calls > int(snap.Transient) {
			t.Errorf("gpt3.5 booked %d calls but only %d reached the provider", e.Calls, snap.Transient)
		}
	}
}
