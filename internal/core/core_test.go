package core

import (
	"testing"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/schedule"
	"repro/internal/verify"
)

// stack builds the standard four-method CEDAR stack of Section 7.1 —
// one-shot with GPT-3.5 and GPT-4o, agents with GPT-4o and GPT-4.1 — over
// fresh sim models metered into one ledger, with no other middleware.
func stack(t testing.TB, seed int64) ([]verify.Method, *llm.Ledger) {
	t.Helper()
	s, err := verify.NewStack(seed, verify.Middleware{})
	if err != nil {
		t.Fatal(err)
	}
	return s.Methods, s.Ledger
}

func TestPipelineEndToEnd(t *testing.T) {
	docs, err := data.AggChecker(101)
	if err != nil {
		t.Fatal(err)
	}
	profDocs := docs[:8]
	evalDocs := docs[8:28]

	methods, ledger := stack(t, 101)
	stats, err := profile.Run(methods, profDocs, ledger)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		t.Logf("profiled %-16s acc=%.2f cost=$%.5f wall=%v", s.Name, s.Accuracy, s.Cost, s.Wall)
		if s.Accuracy <= 0.2 || s.Accuracy > 1 {
			t.Errorf("%s accuracy %.2f implausible", s.Name, s.Accuracy)
		}
	}
	// Cost ordering must hold: one-shot gpt3.5 cheapest, agents dearest.
	byName := map[string]schedule.MethodStats{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	if byName["oneshot-gpt3.5"].Cost >= byName["oneshot-gpt4o"].Cost {
		t.Error("gpt3.5 one-shot should be cheaper than gpt4o one-shot")
	}
	if byName["oneshot-gpt4o"].Cost >= byName["agent-gpt4o"].Cost {
		t.Error("one-shot should be cheaper than agent on the same model")
	}

	p, err := New(Config{Methods: methods, Stats: stats, AccuracyTarget: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("schedule: %v", p.Schedule())
	if p.Schedule().Accuracy < 0.99 {
		t.Errorf("planned accuracy %.3f below target", p.Schedule().Accuracy)
	}

	ledger.Reset()
	p.VerifyDocuments(evalDocs)
	q := metrics.Evaluate(evalDocs)
	t.Logf("CEDAR on %d claims: %v, cost $%.3f", claim.TotalClaims(evalDocs), q, ledger.TotalDollars())
	if q.F1 < 0.4 {
		t.Errorf("CEDAR F1 %.2f too low", q.F1)
	}
	verified := 0
	for _, d := range evalDocs {
		for _, c := range d.Claims {
			if c.Result.Verified {
				verified++
				if c.Result.Query == "" || c.Result.Method == "" {
					t.Errorf("claim %s verified without query/method", c.ID)
				}
			}
		}
	}
	if float64(verified) < 0.8*float64(claim.TotalClaims(evalDocs)) {
		t.Errorf("only %d/%d claims verified at 99%% target", verified, claim.TotalClaims(evalDocs))
	}
}

func TestAccuracyTargetTradesCost(t *testing.T) {
	docs, err := data.AggChecker(202)
	if err != nil {
		t.Fatal(err)
	}
	profDocs := docs[:8]
	methods, ledger := stack(t, 202)
	stats, err := profile.Run(methods, profDocs, ledger)
	if err != nil {
		t.Fatal(err)
	}
	costs := map[float64]float64{}
	f1s := map[float64]float64{}
	for _, target := range []float64{0.6, 0.99} {
		evalDocs, err := data.AggChecker(203) // fresh identical corpus per run
		if err != nil {
			t.Fatal(err)
		}
		evalDocs = evalDocs[:16]
		p, err := New(Config{Methods: methods, Stats: stats, AccuracyTarget: target})
		if err != nil {
			t.Fatal(err)
		}
		ledger.Reset()
		p.VerifyDocuments(evalDocs)
		costs[target] = ledger.TotalDollars()
		f1s[target] = metrics.Evaluate(evalDocs).F1
		t.Logf("target %.2f: schedule %v -> F1 %.2f, cost $%.3f", target, p.Schedule(), f1s[target], costs[target])
	}
	if costs[0.6] >= costs[0.99] {
		t.Errorf("lower accuracy target must cost less: $%.4f vs $%.4f", costs[0.6], costs[0.99])
	}
}

func TestMultiStageCheaperThanBestSingleStage(t *testing.T) {
	// The headline claim: multi-stage verification approaches the F1 of
	// the strongest single-stage method at a fraction of its cost.
	methods, ledger := stack(t, 303)
	profDocs, err := data.AggChecker(303)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := profile.Run(methods, profDocs[:8], ledger)
	if err != nil {
		t.Fatal(err)
	}

	run := func(p *Pipeline) (metrics.Quality, float64) {
		// Full 392-claim corpus: per-seed variance on small subsets can
		// flip the F1 comparison by several points.
		evalDocs, err := data.AggChecker(304)
		if err != nil {
			t.Fatal(err)
		}
		ledger.Reset()
		p.VerifyDocuments(evalDocs)
		return metrics.Evaluate(evalDocs), ledger.TotalDollars()
	}

	multi, err := New(Config{Methods: methods, Stats: stats, AccuracyTarget: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	qMulti, costMulti := run(multi)

	single, err := NewWithSchedule(
		Config{Methods: methods, Stats: stats},
		SingleStageSchedule("agent-gpt4.1", 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	qSingle, costSingle := run(single)

	t.Logf("multi-stage: %v $%.3f | single agent-4.1: %v $%.3f", qMulti, costMulti, qSingle, costSingle)
	if costMulti >= costSingle {
		t.Errorf("multi-stage ($%.3f) should cost less than all-agent single stage ($%.3f)", costMulti, costSingle)
	}
	if costMulti > costSingle/3 {
		t.Errorf("multi-stage should cost a small fraction of all-agent: $%.3f vs $%.3f", costMulti, costSingle)
	}
	// Documented deviation (DESIGN.md §6): our multi-stage trails the best
	// single-stage agent by a handful of F1 points while costing a small
	// fraction; it must never collapse.
	if qMulti.F1 < qSingle.F1-0.15 {
		t.Errorf("multi-stage F1 %.2f collapses vs single-stage %.2f", qMulti.F1, qSingle.F1)
	}
}

func TestUnverifiableClaimsDefaultCorrect(t *testing.T) {
	docs, err := data.AggChecker(404)
	if err != nil {
		t.Fatal(err)
	}
	d := docs[0]
	methods, _ := stack(t, 404)
	// A schedule with zero tries everywhere verifies nothing.
	p, err := NewWithSchedule(Config{Methods: methods}, &schedule.Schedule{
		Steps: []schedule.Step{{Method: "oneshot-gpt3.5", Tries: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.VerifyDocument(d)
	for _, c := range d.Claims {
		if c.Result.Verified {
			t.Errorf("claim %s verified by empty schedule", c.ID)
		}
		if !c.Result.Correct {
			t.Errorf("unverifiable claim %s not defaulted to correct", c.ID)
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("expected error with no methods")
	}
	methods, _ := stack(t, 1)
	_, err := NewWithSchedule(Config{Methods: methods}, &schedule.Schedule{
		Steps: []schedule.Step{{Method: "nope", Tries: 1}},
	})
	if err == nil {
		t.Error("expected unknown-method error")
	}
}

func TestMetricsEvaluate(t *testing.T) {
	mk := func(goldCorrect, verified, resultCorrect bool) *claim.Claim {
		return &claim.Claim{
			Gold:   claim.Gold{Correct: goldCorrect},
			Result: claim.Result{Verified: verified, Correct: resultCorrect},
		}
	}
	docs := []*claim.Document{{Claims: []*claim.Claim{
		mk(false, true, false), // TP: incorrect, flagged
		mk(true, true, false),  // FP: correct, flagged
		mk(false, false, true), // FN: incorrect, unverified -> default correct
		mk(true, true, true),   // TN
		mk(false, true, false), // TP
	}}}
	q := metrics.Evaluate(docs)
	if q.TP != 2 || q.FP != 1 || q.FN != 1 || q.TN != 1 {
		t.Fatalf("confusion = %+v", q)
	}
	if q.Precision != 2.0/3 || q.Recall != 2.0/3 {
		t.Errorf("p/r = %v/%v", q.Precision, q.Recall)
	}
}

func TestDefaultRetryTemperature(t *testing.T) {
	if DefaultRetryTemperature("oneshot-gpt3.5", 0) != 0 {
		t.Error("first try must be temperature 0")
	}
	if DefaultRetryTemperature("oneshot-gpt3.5", 1) != 0.25 {
		t.Error("one-shot retry must be 0.25")
	}
	if DefaultRetryTemperature("agent-gpt4o", 1) != 0.5 {
		t.Error("agent retry must be 0.5")
	}
}

func TestCostBudgetPlanning(t *testing.T) {
	methods, ledger := stack(t, 505)
	profDocs, err := data.AggChecker(505)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := profile.Run(methods, profDocs[:8], ledger)
	if err != nil {
		t.Fatal(err)
	}
	// A generous budget buys at least the accuracy of a tight one.
	tight, err := New(Config{Methods: methods, Stats: stats, CostBudget: 0.0003})
	if err != nil {
		t.Fatal(err)
	}
	rich, err := New(Config{Methods: methods, Stats: stats, CostBudget: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tight: %v\nrich:  %v", tight.Schedule(), rich.Schedule())
	if tight.Schedule().Cost > 0.0003 {
		t.Errorf("tight budget exceeded: %v", tight.Schedule().Cost)
	}
	if rich.Schedule().Accuracy < tight.Schedule().Accuracy {
		t.Errorf("rich budget bought less accuracy: %v vs %v",
			rich.Schedule().Accuracy, tight.Schedule().Accuracy)
	}
}

func TestVerifyDocumentsParallel(t *testing.T) {
	methods, ledger := stack(t, 606)
	profDocs, err := data.AggChecker(606)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := profile.Run(methods, profDocs[:8], ledger)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Methods: methods, Stats: stats, AccuracyTarget: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	// Sequential and parallel runs on identical corpora must produce the
	// same verdicts at temperature 0 schedules (first tries); stochastic
	// retries may differ, so compare aggregate quality within tolerance
	// and every claim must be annotated.
	seqDocs, err := data.AggChecker(607)
	if err != nil {
		t.Fatal(err)
	}
	parDocs, err := data.AggChecker(607)
	if err != nil {
		t.Fatal(err)
	}
	ledger.Reset()
	p.VerifyDocuments(seqDocs)
	seqQ := metrics.Evaluate(seqDocs)
	ledger.Reset()
	p.VerifyDocumentsParallel(parDocs, 8)
	parQ := metrics.Evaluate(parDocs)
	t.Logf("sequential %v | parallel %v", seqQ, parQ)
	for _, d := range parDocs {
		for _, c := range d.Claims {
			if c.Result.Method == "" {
				t.Fatalf("claim %s not annotated in parallel run", c.ID)
			}
		}
	}
	if diff := parQ.F1 - seqQ.F1; diff > 0.08 || diff < -0.08 {
		t.Errorf("parallel quality diverges: %.3f vs %.3f", parQ.F1, seqQ.F1)
	}
	// Degenerate worker counts fall back safely.
	p.VerifyDocumentsParallel(parDocs[:1], 8)
	p.VerifyDocumentsParallel(parDocs, 1)
}

// TestPipelineInvariants property-checks the pipeline over random corpora:
// gold fields are never mutated, every claim receives exactly one verdict
// with a method label, and verified claims always carry an executable
// query.
func TestPipelineInvariants(t *testing.T) {
	for seed := int64(900); seed < 905; seed++ {
		docs, err := data.Generate(data.GenConfig{
			Seed: seed, Docs: 6, ClaimsPerDoc: 5,
			IncorrectRate: 0.3, AliasRate: 0.5, ShortPhraseRate: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		golds := map[string]claim.Gold{}
		for _, d := range docs {
			for _, c := range d.Claims {
				golds[c.ID] = c.Gold
			}
		}
		methods, ledger := stack(t, seed)
		stats, err := profile.Run(methods, docs[:2], ledger)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(Config{Methods: methods, Stats: stats, AccuracyTarget: 0.95})
		if err != nil {
			t.Fatal(err)
		}
		p.VerifyDocuments(docs)
		for _, d := range docs {
			for _, c := range d.Claims {
				if c.Gold != golds[c.ID] {
					t.Fatalf("seed %d: gold mutated for %s", seed, c.ID)
				}
				if c.Result.Method == "" {
					t.Fatalf("seed %d: claim %s without method label", seed, c.ID)
				}
				if c.Result.Verified && c.Result.Query == "" {
					t.Fatalf("seed %d: verified claim %s without query", seed, c.ID)
				}
				if c.Result.Verified && !c.Result.Executable {
					t.Fatalf("seed %d: verified claim %s not marked executable", seed, c.ID)
				}
				if !c.Result.Verified && !c.Result.Executable && !c.Result.Correct {
					t.Fatalf("seed %d: unverifiable claim %s not defaulted correct", seed, c.ID)
				}
			}
		}
	}
}
