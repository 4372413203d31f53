package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/claim"
)

func mkClaim(goldCorrect, predictedCorrect bool) *claim.Claim {
	return &claim.Claim{
		Gold:   claim.Gold{Correct: goldCorrect},
		Result: claim.Result{Verified: true, Correct: predictedCorrect},
	}
}

func TestEvaluateConfusion(t *testing.T) {
	docs := []*claim.Document{{Claims: []*claim.Claim{
		mkClaim(false, false), // TP
		mkClaim(false, false), // TP
		mkClaim(true, false),  // FP
		mkClaim(false, true),  // FN
		mkClaim(true, true),   // TN
		mkClaim(true, true),   // TN
	}}}
	q := Evaluate(docs)
	if q.TP != 2 || q.FP != 1 || q.FN != 1 || q.TN != 2 {
		t.Fatalf("confusion: %+v", q)
	}
	if math.Abs(q.Precision-2.0/3) > 1e-12 || math.Abs(q.Recall-2.0/3) > 1e-12 {
		t.Errorf("p/r = %v/%v", q.Precision, q.Recall)
	}
	if math.Abs(q.F1-2.0/3) > 1e-12 {
		t.Errorf("f1 = %v", q.F1)
	}
	if !strings.Contains(q.String(), "precision=66.7") {
		t.Errorf("String = %q", q.String())
	}
}

func TestEvaluateEmptyAndDegenerate(t *testing.T) {
	q := Evaluate(nil)
	if q.Precision != 0 || q.Recall != 0 || q.F1 != 0 {
		t.Errorf("empty corpus: %+v", q)
	}
	// All correct, none flagged: no division by zero.
	q = Evaluate([]*claim.Document{{Claims: []*claim.Claim{mkClaim(true, true)}}})
	if q.F1 != 0 || q.TN != 1 {
		t.Errorf("degenerate: %+v", q)
	}
}

// TestEvaluateUnverifiedDefaults pins the Section 4 default handling: an
// unverified claim marked correct counts as predicted-correct; an
// unverified claim with an executable query marked incorrect counts as
// flagged.
func TestEvaluateUnverifiedDefaults(t *testing.T) {
	docs := []*claim.Document{{Claims: []*claim.Claim{
		{Gold: claim.Gold{Correct: false}, Result: claim.Result{Verified: false, Correct: true}},                    // FN
		{Gold: claim.Gold{Correct: false}, Result: claim.Result{Verified: false, Correct: false, Executable: true}}, // TP via fallback
	}}}
	q := Evaluate(docs)
	if q.TP != 1 || q.FN != 1 {
		t.Errorf("fallback handling: %+v", q)
	}
}

// Property: F1 is the harmonic mean, always between min and max of P and R.
func TestF1BoundsProperty(t *testing.T) {
	f := func(tp, fp, fn uint8) bool {
		var docs []*claim.Document
		d := &claim.Document{}
		for i := 0; i < int(tp%20); i++ {
			d.Claims = append(d.Claims, mkClaim(false, false))
		}
		for i := 0; i < int(fp%20); i++ {
			d.Claims = append(d.Claims, mkClaim(true, false))
		}
		for i := 0; i < int(fn%20); i++ {
			d.Claims = append(d.Claims, mkClaim(false, true))
		}
		docs = append(docs, d)
		q := Evaluate(docs)
		lo := math.Min(q.Precision, q.Recall)
		hi := math.Max(q.Precision, q.Recall)
		return q.F1 >= lo-1e-12 && q.F1 <= hi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEvaluateExcludesFailedClaims pins the transport-failure scoring fix:
// a claim that died on a transport error carries no semantic verdict, so it
// must land in Failed — never in the confusion matrix, where its placeholder
// "correct" default would masquerade as a TN (or FP).
func TestEvaluateExcludesFailedClaims(t *testing.T) {
	failed := func(goldCorrect bool) *claim.Claim {
		return &claim.Claim{
			Gold:   claim.Gold{Correct: goldCorrect},
			Result: claim.Result{Correct: true, Method: claim.MethodFailed, Failure: "transient"},
		}
	}
	docs := []*claim.Document{{Claims: []*claim.Claim{
		mkClaim(false, false), // TP
		mkClaim(true, true),   // TN
		failed(true),
		failed(false), // gold-incorrect: scoring it would book a spurious FN
	}}}
	q := Evaluate(docs)
	if q.Failed != 2 {
		t.Errorf("Failed = %d want 2", q.Failed)
	}
	if q.TP != 1 || q.FP != 0 || q.FN != 0 || q.TN != 1 {
		t.Errorf("confusion polluted by failed claims: %+v", q)
	}
	if q.TP+q.FP+q.FN+q.TN+q.Failed != 4 {
		t.Errorf("counts do not partition the corpus: %+v", q)
	}
	if q.Precision != 1 || q.Recall != 1 {
		t.Errorf("p/r = %v/%v, failed claims leaked into the ratios", q.Precision, q.Recall)
	}
	if !strings.Contains(q.String(), "failed=2") {
		t.Errorf("String = %q, missing failed count", q.String())
	}
	// Clean runs keep the seed rendering: no failed tally shown.
	if s := Evaluate([]*claim.Document{{Claims: []*claim.Claim{mkClaim(true, true)}}}).String(); strings.Contains(s, "failed=") {
		t.Errorf("String = %q, failed tally shown for a clean run", s)
	}
}

func TestRunCost(t *testing.T) {
	rc := RunCost{Dollars: 2, Calls: 10, Wall: 30 * time.Minute, Claims: 100}
	if got := rc.Throughput(); math.Abs(got-200) > 1e-9 {
		t.Errorf("throughput = %v", got)
	}
	zero := RunCost{}
	if zero.Throughput() != 0 {
		t.Error("zero run cost must not divide by zero")
	}
}
