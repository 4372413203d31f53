// Package metrics computes the evaluation measures of Section 7: precision,
// recall, and F1 over the "incorrect claim" class, plus cost and throughput
// aggregation for the figures.
package metrics

import (
	"fmt"
	"time"

	"repro/internal/claim"
)

// Quality holds the three result-quality metrics of the paper: recall (the
// ratio of incorrect claims identified), precision (the ratio of claims
// marked incorrect that are indeed incorrect), and their F1 combination.
type Quality struct {
	Precision float64
	Recall    float64
	F1        float64
	// Confusion counts for transparency.
	TP, FP, FN, TN int
	// Failed counts claims whose verification died on a transport error
	// (Result.Method == claim.MethodFailed). They carry no semantic verdict
	// — the default "correct" is a placeholder, not a prediction — so they
	// are excluded from the confusion matrix and reported separately.
	// Scoring them would let a 429 storm silently inflate TN (or FP when a
	// partial attempt happened to be executable).
	Failed int
}

// Evaluate scores verification results against gold labels over a corpus.
// A claim is "predicted incorrect" when its final verdict marks it
// incorrect — whether through a plausible verified query or through the
// Section 4 fallback for executable-but-unmatched translations.
// Transport-failed claims are tallied in Failed and skipped.
func Evaluate(docs []*claim.Document) Quality {
	var q Quality
	for _, d := range docs {
		for _, c := range d.Claims {
			if c.Result.Method == claim.MethodFailed {
				q.Failed++
				continue
			}
			predictedIncorrect := !c.Result.Correct
			goldIncorrect := !c.Gold.Correct
			switch {
			case predictedIncorrect && goldIncorrect:
				q.TP++
			case predictedIncorrect && !goldIncorrect:
				q.FP++
			case !predictedIncorrect && goldIncorrect:
				q.FN++
			default:
				q.TN++
			}
		}
	}
	if q.TP+q.FP > 0 {
		q.Precision = float64(q.TP) / float64(q.TP+q.FP)
	}
	if q.TP+q.FN > 0 {
		q.Recall = float64(q.TP) / float64(q.TP+q.FN)
	}
	if q.Precision+q.Recall > 0 {
		q.F1 = 2 * q.Precision * q.Recall / (q.Precision + q.Recall)
	}
	return q
}

// String renders the quality as percentages, Table 2 style.
func (q Quality) String() string {
	s := fmt.Sprintf("precision=%.1f recall=%.1f f1=%.1f (tp=%d fp=%d fn=%d tn=%d",
		q.Precision*100, q.Recall*100, q.F1*100, q.TP, q.FP, q.FN, q.TN)
	if q.Failed > 0 {
		s += fmt.Sprintf(" failed=%d", q.Failed)
	}
	return s + ")"
}

// RunCost summarizes the resource consumption of one verification run.
type RunCost struct {
	Dollars float64
	Calls   int
	Wall    time.Duration
	Claims  int
}

// Throughput returns verified claims per simulated hour, the y-axis of
// Figure 5's throughput-quality plot.
func (r RunCost) Throughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Claims) / r.Wall.Hours()
}
