package exp

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/verify"
)

// ModelFitPoint compares the scheduler's modeled verification probability
// (Theorem 6.2, under the independence assumptions 1 and 2) with the
// realized fraction of claims verified by the planned schedule.
type ModelFitPoint struct {
	Threshold float64
	Schedule  string
	Modeled   float64
	Realized  float64
}

// ModelFitResult reproduces the extended technical report's assessment of
// the independence assumptions: the accuracy model overestimates when
// retries correlate (the same hard claim fails every method), but remains
// accurate enough for effective scheduling.
type ModelFitResult struct {
	Points []ModelFitPoint
}

// ModelFit sweeps accuracy thresholds on the AggChecker corpus, recording
// modeled vs realized verification rates per planned schedule.
func ModelFit(seed int64, workers int, mw verify.Middleware) (*ModelFitResult, error) {
	evalDocs, err := data.AggChecker(seed)
	if err != nil {
		return nil, err
	}
	profDocs, err := data.AggChecker(profileSeed(seed))
	if err != nil {
		return nil, err
	}
	profDocs = profDocs[:8]
	stack, err := NewStackResilient(seed, mw)
	if err != nil {
		return nil, err
	}
	stack.Workers = workers
	stats, err := stack.Profile(profDocs)
	if err != nil {
		return nil, err
	}
	res := &ModelFitResult{}
	for _, th := range Fig5Thresholds() {
		docs := claim.CloneDocuments(evalDocs)
		_, _, p, err := stack.RunCEDAR(stats, th, docs)
		if err != nil {
			return nil, err
		}
		verified := 0
		for _, d := range docs {
			for _, c := range d.Claims {
				if c.Result.Verified {
					verified++
				}
			}
		}
		res.Points = append(res.Points, ModelFitPoint{
			Threshold: th,
			Schedule:  p.Schedule().String(),
			Modeled:   p.Schedule().Accuracy,
			Realized:  float64(verified) / float64(claim.TotalClaims(docs)),
		})
	}
	return res, nil
}

// MaxOverestimate returns the largest modeled-minus-realized gap across the
// sweep; positive values quantify the cost of the independence assumptions.
func (r *ModelFitResult) MaxOverestimate() float64 {
	worst := math.Inf(-1)
	for _, p := range r.Points {
		if gap := p.Modeled - p.Realized; gap > worst {
			worst = gap
		}
	}
	return worst
}

// Render prints the comparison.
func (r *ModelFitResult) Render() string {
	var b strings.Builder
	b.WriteString("Model fit: modeled (Thm 6.2) vs realized verification rates.\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %8s  %s\n", "Threshold", "Modeled", "Realized", "Gap", "Schedule")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10.2f %10s %10s %+8.3f  %s\n",
			p.Threshold, pct(p.Modeled), pct(p.Realized), p.Modeled-p.Realized, p.Schedule)
	}
	fmt.Fprintf(&b, "max overestimate: %.3f (positive gaps are the cost of Assumptions 1 & 2)\n", r.MaxOverestimate())
	return b.String()
}
