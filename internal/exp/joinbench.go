package exp

import (
	"fmt"
	"strings"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/verify"
)

// JoinBenchResult reproduces Section 7.3.2: normalizing the schemas keeps
// F1 roughly unchanged but raises verification costs (the paper measures
// $1.2 -> $3.7), because join queries push more claims to the expensive
// agent stages.
type JoinBenchResult struct {
	FlatF1            float64
	NormalizedF1      float64
	FlatDollars       float64
	NormalizedDollars float64
	Claims            int
}

// JoinBench runs CEDAR at the 99% threshold over the same claims on flat
// and normalized databases.
func JoinBench(seed int64, workers int, mw verify.Middleware) (*JoinBenchResult, error) {
	flat, normalized, err := data.JoinBench(seed)
	if err != nil {
		return nil, err
	}
	profFlat, _, err := data.JoinBench(profileSeed(seed))
	if err != nil {
		return nil, err
	}

	stack, err := NewStackResilient(seed, mw)
	if err != nil {
		return nil, err
	}
	stack.Workers = workers
	stats, err := stack.Profile(profFlat)
	if err != nil {
		return nil, err
	}

	res := &JoinBenchResult{Claims: claim.TotalClaims(flat)}
	flatRun := claim.CloneDocuments(flat)
	qf, rcf, _, err := stack.RunCEDAR(stats, 0.99, flatRun)
	if err != nil {
		return nil, err
	}
	res.FlatF1 = qf.F1
	res.FlatDollars = rcf.Dollars

	normRun := claim.CloneDocuments(normalized)
	qn, rcn, _, err := stack.RunCEDAR(stats, 0.99, normRun)
	if err != nil {
		return nil, err
	}
	res.NormalizedF1 = qn.F1
	res.NormalizedDollars = rcn.Dollars
	return res, nil
}

// CostFactor returns the cost multiplication due to normalization.
func (r *JoinBenchResult) CostFactor() float64 {
	if r.FlatDollars == 0 {
		return 0
	}
	return r.NormalizedDollars / r.FlatDollars
}

// Render prints the comparison.
func (r *JoinBenchResult) Render() string {
	var b strings.Builder
	b.WriteString("JoinBench (Section 7.3.2): verification across schema normalization.\n")
	fmt.Fprintf(&b, "%-12s %10s %12s\n", "Schema", "F1", "Cost ($)")
	fmt.Fprintf(&b, "%-12s %10s %12.4f\n", "flat", pct(r.FlatF1), r.FlatDollars)
	fmt.Fprintf(&b, "%-12s %10s %12.4f\n", "normalized", pct(r.NormalizedF1), r.NormalizedDollars)
	fmt.Fprintf(&b, "cost factor: %.2fx over %d claims\n", r.CostFactor(), r.Claims)
	return b.String()
}
