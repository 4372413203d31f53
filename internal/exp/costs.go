package exp

import (
	"fmt"
	"strings"

	"repro/internal/claim"
	"repro/internal/verify"
)

// CostsRow reports CEDAR's verification fees on one dataset at the 99%
// accuracy threshold (the cost paragraph of Section 7.2).
type CostsRow struct {
	Dataset string
	Claims  int
	Dollars float64
	Calls   int
	F1      float64
}

// CostsResult reproduces the Section 7.2 cost report.
type CostsResult struct {
	Rows []CostsRow
}

// Costs runs CEDAR at the 99% threshold over the three standard datasets
// and reports dollar fees. Absolute amounts differ from the paper (the
// models are simulated and the corpora synthetic); the shape to check is
// AggChecker >> TabFact and WikiText, since AggChecker has ~4x the claims
// and the hardest ones.
func Costs(seed int64, workers int, mw verify.Middleware) (*CostsResult, error) {
	res := &CostsResult{}
	for _, ds := range standardDatasets() {
		evalDocs, err := ds.gen(seed)
		if err != nil {
			return nil, err
		}
		profDocs, err := ds.gen(profileSeed(seed))
		if err != nil {
			return nil, err
		}
		if len(profDocs) > 8 {
			profDocs = profDocs[:8]
		}
		stack, err := NewStackResilient(seed, mw)
		if err != nil {
			return nil, err
		}
		stack.Workers = workers
		stats, err := stack.Profile(profDocs)
		if err != nil {
			return nil, err
		}
		docs := claim.CloneDocuments(evalDocs)
		q, rc, _, err := stack.RunCEDAR(stats, 0.99, docs)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, CostsRow{
			Dataset: ds.name,
			Claims:  claim.TotalClaims(docs),
			Dollars: rc.Dollars,
			Calls:   rc.Calls,
			F1:      q.F1,
		})
	}
	return res, nil
}

// Render prints the cost report.
func (r *CostsResult) Render() string {
	var b strings.Builder
	b.WriteString("Verification fees of CEDAR at the 99% accuracy threshold (Section 7.2).\n")
	fmt.Fprintf(&b, "%-12s %8s %12s %8s %8s\n", "Dataset", "Claims", "Cost ($)", "Calls", "F1")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %8d %12.4f %8d %8s\n", row.Dataset, row.Claims, row.Dollars, row.Calls, pct(row.F1))
	}
	return b.String()
}
