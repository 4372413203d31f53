package exp

import (
	"fmt"
	"strings"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/verify"
)

// Fig6Doc is one bar of Figure 6: the F1 change on one document when its
// claims require unit conversions.
type Fig6Doc struct {
	DocID     string
	Aligned   float64 // per-document F1 with matching units
	Converted float64 // per-document F1 with converted units
	DeltaF1   float64
}

// Fig6Result reproduces the unit-conversion study of Section 7.3.1.
type Fig6Result struct {
	Docs []Fig6Doc
	// OverallAligned and OverallConverted are corpus-level F1 scores (the
	// paper reports 94.7% aligned vs 88.9% converted).
	OverallAligned   float64
	OverallConverted float64
}

// Fig6 verifies the paired unit-conversion benchmark with CEDAR at the 99%
// threshold: once with claims in the data's units, once with claims in
// converted units. The paper's benchmark has only 20 claims, so a single
// draw is statistically fragile; the overall scores aggregate three
// replica corpora (60 claims) while the per-document bars show the first
// replica, matching the paper's 8 documents.
func Fig6(seed int64, workers int, mw verify.Middleware) (*Fig6Result, error) {
	var aligned, converted []*claim.Document
	for r := int64(0); r < 3; r++ {
		a, err := data.UnitConv(seed+r, true)
		if err != nil {
			return nil, err
		}
		c, err := data.UnitConv(seed+r, false)
		if err != nil {
			return nil, err
		}
		aligned = append(aligned, a...)
		converted = append(converted, c...)
	}
	// Profile on a mixed corpus covering both unit treatments: schedules
	// must be provisioned for claims that need conversions, otherwise the
	// cheap stage's (deceptively high) aligned-only success rate starves
	// the schedule of capable methods.
	profAligned, err := data.UnitConv(profileSeed(seed), true)
	if err != nil {
		return nil, err
	}
	profConverted, err := data.UnitConv(profileSeed(seed), false)
	if err != nil {
		return nil, err
	}
	profDocs := append(profAligned, profConverted...)

	stack, err := NewStackResilient(seed, mw)
	if err != nil {
		return nil, err
	}
	stack.Workers = workers
	stats, err := stack.Profile(profDocs)
	if err != nil {
		return nil, err
	}
	alignedRun := claim.CloneDocuments(aligned)
	if _, _, _, err := stack.RunCEDAR(stats, 0.99, alignedRun); err != nil {
		return nil, err
	}
	convertedRun := claim.CloneDocuments(converted)
	if _, _, _, err := stack.RunCEDAR(stats, 0.99, convertedRun); err != nil {
		return nil, err
	}

	res := &Fig6Result{
		OverallAligned:   metrics.Evaluate(alignedRun).F1,
		OverallConverted: metrics.Evaluate(convertedRun).F1,
	}
	for i := 0; i < 8 && i < len(alignedRun); i++ {
		fa := docF1(alignedRun[i])
		fc := docF1(convertedRun[i])
		res.Docs = append(res.Docs, Fig6Doc{
			DocID:     alignedRun[i].ID,
			Aligned:   fa,
			Converted: fc,
			DeltaF1:   fc - fa,
		})
	}
	return res, nil
}

// docF1 computes a per-document F1, defining the empty-confusion case (no
// incorrect claims and no flags) as a perfect 1.0 so unaffected documents
// show a zero delta.
func docF1(d *claim.Document) float64 {
	q := metrics.Evaluate([]*claim.Document{d})
	if q.TP+q.FP+q.FN == 0 {
		return 1
	}
	return q.F1
}

// Render prints the per-document deltas and the overall scores.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6: change in F1 due to unit conversions (per document).\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %10s\n", "Document", "Aligned", "Converted", "dF1")
	for _, d := range r.Docs {
		fmt.Fprintf(&b, "%-12s %10s %10s %+10.1f\n", d.DocID, pct(d.Aligned), pct(d.Converted), d.DeltaF1*100)
	}
	fmt.Fprintf(&b, "overall: aligned F1=%s converted F1=%s\n", pct(r.OverallAligned), pct(r.OverallConverted))
	return b.String()
}
