package exp

import (
	"fmt"
	"strings"

	"repro/internal/claim"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/verify"
)

// Fig5Point is one point of Figure 5's cost-quality and throughput-quality
// trade-off plots.
type Fig5Point struct {
	// Label names the configuration: "cedar@0.90" or a single-stage
	// method name.
	Label string
	// MultiStage distinguishes CEDAR's threshold sweep from the
	// single-stage baselines.
	MultiStage bool
	// Threshold is the accuracy target (multi-stage points only).
	Threshold float64
	// PlannedCost is the scheduler's modeled expected cost per claim
	// (multi-stage points only); monotone in the threshold by
	// construction, unlike realized dollars which carry sampling noise.
	PlannedCost float64
	F1          float64
	Dollars     float64
	// ThroughputPerHour is verified claims per simulated hour.
	ThroughputPerHour float64
}

// Fig5Result reproduces Figure 5 on the AggChecker corpus.
type Fig5Result struct {
	Points []Fig5Point
}

// Fig5Thresholds is the accuracy-threshold sweep of the multi-stage curve.
func Fig5Thresholds() []float64 { return []float64{0.5, 0.7, 0.8, 0.9, 0.95, 0.99} }

// Fig5 sweeps CEDAR's accuracy threshold and runs each verification method
// as a single-stage baseline (two tries, matching the retry budget the
// scheduler typically assigns).
func Fig5(seed int64, workers int, mw verify.Middleware) (*Fig5Result, error) {
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

	res := &Fig5Result{}
	for _, th := range Fig5Thresholds() {
		docs := claim.CloneDocuments(evalDocs)
		q, rc, p, err := stack.RunCEDAR(stats, th, docs)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Fig5Point{
			Label:             fmt.Sprintf("cedar@%.2f", th),
			MultiStage:        true,
			Threshold:         th,
			PlannedCost:       p.Schedule().Cost,
			F1:                q.F1,
			Dollars:           rc.Dollars,
			ThroughputPerHour: rc.Throughput(),
		})
	}
	for _, m := range stack.Methods {
		docs := claim.CloneDocuments(evalDocs)
		q, rc, err := stack.RunSchedule(core.SingleStageSchedule(m.Name(), 2), docs)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Fig5Point{
			Label:             m.Name(),
			F1:                q.F1,
			Dollars:           rc.Dollars,
			ThroughputPerHour: rc.Throughput(),
		})
	}
	return res, nil
}

// Point returns the named point, or nil.
func (r *Fig5Result) Point(label string) *Fig5Point {
	for i := range r.Points {
		if r.Points[i].Label == label {
			return &r.Points[i]
		}
	}
	return nil
}

// Render prints both trade-off series.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5: cost-quality and throughput-quality trade-offs on AggChecker.\n")
	fmt.Fprintf(&b, "%-16s %10s %12s %16s\n", "Configuration", "F1", "Cost ($)", "Claims/hour")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-16s %10s %12.4f %16.1f\n", p.Label, pct(p.F1), p.Dollars, p.ThroughputPerHour)
	}
	return b.String()
}
