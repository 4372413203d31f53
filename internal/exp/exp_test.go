package exp

import (
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/verify"
)

// TestTable2Shape verifies the headline result: CEDAR has the best F1 on
// every dataset, TAPEX is strong on TabFact but zero on AggChecker, the
// AggChecker baseline does not support textual claims, and P1/P2 trail due
// to low precision.
func TestTable2Shape(t *testing.T) {
	res, err := Table2(17, 1, verify.Middleware{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Render())
	for _, ds := range []string{"AggChecker", "TabFact", "WikiText"} {
		cedar := res.Row(ds, "CEDAR")
		if cedar == nil {
			t.Fatalf("missing CEDAR row for %s", ds)
		}
		for _, sys := range []string{"AggC", "TAPEX", "P1", "P2"} {
			row := res.Row(ds, sys)
			if row == nil {
				t.Fatalf("missing %s row for %s", sys, ds)
			}
			if row.Supported && row.Quality.F1 >= cedar.Quality.F1 {
				t.Errorf("%s: %s F1 %.1f >= CEDAR %.1f", ds, sys, row.Quality.F1*100, cedar.Quality.F1*100)
			}
		}
	}
	if res.Row("AggChecker", "TAPEX").Quality.F1 > 0.05 {
		t.Errorf("TAPEX must collapse on AggChecker, F1 %.2f", res.Row("AggChecker", "TAPEX").Quality.F1)
	}
	if res.Row("TabFact", "TAPEX").Quality.F1 < 0.5 {
		t.Errorf("TAPEX must be the strongest baseline on TabFact, F1 %.2f", res.Row("TabFact", "TAPEX").Quality.F1)
	}
	if res.Row("WikiText", "AggC").Supported {
		t.Error("AggChecker baseline must be unsupported on textual claims")
	}
	// P1/P2 precision clearly below CEDAR's on AggChecker.
	for _, sys := range []string{"P1", "P2"} {
		if p := res.Row("AggChecker", sys).Quality.Precision; p >= res.Row("AggChecker", "CEDAR").Quality.Precision {
			t.Errorf("%s precision %.2f not below CEDAR", sys, p)
		}
	}
	if !strings.Contains(res.Render(), "F1 score") {
		t.Error("render missing F1 rows")
	}
}

func TestCostsShape(t *testing.T) {
	res, err := Costs(19, 1, verify.Middleware{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Render())
	byName := map[string]CostsRow{}
	for _, r := range res.Rows {
		byName[r.Dataset] = r
	}
	agg, tf, wt := byName["AggChecker"], byName["TabFact"], byName["WikiText"]
	if agg.Claims != 392 || tf.Claims != 100 || wt.Claims != 50 {
		t.Errorf("claim counts: %d/%d/%d", agg.Claims, tf.Claims, wt.Claims)
	}
	// The paper's cost ordering: AggChecker ($18.12) far above TabFact
	// ($1.46) and WikiText ($1.9).
	if agg.Dollars <= tf.Dollars || agg.Dollars <= wt.Dollars {
		t.Errorf("AggChecker must be the most expensive: %v vs %v / %v", agg.Dollars, tf.Dollars, wt.Dollars)
	}
	if agg.Dollars < 4*tf.Dollars {
		t.Errorf("AggChecker should cost several times TabFact: %v vs %v", agg.Dollars, tf.Dollars)
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := Fig5(23, 1, verify.Middleware{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Render())
	// The planned expected cost must be monotone in the threshold (it
	// comes off the Pareto frontier); realized dollars may wiggle between
	// near-equal schedules but must stay loosely aligned.
	var prevPlanned, prevDollars float64 = -1, -1
	for _, th := range Fig5Thresholds() {
		p := res.Point(pointLabel(th))
		if p == nil {
			t.Fatalf("missing point for threshold %v", th)
		}
		if p.PlannedCost < prevPlanned-1e-12 {
			t.Errorf("planned cost not monotone at threshold %v: %v < %v", th, p.PlannedCost, prevPlanned)
		}
		if p.Dollars < prevDollars*0.9 {
			t.Errorf("realized cost collapses at threshold %v: %v << %v", th, p.Dollars, prevDollars)
		}
		prevPlanned, prevDollars = p.PlannedCost, p.Dollars
	}
	lo, hi := res.Point(pointLabel(0.5)), res.Point(pointLabel(0.99))
	if hi.Dollars < 1.3*lo.Dollars {
		t.Errorf("threshold sweep must span costs: %v vs %v", lo.Dollars, hi.Dollars)
	}
	if hi.F1 <= lo.F1 {
		t.Errorf("higher threshold must raise F1: %v vs %v", hi.F1, lo.F1)
	}
	// CEDAR at 99% must dominate the strongest single-stage agent on cost
	// with comparable-or-better F1 (the Figure 5 headline).
	agent := res.Point(verify.MethodAgent41)
	if agent == nil {
		t.Fatal("missing single-stage agent point")
	}
	if hi.Dollars >= agent.Dollars/2 {
		t.Errorf("CEDAR@0.99 should cost well under the all-agent run: %v vs %v", hi.Dollars, agent.Dollars)
	}
	if hi.F1 < agent.F1-0.12 {
		t.Errorf("CEDAR@0.99 F1 %.2f collapses vs agent %.2f", hi.F1, agent.F1)
	}
	// Throughput: the cheap one-shot single stage processes claims faster
	// than the agent stage.
	oneshot := res.Point(verify.MethodOneShot35)
	if oneshot.ThroughputPerHour <= agent.ThroughputPerHour {
		t.Errorf("one-shot throughput %v must exceed agent %v", oneshot.ThroughputPerHour, agent.ThroughputPerHour)
	}
}

func pointLabel(th float64) string {
	switch th {
	case 0.5:
		return "cedar@0.50"
	case 0.7:
		return "cedar@0.70"
	case 0.8:
		return "cedar@0.80"
	case 0.9:
		return "cedar@0.90"
	case 0.95:
		return "cedar@0.95"
	default:
		return "cedar@0.99"
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6(29, 1, verify.Middleware{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Render())
	if len(res.Docs) != 8 {
		t.Fatalf("expected 8 documents, got %d", len(res.Docs))
	}
	// Unit conversions cost at most a few F1 points overall; both runs
	// must stay strong (paper: 94.7% aligned vs 88.9% converted).
	if res.OverallAligned < 0.55 {
		t.Errorf("aligned F1 %.2f too low", res.OverallAligned)
	}
	if res.OverallConverted < res.OverallAligned-0.35 {
		t.Errorf("conversion degradation too large: %.2f vs %.2f", res.OverallConverted, res.OverallAligned)
	}
	// Most documents should be (nearly) unaffected.
	unaffected := 0
	for _, d := range res.Docs {
		if d.DeltaF1 >= -0.05 {
			unaffected++
		}
	}
	if unaffected < len(res.Docs)/2 {
		t.Errorf("only %d/%d documents unaffected by unit conversion", unaffected, len(res.Docs))
	}
}

func TestTable3Shape(t *testing.T) {
	res, err := Table3(31)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Render())
	agg := res.Row("AggChecker")
	tf := res.Row("TabFact")
	jb := res.Row("JoinBench")
	if agg == nil || tf == nil || jb == nil || res.Row("WikiText") == nil {
		t.Fatal("missing dataset rows")
	}
	// Shapes from the paper's Table 3: no joins outside JoinBench, TabFact
	// simpler than AggChecker, JoinBench with joins.
	if agg.AvgJoins != 0 || tf.AvgJoins != 0 {
		t.Error("flat datasets must have no joins")
	}
	if jb.AvgJoins <= 0 || jb.MaxJoins < 1 {
		t.Errorf("JoinBench must require joins: %+v", jb)
	}
	if tf.AvgAgg >= agg.AvgAgg {
		t.Errorf("TabFact (%.2f) must use fewer aggregates than AggChecker (%.2f)", tf.AvgAgg, agg.AvgAgg)
	}
	if tf.AvgSubQ >= agg.AvgSubQ {
		t.Errorf("TabFact (%.2f) must use fewer subqueries than AggChecker (%.2f)", tf.AvgSubQ, agg.AvgSubQ)
	}
	// WikiText includes most-common-value claims, the only GROUP BY source
	// (the paper's Table 3 shows 0.22/1 for WikiText).
	if wt := res.Row("WikiText"); wt.AvgGroupBy <= 0 || wt.MaxGroupBy != 1 {
		t.Errorf("WikiText GroupBy stats = %.2f/%d", wt.AvgGroupBy, wt.MaxGroupBy)
	}
	if agg.Queries != 392 || tf.Queries != 100 {
		t.Errorf("query counts %d/%d", agg.Queries, tf.Queries)
	}
}

func TestJoinBenchShape(t *testing.T) {
	res, err := JoinBench(37, 1, verify.Middleware{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Render())
	// Normalization must not collapse F1 but must raise costs notably
	// (the paper measures a ~3x factor).
	if res.NormalizedF1 < res.FlatF1-0.2 {
		t.Errorf("normalization collapsed F1: %.2f vs %.2f", res.NormalizedF1, res.FlatF1)
	}
	if res.CostFactor() < 1.2 {
		t.Errorf("normalization should raise costs, factor %.2f", res.CostFactor())
	}
}

func TestFig7Shape(t *testing.T) {
	res, err := Fig7(41, 1, verify.Middleware{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Render())
	if len(res.Points) != 32 { // 8 schedules x 4 domains
		t.Fatalf("expected 32 points, got %d", len(res.Points))
	}
	// The paper's robustness claim: most cross-domain applications stay
	// within 2x cost and 0.1 F1 loss.
	if frac := res.WithinBounds(2, 0.1); frac < 0.6 {
		t.Errorf("only %.0f%% of cross-domain points within bounds", frac*100)
	}
}

func TestModelFitShape(t *testing.T) {
	res, err := ModelFit(43, 1, verify.Middleware{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Render())
	if len(res.Points) != len(Fig5Thresholds()) {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Realized <= 0 || p.Realized > 1 {
			t.Errorf("realized %v at threshold %v", p.Realized, p.Threshold)
		}
	}
	// The independence assumptions overestimate, but not catastrophically:
	// the model must stay within 15 points of reality for scheduling to
	// work (the extended report's conclusion).
	if gap := res.MaxOverestimate(); gap < -0.05 || gap > 0.15 {
		t.Errorf("max overestimate %.3f outside plausible band", gap)
	}
}

// TestCSVEmitters ensures every experiment result renders parseable CSV
// with the expected header and row counts.
func TestCSVEmitters(t *testing.T) {
	t3, err := Table3(47)
	if err != nil {
		t.Fatal(err)
	}
	checkCSV(t, t3.CSV(), "dataset", 4)
	jb, err := JoinBench(47, 1, verify.Middleware{})
	if err != nil {
		t.Fatal(err)
	}
	checkCSV(t, jb.CSV(), "schema", 2)
	f6, err := Fig6(47, 1, verify.Middleware{})
	if err != nil {
		t.Fatal(err)
	}
	checkCSV(t, f6.CSV(), "document", 8)
}

func checkCSV(t *testing.T, out, firstCol string, rows int) {
	t.Helper()
	r := csv.NewReader(strings.NewReader(out))
	records, err := r.ReadAll()
	if err != nil {
		t.Fatalf("CSV parse: %v\n%s", err, out)
	}
	if len(records) != rows+1 {
		t.Errorf("rows = %d want %d", len(records)-1, rows)
	}
	if records[0][0] != firstCol {
		t.Errorf("header starts with %q want %q", records[0][0], firstCol)
	}
}

// TestDriverTakesMiddleware checks that a driver runs under the middleware
// it is handed, which is how cedar-bench's flags reach the experiments: with
// every attempt faulted, JoinBench must not reproduce its fault-free run.
func TestDriverTakesMiddleware(t *testing.T) {
	clean, err := JoinBench(23, 1, verify.Middleware{})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := JoinBench(23, 1, verify.Middleware{FaultRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if *faulty == *clean {
		t.Errorf("FaultRate 1 left JoinBench unchanged: %+v", *faulty)
	}
	if faulty.FlatF1 != 0 || faulty.NormalizedF1 != 0 {
		t.Errorf("every attempt faulted, yet F1 %.2f / %.2f", faulty.FlatF1, faulty.NormalizedF1)
	}
}
