package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// result renders a benchmark result line carrying the given metrics.
func result(metrics map[string]float64) string {
	var parts []string
	for name, v := range metrics {
		parts = append(parts, fmt.Sprintf("%q:{\"value\":%v,\"unit\":\"x\"}", name, v))
	}
	return fmt.Sprintf(`{"correct":true,"attempted":10,"failed":0,"metrics":{%s}}`, strings.Join(parts, ","))
}

// TestCompareCannedLines judges four canned pairs: a lower-is-better metric
// the change makes 40 % worse, a higher-is-better one it improves, one whose
// parent spread is past its bound, and one only some runs report.
func TestCompareCannedLines(t *testing.T) {
	defs := []metricDef{
		{Name: "latency_p50_ms", Better: "lower", Bound: 0.25},
		{Name: "claims_per_s", Better: "higher", Bound: 0.25},
		{Name: "setup_s", Better: "lower", Bound: 0.25},
		{Name: "ttfv_ms", Better: "lower", Bound: 0.25},
	}
	parentLatency := []float64{10, 11, 9, 10}
	changeLatency := []float64{14, 14, 14, 10}
	parentRate := []float64{100, 100, 100, 100}
	changeRate := []float64{110, 100, 120, 90}
	parentSetup := []float64{1, 2, 1, 2}
	changeSetup := []float64{1, 1, 1, 1}
	var parent, change []string
	for i := range parentLatency {
		p := map[string]float64{"latency_p50_ms": parentLatency[i], "claims_per_s": parentRate[i], "setup_s": parentSetup[i]}
		c := map[string]float64{"latency_p50_ms": changeLatency[i], "claims_per_s": changeRate[i], "setup_s": changeSetup[i]}
		if i == 0 {
			p["ttfv_ms"] = 1
		}
		parent, change = append(parent, result(p)), append(change, result(c))
	}
	rows, err := compare(defs, parent, change)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3 (ttfv_ms is not in every run): %+v", len(rows), rows)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	lat, rate, setup := rows[0], rows[1], rows[2]
	// Parent latencies sorted 9 10 10 11: median 10, quartiles 9.25 and 10.75.
	if !near(lat.parent, 10) || !near(lat.change, 14) || !near(lat.rel, 0.4) || !near(lat.spread, 0.15) {
		t.Errorf("latency medians/spread: %+v", lat)
	}
	if lat.wins != 0 || lat.ties != 1 || lat.losses != 3 || !lat.worse || lat.unresolved {
		t.Errorf("latency verdict: %+v", lat)
	}
	if !near(rate.change, 105) || rate.wins != 2 || rate.ties != 1 || rate.losses != 1 || rate.worse || rate.unresolved {
		t.Errorf("claims_per_s: %+v", rate)
	}
	// Parent setups 1 1 2 2: median 1.5, quartiles 1 and 2, spread 0.67.
	if !near(setup.spread, 1/1.5) || !setup.unresolved || setup.worse || setup.wins != 2 || setup.ties != 2 {
		t.Errorf("setup_s: %+v", setup)
	}

	var out bytes.Buffer
	writeRows(&out, "lib-corpus", rows)
	for _, want := range []string{"WORSE: past the 25 % bound", "unresolved: parent spread past the 25 % bound", "0/1/3", "+40.0%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, out.String())
		}
	}
}

// TestCompareRejectsBadLines checks that a run whose last line is not a
// result, or sides of different lengths, are errors rather than a verdict.
func TestCompareRejectsBadLines(t *testing.T) {
	defs := []metricDef{{Name: "f1", Better: "higher", Bound: 0.12}}
	if _, err := compare(defs, []string{"lib-corpus bench.digest 0 verdicts n=1"}, []string{result(map[string]float64{"f1": 1})}); err == nil {
		t.Error("a non-JSON line was accepted")
	}
	if _, err := compare(defs, []string{result(nil)}, nil); err == nil {
		t.Error("one parent run against no change run was accepted")
	}
}
