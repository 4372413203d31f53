package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestSmoke runs every workload end to end, untraced and traced, on a few
// hundred milliseconds of operations each. It is what makes a change to an
// interface the wrappers implement, or to a constructor the systems are
// built with, fail the repository's tests rather than the next performance
// measurement. It checks what does not depend on the clock: every
// correctness check passes, the trace is whole, and the metrics printed are
// exactly the ones BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) string {
		var names []string
		for _, m := range ms {
			names = append(names, m.Name+" "+m.Unit)
		}
		sort.Strings(names)
		return strings.Join(names, "\n")
	}
	wantSets := []string{declared(decl.EndToEnd), declared(decl.PerLayer)}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, decl.Workloads[i].Name, w.name)
		}
	}

	var out bytes.Buffer
	err = run([]string{"-quick", "-seconds", "4", "-out", t.TempDir()}, &out)
	if err != nil {
		t.Fatalf("benchmark failed: %v\n%s", err, out.String())
	}
	var results []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "{") {
			results = append(results, line)
		}
		if strings.Contains(line, " PROBLEM ") {
			t.Errorf("run reported: %s", line)
		}
	}
	if want := 2 * len(workloads); len(results) != want {
		t.Fatalf("%d result lines, want %d (untraced and traced per workload)", len(results), want)
	}
	for i, line := range results {
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		w := workloads[i/2].name
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
		var names []string
		for name, m := range res.Metrics {
			names = append(names, name+" "+m.Unit)
		}
		sort.Strings(names)
		if got := strings.Join(names, "\n"); got != wantSets[i%2] {
			t.Errorf("%s, trace %d: metrics printed differ from BENCHMARK.json:\n%s\nwant:\n%s", w, i%2, got, wantSets[i%2])
		}
		if i%2 == 0 {
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; they are chosen never to be 0", w, name, m.Value)
				}
			}
		}
	}
}
