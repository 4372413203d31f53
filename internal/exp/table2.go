package exp

import (
	"fmt"
	"strings"

	"repro/internal/baselines"
	"repro/internal/claim"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/metrics"
	"repro/internal/verify"
)

// Table2Row is one (dataset, system) cell group of Table 2.
type Table2Row struct {
	Dataset string
	System  string
	// Supported is false where the paper reports "-" (AggChecker baseline
	// on textual claims).
	Supported bool
	Quality   metrics.Quality
	// Dollars is the verification fee of the run (reported for CEDAR in
	// Section 7.2's cost paragraph).
	Dollars float64
}

// Table2Result reproduces Table 2: result quality of CEDAR and the four
// baselines on AggChecker, TabFact, and WikiText.
type Table2Result struct {
	Rows []Table2Row
}

// Table2 runs the comparison. The accuracy threshold for CEDAR is the
// paper's default of 99%.
func Table2(seed int64, workers int, mw verify.Middleware) (*Table2Result, error) {
	res := &Table2Result{}
	for _, ds := range standardDatasets() {
		evalDocs, err := ds.gen(seed)
		if err != nil {
			return nil, fmt.Errorf("exp: generate %s: %w", ds.name, err)
		}
		profDocs, err := ds.gen(profileSeed(seed))
		if err != nil {
			return nil, err
		}
		if len(profDocs) > 8 {
			profDocs = profDocs[:8]
		}

		// CEDAR at the 99% accuracy threshold.
		stack, err := NewStackResilient(seed, mw)
		if err != nil {
			return nil, err
		}
		stack.Workers = workers
		stats, err := stack.Profile(profDocs)
		if err != nil {
			return nil, err
		}
		cedarDocs := claim.CloneDocuments(evalDocs)
		q, rc, _, err := stack.RunCEDAR(stats, 0.99, cedarDocs)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table2Row{
			Dataset: ds.name, System: "CEDAR", Supported: true, Quality: q, Dollars: rc.Dollars,
		})

		// Baselines.
		model35, err := sim.New(llm.ModelGPT35, seed)
		if err != nil {
			return nil, err
		}
		textual := ds.name == "WikiText"
		for _, b := range []baselines.Baseline{
			baselines.AggChecker{},
			baselines.NewTAPEX(seed),
			baselines.NewP1(model35, llm.ModelGPT35),
			baselines.NewP2(model35, llm.ModelGPT35),
		} {
			docs := claim.CloneDocuments(evalDocs)
			baselines.VerifyAll(b, docs)
			name := b.Name()
			if name == "AggChecker" {
				name = "AggC"
			}
			res.Rows = append(res.Rows, Table2Row{
				Dataset:   ds.name,
				System:    name,
				Supported: !(name == "AggC" && textual),
				Quality:   metrics.Evaluate(docs),
			})
		}
	}
	return res, nil
}

// Row returns the row for a (dataset, system) pair, or nil.
func (r *Table2Result) Row(dataset, system string) *Table2Row {
	for i := range r.Rows {
		if r.Rows[i].Dataset == dataset && r.Rows[i].System == system {
			return &r.Rows[i]
		}
	}
	return nil
}

// Render prints the table in the paper's layout: per dataset, rows for
// precision / recall / F1 across the five systems.
func (r *Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Comparing result quality of CEDAR and baselines.\n")
	// The systems compared, in column order.
	systems := []string{"CEDAR", "AggC", "TAPEX", "P1", "P2"}
	fmt.Fprintf(&b, "%-12s %-10s %8s %8s %8s %8s %8s\n", "Dataset", "Metric", systems[0], systems[1], systems[2], systems[3], systems[4])
	datasets := []string{"AggChecker", "TabFact", "WikiText"}
	for _, ds := range datasets {
		for _, metric := range []string{"Precision", "Recall", "F1 score"} {
			fmt.Fprintf(&b, "%-12s %-10s", ds, metric)
			for _, sys := range systems {
				row := r.Row(ds, sys)
				if row == nil || !row.Supported {
					fmt.Fprintf(&b, " %8s", "-")
					continue
				}
				var v float64
				switch metric {
				case "Precision":
					v = row.Quality.Precision
				case "Recall":
					v = row.Quality.Recall
				default:
					v = row.Quality.F1
				}
				fmt.Fprintf(&b, " %8s", pct(v))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
