package main

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/doclint"
)

// TestDoclintFlags is this binary's half of the documented-surface gate:
// every flag defineFlags registers must appear in the cedar-bench section
// of docs/CLI.md — and so must every experiment id.
func TestDoclintFlags(t *testing.T) {
	doc, err := doclint.CLIDoc()
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("cedar-bench", flag.ContinueOnError)
	defineFlags(fs)
	missing, err := doclint.MissingFlags(doc, "cedar-bench", fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Errorf("flags undocumented in docs/CLI.md: -%s", strings.Join(missing, ", -"))
	}
	section, err := doclint.BinarySection(doc, "cedar-bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range experiments() {
		if !strings.Contains(section, "`"+e.name+"`") {
			t.Errorf("experiment %q undocumented in docs/CLI.md", e.name)
		}
	}
}

// TestDoclintExperimentsGolden keeps EXPERIMENTS.md's "Measured (seed 17)"
// tables for Table 2, the §7.2 fees and Figure 5 from drifting away from
// testdata/all.txt, the `cedar-bench all` output TestGoldenAll pins. Every
// number the page prints must be the golden's, rounded to the digits the
// page shows, and the page must list every row the golden has.
func TestDoclintExperimentsGolden(t *testing.T) {
	doc, err := doclint.Doc("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	golden := string(raw)
	for _, c := range []struct {
		heading string // the EXPERIMENTS.md section
		caption string // the golden section's caption line
		columns int    // value columns of a golden row
	}{
		{"## Table 2 ", "Table 2: ", 5},
		{"## §7.2 ", "Verification fees of CEDAR ", 4},
		{"## Figure 5 ", "Figure 5: ", 3},
	} {
		want := goldenRows(t, golden, c.caption, c.columns)
		got := measuredRows(t, doc, c.heading)
		section := strings.TrimSpace(c.heading)
		if c.caption == "Table 2: " {
			// The golden has one row per metric, the page one cell per
			// system holding "precision / recall / F1".
			byDataset := map[string][]string{}
			for _, key := range []string{"Precision", "Recall", "F1 score"} {
				for name, vals := range want {
					if dataset, ok := strings.CutSuffix(name, " "+key); ok {
						if byDataset[dataset] == nil {
							byDataset[dataset] = make([]string, len(vals))
						}
						for i, v := range vals {
							if byDataset[dataset][i] != "" {
								v = byDataset[dataset][i] + " / " + v
							}
							byDataset[dataset][i] = v
						}
					}
				}
			}
			want = byDataset
		}
		if len(got) != len(want) {
			t.Errorf("%s: the page has %d measured rows, the golden %d", section, len(got), len(want))
		}
		for name, wantVals := range want {
			gotVals, ok := got[name]
			if !ok {
				t.Errorf("%s: no measured row %q", section, name)
				continue
			}
			if len(gotVals) != len(wantVals) {
				t.Errorf("%s %s: %d cells, want %d", section, name, len(gotVals), len(wantVals))
				continue
			}
			for i := range wantVals {
				if !sameNumbers(gotVals[i], wantVals[i]) {
					t.Errorf("%s %s column %d: the page says %q, the golden %q", section, name, i+1, gotVals[i], wantVals[i])
				}
			}
		}
	}
}

// goldenRows reads the golden section whose caption line starts with
// caption: each row's leading label, then its last n fields.
func goldenRows(t *testing.T, golden, caption string, n int) map[string][]string {
	t.Helper()
	i := strings.Index(golden, "\n"+caption)
	if i < 0 {
		t.Fatalf("testdata/all.txt has no section captioned %q", caption)
	}
	section, _, _ := strings.Cut(golden[i+1:], "\n\n")
	rows := map[string][]string{}
	for _, line := range strings.Split(section, "\n")[2:] { // caption, column header
		f := strings.Fields(line)
		if len(f) <= n {
			t.Fatalf("testdata/all.txt: short row %q", line)
		}
		rows[strings.Join(f[:len(f)-n], " ")] = f[len(f)-n:]
	}
	return rows
}

// measuredRows reads the markdown table under "Measured (seed 17):" in the
// EXPERIMENTS.md section that starts with heading, keyed by its first cell.
func measuredRows(t *testing.T, doc, heading string) map[string][]string {
	t.Helper()
	i := strings.Index(doc, "\n"+heading)
	if i < 0 {
		t.Fatalf("EXPERIMENTS.md has no %q section", heading)
	}
	section := doc[i+1:]
	if next := strings.Index(section, "\n## "); next >= 0 {
		section = section[:next]
	}
	_, table, ok := strings.Cut(section, "Measured (seed 17):\n\n")
	if !ok {
		t.Fatalf("%s: no \"Measured (seed 17):\" table", heading)
	}
	table, _, _ = strings.Cut(table, "\n\n")
	rows := map[string][]string{}
	for _, line := range strings.Split(table, "\n")[2:] { // header, separator
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for j := range cells {
			cells[j] = strings.TrimSpace(strings.ReplaceAll(cells[j], "**", ""))
		}
		rows[cells[0]] = cells[1:]
	}
	return rows
}

// sameNumbers reports whether a page cell shows the golden cell's numbers,
// each rounded to the decimals the page prints ("100" shows "100.0", "4297"
// shows "4297.4"). Cells may hold several numbers separated by " / ", and
// the page's "–" shows a golden cell of nothing but "-".
func sameNumbers(page, golden string) bool {
	gs := strings.Split(golden, " / ")
	if page == "–" {
		return strings.Trim(strings.Join(gs, ""), "-") == ""
	}
	ps := strings.Split(page, " / ")
	if len(ps) != len(gs) {
		return false
	}
	for i, p := range ps {
		g, err := strconv.ParseFloat(gs[i], 64)
		if err != nil {
			return false
		}
		decimals := 0
		if _, frac, ok := strings.Cut(p, "."); ok {
			decimals = len(frac)
		}
		if strconv.FormatFloat(g, 'f', decimals, 64) != p {
			return false
		}
	}
	return true
}
