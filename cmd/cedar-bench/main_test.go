package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/verify"
)

// TestRunExperimentsTable3 smoke-tests the cheapest experiment end to end:
// it must match, render non-empty output, and carry the header line.
func TestRunExperimentsTable3(t *testing.T) {
	var b strings.Builder
	ran, err := runExperiments(&b, "table3", 17, 1, verify.Middleware{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("table3 did not match any experiment")
	}
	out := b.String()
	if !strings.Contains(out, "== Table 3") {
		t.Errorf("missing header in output:\n%s", out)
	}
	if len(strings.TrimSpace(out)) < 100 {
		t.Errorf("suspiciously short output:\n%s", out)
	}
}

// TestRunExperimentsCSV checks the -csv rendering path emits a commented
// header plus comma-separated rows.
func TestRunExperimentsCSV(t *testing.T) {
	var b strings.Builder
	ran, err := runExperiments(&b, "table3", 17, 1, verify.Middleware{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("table3 did not match any experiment")
	}
	out := b.String()
	if !strings.HasPrefix(out, "# table3 (seed 17)") {
		t.Errorf("missing CSV comment header:\n%s", out)
	}
	if !strings.Contains(out, ",") {
		t.Errorf("no CSV rows in output:\n%s", out)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/all.txt and all.csv from this build")

// TestGoldenAll pins the paper's Section 7 reproduction: `cedar-bench all`
// at seed 17, text and -csv, must print testdata/all.txt and all.csv byte
// for byte at 1 and at 8 workers. Each experiment runs once per worker count
// and is rendered both ways, as runExperiments renders it. Regenerate with
// `go test ./cmd/cedar-bench -run GoldenAll -update`, and say in the change
// why the paper's numbers moved.
func TestGoldenAll(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var text, csv strings.Builder
		for _, e := range experiments() {
			res, err := e.run(17, workers, verify.Middleware{})
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			e.write(&text, res, 17, false)
			e.write(&csv, res, 17, true)
		}
		for _, g := range []struct{ file, got string }{{"all.txt", text.String()}, {"all.csv", csv.String()}} {
			path := filepath.Join("testdata", g.file)
			if *update && workers == 1 {
				if err := os.WriteFile(path, []byte(g.got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if g.got != string(want) {
				t.Errorf("workers=%d: output differs from %s%s", workers, path, firstDiff(string(want), g.got))
			}
		}
	}
}

// firstDiff names the first line where got departs from want.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf(" at line %d:\n want %q\n  got %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf(": %d lines, want %d", len(gl), len(wl))
}

// TestRunExperimentsUnknown verifies unknown names report "did not run"
// instead of erroring, which main turns into a usage message.
func TestRunExperimentsUnknown(t *testing.T) {
	var b strings.Builder
	ran, err := runExperiments(&b, "no-such-experiment", 17, 1, verify.Middleware{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("unknown experiment reported as ran")
	}
	if b.Len() != 0 {
		t.Errorf("unknown experiment produced output: %q", b.String())
	}
}
