package doclint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDoclintPackageComments is the repo-wide half of the documented-surface
// gate: every shipped package must open with a package comment.
func TestDoclintPackageComments(t *testing.T) {
	root, err := RepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	missing, err := MissingPackageComments(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Errorf("packages missing a package comment:\n  %s", strings.Join(missing, "\n  "))
	}
}

// TestDoclintDataJourney keeps the dataset-onboarding journey in
// docs/DATA.md tied to the surfaces it walks through: if a rename drops
// one of these from the page, the journey is no longer reproducible from
// the docs alone and this gate fails.
func TestDoclintDataJourney(t *testing.T) {
	doc, err := Doc("docs/DATA.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, surface := range []string{
		"cedar ingest",
		"`-dataset",
		"`-cache-dir`",
		"`-claims-out`",
		"`-sample-rows`",
		"`-max-ingest-bytes`",
		"POST /v1/datasets",
		"DELETE /v1/datasets",
		"fingerprint",
		"reservoir",
		// The inference table must name every column type the engine infers.
		"int", "float", "bool", "date", "string",
	} {
		if !strings.Contains(doc, surface) {
			t.Errorf("docs/DATA.md no longer mentions %q", surface)
		}
	}
}

func TestRepoRootFindsGoMod(t *testing.T) {
	root, err := RepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	// The checkout may live in a directory of any name; its go.mod is what
	// identifies it.
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	if first, _, _ := strings.Cut(string(mod), "\n"); strings.TrimSpace(first) != "module repro" {
		t.Errorf("RepoRoot = %q, whose go.mod declares %q, want the checkout's (module repro)", root, first)
	}
}

func TestBinarySectionScoping(t *testing.T) {
	doc := "# CLI\n\n## cedar\n\n`-csv` data\n\n## cedar-serve\n\n`-addr` listen\n"
	fs := flag.NewFlagSet("cedar-serve", flag.ContinueOnError)
	fs.String("addr", "", "")
	fs.String("csv", "", "")
	missing, err := MissingFlags(doc, "cedar-serve", fs)
	if err != nil {
		t.Fatal(err)
	}
	// -csv is documented, but only in the cedar section: it must still count
	// as missing for cedar-serve.
	if len(missing) != 1 || missing[0] != "csv" {
		t.Errorf("missing = %v, want [csv]", missing)
	}
	if _, err := MissingFlags(doc, "cedar-bench", fs); err == nil {
		t.Error("expected an error for a binary without a section")
	}
}
