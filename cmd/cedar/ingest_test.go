package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliutil"
)

const salesCSVFixture = `region,product,units,revenue
north,widget,12,1034.50
south,gadget,7,812.25
east,widget,31,2200.00
west,sprocket,5,150.00
north,gadget,19,1500.75
`

// captureStdout runs fn with os.Stdout redirected into a pipe and returns
// everything it printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	done := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		done <- out
	}()
	ferr := fn()
	w.Close()
	out := <-done
	os.Stdout = orig
	if ferr != nil {
		t.Fatalf("captured run failed: %v\noutput so far:\n%s", ferr, out)
	}
	return out
}

// TestIngestColdWarmDeterminism is the CLI half of the onboarding journey:
// `cedar ingest` persists a dataset, `cedar -dataset` verifies against it,
// and every repetition — re-ingesting the same file, reloading the catalog
// in a fresh run — reproduces byte-identical output.
func TestIngestColdWarmDeterminism(t *testing.T) {
	dir := t.TempDir()
	salesPath := filepath.Join(dir, "sales.csv")
	if err := os.WriteFile(salesPath, []byte(salesCSVFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")
	claimsPath := filepath.Join(dir, "claims.json")

	// Ingest with the path in front of the flags (the documented invocation),
	// writing the surface claims for the verification run below.
	ingestArgs := []string{salesPath, "-table", "sales", "-cache-dir", cacheDir, "-claims-out", claimsPath}
	first := captureStdout(t, func() error { return runIngest(ingestArgs) })
	if !bytes.Contains(first, []byte(`table "sales"`)) || !bytes.Contains(first, []byte("persisted to")) {
		t.Fatalf("ingest summary:\n%s", first)
	}

	// Re-ingesting the identical file is idempotent: same registration, same
	// fingerprint, same summary bytes.
	again := captureStdout(t, func() error { return runIngest(ingestArgs) })
	if !bytes.Equal(first, again) {
		t.Fatalf("re-ingest output diverged:\nfirst:\n%s\nagain:\n%s", first, again)
	}

	raw, err := os.ReadFile(claimsPath)
	if err != nil {
		t.Fatal(err)
	}
	var claims []claimInput
	if err := json.Unmarshal(raw, &claims); err != nil {
		t.Fatal(err)
	}
	if len(claims) < 8 {
		t.Fatalf("only %d surface claims written", len(claims))
	}

	// Cold and warm verification runs load the dataset from the store; the
	// JSON verdict stream must repeat bit for bit.
	o := runOptions{
		SystemFlags: cliutil.SystemFlags{Datasets: []string{"sales"}, CacheDir: cacheDir, Target: 0.99, Seed: 1, Workers: 2},
		ClaimsPath:  claimsPath,
		AsJSON:      true,
	}
	cold := captureStdout(t, func() error { return run(o) })
	warm := captureStdout(t, func() error { return run(o) })
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cold/warm verification output diverged:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	var results []claimOutput
	if err := json.Unmarshal(cold, &results); err != nil {
		t.Fatalf("parsing verification output: %v\n%s", err, cold)
	}
	if len(results) != len(claims) {
		t.Fatalf("verified %d claims, ingested surface has %d", len(results), len(claims))
	}
	for _, r := range results {
		if r.Method == "" {
			t.Fatalf("claim %s has no verification method: %+v", r.ID, r)
		}
	}
}

func TestIngestAndDatasetErrors(t *testing.T) {
	dir := t.TempDir()
	salesPath := filepath.Join(dir, "sales.csv")
	if err := os.WriteFile(salesPath, []byte(salesCSVFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	claimsPath := filepath.Join(dir, "claims.json")
	raw, _ := json.Marshal([]claimInput{{ID: "c", Sentence: "units total 74.", Value: "74"}})
	if err := os.WriteFile(claimsPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := runIngest([]string{filepath.Join(dir, "missing.csv")}); err == nil {
		t.Error("expected error for missing input file")
	}

	// -dataset without -cache-dir has nowhere to load from.
	o := runOptions{
		SystemFlags: cliutil.SystemFlags{Datasets: []string{"sales"}, Target: 0.99, Seed: 1, Workers: 1},
		ClaimsPath:  claimsPath,
	}
	if err := run(o); err == nil {
		t.Error("expected error for -dataset without -cache-dir")
	}

	// A dataset that was never ingested into the store is an error, not an
	// empty catalog.
	o.CacheDir = filepath.Join(dir, "cache")
	if err := runIngest([]string{salesPath, "-table", "sales", "-cache-dir", o.CacheDir}); err != nil {
		t.Fatal(err)
	}
	o.Datasets = []string{"nope"}
	if err := run(o); err == nil {
		t.Error("expected error for unknown dataset name")
	}
}

// TestIngestRestoreSpanInTrace: a `cedar -dataset` run's exported trace
// carries one ingest_sample span per restored dataset. The run resets its
// trace when it starts, and a restore recorded before it was lost.
func TestIngestRestoreSpanInTrace(t *testing.T) {
	dir := t.TempDir()
	salesPath := filepath.Join(dir, "sales.csv")
	if err := os.WriteFile(salesPath, []byte(salesCSVFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")
	claimsPath := filepath.Join(dir, "claims.json")
	captureStdout(t, func() error {
		return runIngest([]string{salesPath, "-table", "sales", "-cache-dir", cacheDir, "-claims-out", claimsPath})
	})
	tracePath := filepath.Join(dir, "out.jsonl")
	o := runOptions{
		SystemFlags: cliutil.SystemFlags{Datasets: []string{"sales"}, CacheDir: cacheDir, Target: 0.99, Seed: 1, Workers: 1},
		ClaimsPath:  claimsPath,
		TracePath:   tracePath,
	}
	captureStdout(t, func() error { return run(o) })
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var restores []string
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var sp struct{ Kind, Detail string }
		if err := json.Unmarshal(line, &sp); err != nil {
			t.Fatal(err)
		}
		if sp.Kind == "ingest_sample" {
			restores = append(restores, sp.Detail)
		}
	}
	if len(restores) != 1 || !strings.HasPrefix(restores[0], "dataset=sales ") {
		t.Fatalf("trace holds ingest_sample spans %q, want one for sales", restores)
	}
}
