package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/cedar"
	"repro/internal/profile"
)

var update = flag.Bool("update", false, "rewrite testdata/aggchecker-8.txt from this build")

// TestGoldenProfile pins the command's stdout at seed 17 on eight
// AggChecker documents: the profiled statistics and the schedule chosen at
// each accuracy target. Regenerate with `go test ./cmd/cedar-profile -run
// GoldenProfile -update`.
func TestGoldenProfile(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got, cedar.Options{Seed: 17}, cedar.BenchAggChecker, 8, ""); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "aggchecker-8.txt")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("stdout differs from %s:\n--- got\n%s--- want\n%s", path, got.Bytes(), want)
	}
}

// TestRunWritesLoadableStats smoke-tests the command end to end: profile a
// few documents, write the stats file, and check cedar -stats could load it.
func TestRunWritesLoadableStats(t *testing.T) {
	out := filepath.Join(t.TempDir(), "stats.json")
	if err := run(io.Discard, cedar.Options{Seed: 11}, cedar.BenchAggChecker, 4, out); err != nil {
		t.Fatal(err)
	}
	stats, err := profile.LoadStats(out)
	if err != nil {
		t.Fatalf("written stats do not load: %v", err)
	}
	if len(stats) != 4 {
		t.Fatalf("profiled %d methods, want the standard 4-method stack", len(stats))
	}
	for _, s := range stats {
		if s.Name == "" || s.Accuracy <= 0 || s.Accuracy > 1 || s.Cost <= 0 {
			t.Errorf("implausible stats entry %+v", s)
		}
	}
}

// TestRunRejectsUnknownBenchmark covers the error path.
func TestRunRejectsUnknownBenchmark(t *testing.T) {
	if err := run(io.Discard, cedar.Options{Seed: 11}, "no-such-benchmark", 4, ""); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}
