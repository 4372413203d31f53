package main

import (
	"strings"
	"testing"
)

// TestRunExperimentsTable3 smoke-tests the cheapest experiment end to end:
// it must match, render non-empty output, and carry the header line.
func TestRunExperimentsTable3(t *testing.T) {
	var b strings.Builder
	ran, err := runExperiments(&b, "table3", 17, 1, false)
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
	ran, err := runExperiments(&b, "table3", 17, 1, true)
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

// TestRunExperimentsWorkersDeterministic runs a verification-bearing
// experiment at 1 and 4 workers and requires identical reports — the
// command-level view of the determinism contract.
func TestRunExperimentsWorkersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full joinbench twice")
	}
	var seq, par strings.Builder
	if _, err := runExperiments(&seq, "joinbench", 17, 1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := runExperiments(&par, "joinbench", 17, 4, false); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("joinbench output differs between 1 and 4 workers:\n--- workers=1\n%s\n--- workers=4\n%s", seq.String(), par.String())
	}
}

// TestRunExperimentsUnknown verifies unknown names report "did not run"
// instead of erroring, which main turns into a usage message.
func TestRunExperimentsUnknown(t *testing.T) {
	var b strings.Builder
	ran, err := runExperiments(&b, "no-such-experiment", 17, 1, false)
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
