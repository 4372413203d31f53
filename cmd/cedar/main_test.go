package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cliutil"
)

func writeFixtures(t *testing.T) (csvPath, claimsPath string) {
	t.Helper()
	dir := t.TempDir()
	csvPath = filepath.Join(dir, "airlines.csv")
	if err := os.WriteFile(csvPath, []byte(
		"airline,incidents_85_99,fatal_accidents_00_14,fatalities_00_14\n"+
			"Aer Lingus,2,0,0\n"+
			"Aeroflot,76,1,88\n"+
			"Malaysia Airlines,3,2,537\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	claims := []claimInput{
		{ID: "good", Sentence: "Malaysia Airlines recorded 2 fatal accidents between 2000 and 2014.", Value: "2"},
		{ID: "bad", Sentence: "The highest fatalities between 2000 and 2014 recorded was 999.", Value: "999"},
	}
	raw, err := json.Marshal(claims)
	if err != nil {
		t.Fatal(err)
	}
	claimsPath = filepath.Join(dir, "claims.json")
	if err := os.WriteFile(claimsPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return csvPath, claimsPath
}

// opts builds a baseline runOptions for the shared fixtures.
func opts(csvPaths []string, table, claimsPath string) runOptions {
	return runOptions{
		SystemFlags: cliutil.SystemFlags{CSVPaths: csvPaths, TableName: table, Target: 0.99, Seed: 1, Workers: 1},
		ClaimsPath:  claimsPath,
	}
}

func TestRunEndToEnd(t *testing.T) {
	csvPath, claimsPath := writeFixtures(t)
	if err := run(opts([]string{csvPath}, "airlines", claimsPath)); err != nil {
		t.Fatalf("run: %v", err)
	}
	// JSON output path and default table name derivation.
	o := opts([]string{csvPath}, "", claimsPath)
	o.Target, o.Seed, o.Workers, o.AsJSON = 0.9, 2, 2, true
	if err := run(o); err != nil {
		t.Fatalf("run json: %v", err)
	}
	// HTML report output.
	htmlPath := filepath.Join(t.TempDir(), "report.html")
	o = opts([]string{csvPath}, "airlines", claimsPath)
	o.HTMLPath = htmlPath
	if err := run(o); err != nil {
		t.Fatalf("run html: %v", err)
	}
	page, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), "CEDAR verification report") {
		t.Error("HTML report missing header")
	}
}

// The resilience flags must thread through run: a chaos run with faults and
// retries completes end to end.
func TestRunWithResilienceKnobs(t *testing.T) {
	csvPath, claimsPath := writeFixtures(t)
	o := opts([]string{csvPath}, "airlines", claimsPath)
	o.FaultRate = 0.2
	o.Retries = 2
	o.Timeout = 5 * time.Minute
	o.HedgeAfter = 2 * time.Second
	if err := run(o); err != nil {
		t.Fatalf("run with faults+retries: %v", err)
	}
}

func TestRunWithStatsFile(t *testing.T) {
	csvPath, claimsPath := writeFixtures(t)
	statsPath := filepath.Join(t.TempDir(), "stats.json")
	stats := `[{"Name":"oneshot-gpt3.5","Cost":0.0002,"Accuracy":0.8,"Wall":1000000},
	           {"Name":"oneshot-gpt4o","Cost":0.0012,"Accuracy":0.9,"Wall":2000000},
	           {"Name":"agent-gpt4o","Cost":0.003,"Accuracy":0.95,"Wall":3000000},
	           {"Name":"agent-gpt4.1","Cost":0.0024,"Accuracy":0.96,"Wall":4000000}]`
	if err := os.WriteFile(statsPath, []byte(stats), 0o644); err != nil {
		t.Fatal(err)
	}
	o := opts([]string{csvPath}, "airlines", claimsPath)
	o.StatsPath = statsPath
	if err := run(o); err != nil {
		t.Fatalf("run with stats: %v", err)
	}
	o.StatsPath = "/nonexistent-stats.json"
	if err := run(o); err == nil {
		t.Error("expected error for missing stats file")
	}
}

func TestRunErrors(t *testing.T) {
	csvPath, claimsPath := writeFixtures(t)
	if err := run(opts([]string{"/nonexistent.csv"}, "t", claimsPath)); err == nil {
		t.Error("expected error for missing CSV")
	}
	if err := run(opts([]string{csvPath}, "t", "/nonexistent.json")); err == nil {
		t.Error("expected error for missing claims file")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(opts([]string{csvPath}, "t", bad)); err == nil {
		t.Error("expected error for malformed claims JSON")
	}
	// A claim whose value is absent from the sentence must be rejected.
	miss := filepath.Join(t.TempDir(), "miss.json")
	raw, _ := json.Marshal([]claimInput{{Sentence: "No value here.", Value: "42"}})
	if err := os.WriteFile(miss, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(opts([]string{csvPath}, "t", miss)); err == nil {
		t.Error("expected error for unlocatable claim value")
	}
}

func TestRunMultiTableCSV(t *testing.T) {
	dir := t.TempDir()
	airlines := filepath.Join(dir, "airlines.csv")
	os.WriteFile(airlines, []byte("airline_id,airline\n1,Aer Lingus\n2,Malaysia Airlines\n"), 0o644)
	safety := filepath.Join(dir, "safety_recent.csv")
	os.WriteFile(safety, []byte("airline_id,fatal_accidents_00_14\n1,0\n2,2\n"), 0o644)
	claims := filepath.Join(dir, "claims.json")
	raw, _ := json.Marshal([]claimInput{{
		ID:       "join",
		Sentence: "Malaysia Airlines recorded 2 fatal accidents between 2000 and 2014.",
		Value:    "2",
	}})
	os.WriteFile(claims, raw, 0o644)
	o := opts([]string{airlines, safety}, "", claims)
	o.Seed, o.Workers = 3, 2
	if err := run(o); err != nil {
		t.Fatalf("multi-table run: %v", err)
	}
	// -table with multiple CSVs is rejected.
	o.TableName = "t"
	if err := run(o); err == nil {
		t.Error("expected -table + multi-csv error")
	}
}
