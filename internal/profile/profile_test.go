package profile

import (
	"errors"
	"os"
	"testing"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/schedule"
	"repro/internal/sqldb"
	"repro/internal/verify"
)

func testSetup(t *testing.T, seed int64) ([]verify.Method, *llm.Ledger, []*claim.Document) {
	t.Helper()
	ledger := llm.NewLedger()
	model35, err := sim.New(llm.ModelGPT35, seed)
	if err != nil {
		t.Fatal(err)
	}
	model4o, err := sim.New(llm.ModelGPT4o, seed)
	if err != nil {
		t.Fatal(err)
	}
	methods := []verify.Method{
		verify.NewOneShot(&llm.Metered{Client: model35, Ledger: ledger}, llm.ModelGPT35, "cheap"),
		verify.NewOneShot(&llm.Metered{Client: model4o, Ledger: ledger}, llm.ModelGPT4o, "strong"),
	}
	docs, err := data.AggChecker(seed)
	if err != nil {
		t.Fatal(err)
	}
	return methods, ledger, docs[:6]
}

func TestRunProducesUsableStats(t *testing.T) {
	methods, ledger, docs := testSetup(t, 9)
	stats, err := Run(methods, docs, ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats = %d", len(stats))
	}
	byName := map[string]schedule.MethodStats{}
	for _, s := range stats {
		byName[s.Name] = s
		if s.Accuracy <= 0 || s.Accuracy >= 1 {
			t.Errorf("%s accuracy %v outside (0,1)", s.Name, s.Accuracy)
		}
		if s.Cost <= 0 {
			t.Errorf("%s cost %v", s.Name, s.Cost)
		}
		if s.Wall <= 0 {
			t.Errorf("%s wall %v", s.Name, s.Wall)
		}
	}
	if byName["cheap"].Cost >= byName["strong"].Cost {
		t.Errorf("cost ordering: cheap %v vs strong %v", byName["cheap"].Cost, byName["strong"].Cost)
	}
	// The ledger must be left clean for the production run.
	if ledger.TotalCalls() != 0 {
		t.Error("ledger not reset after profiling")
	}
}

func TestRunDoesNotMutateCorpus(t *testing.T) {
	methods, ledger, docs := testSetup(t, 10)
	if _, err := Run(methods, docs, ledger); err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		for _, c := range d.Claims {
			if c.Result.Verified || c.Result.Query != "" || c.Result.Attempts != 0 {
				t.Fatalf("profiling mutated claim %s: %+v", c.ID, c.Result)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	_, ledger, docs := testSetup(t, 12)
	if _, err := Run(nil, docs, ledger); err == nil {
		t.Error("expected error with no methods")
	}
	methods, ledger2, _ := testSetup(t, 13)
	if _, err := Run(methods, nil, ledger2); err == nil {
		t.Error("expected error with empty corpus")
	}
}

// failingMethod never verifies; profiling must clamp its accuracy above 0
// so the scheduler stays well-defined.
type failingMethod struct{}

func (failingMethod) Name() string      { return "failing" }
func (failingMethod) ModelName() string { return "none" }
func (failingMethod) Translate(*claim.Claim, *sqldb.Database, verify.Invocation) (string, error) {
	return "", errors.New("nope")
}

func TestRunClampsDegenerateStats(t *testing.T) {
	_, ledger, docs := testSetup(t, 14)
	stats, err := Run([]verify.Method{failingMethod{}}, docs, ledger)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Accuracy != 0.01 {
		t.Errorf("accuracy = %v want clamp 0.01", stats[0].Accuracy)
	}
	if stats[0].Cost <= 0 {
		t.Errorf("cost = %v want positive clamp", stats[0].Cost)
	}
}

func TestSaveLoadStats(t *testing.T) {
	methods, ledger, docs := testSetup(t, 15)
	stats, err := Run(methods, docs, ledger)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/stats.json"
	if err := SaveStats(path, stats); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStats(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(stats) {
		t.Fatalf("loaded %d want %d", len(loaded), len(stats))
	}
	for i := range stats {
		if loaded[i] != stats[i] {
			t.Errorf("entry %d: %+v != %+v", i, loaded[i], stats[i])
		}
	}
}

func TestLoadStatsErrors(t *testing.T) {
	if _, err := LoadStats("/nonexistent.json"); err == nil {
		t.Error("expected read error")
	}
	dir := t.TempDir()
	bad := dir + "/bad.json"
	os.WriteFile(bad, []byte("not json"), 0o644)
	if _, err := LoadStats(bad); err == nil {
		t.Error("expected decode error")
	}
	empty := dir + "/empty.json"
	os.WriteFile(empty, []byte("[]"), 0o644)
	if _, err := LoadStats(empty); err == nil {
		t.Error("expected empty error")
	}
	invalid := dir + "/invalid.json"
	os.WriteFile(invalid, []byte(`[{"Name":"","Cost":0,"Accuracy":2}]`), 0o644)
	if _, err := LoadStats(invalid); err == nil {
		t.Error("expected validation error")
	}
}
