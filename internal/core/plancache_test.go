package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/ingest"
	"repro/internal/sqldb"
	"repro/internal/verify"
)

// planCacheTotals sums plan-cache counters across the distinct databases of
// a document set.
func planCacheTotals(docs []*claim.Document) sqldb.PlanCacheStats {
	var total sqldb.PlanCacheStats
	seen := map[*sqldb.Database]bool{}
	for _, d := range docs {
		if d.Data == nil || seen[d.Data] {
			continue
		}
		seen[d.Data] = true
		st := d.Data.PlanCacheStats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Entries += st.Entries
		total.VecRuns += st.VecRuns
		total.IndexBuilds += st.IndexBuilds
		total.IndexProbes += st.IndexProbes
		total.FoldHits += st.FoldHits
		total.IndexJoins += st.IndexJoins
	}
	return total
}

// TestWarmPlanCacheBigTableNoRowFallback verifies the benchmark's
// lib-bigtable shape — a 16,000-row CSV onboarded through ingest, its claim
// surface with every second claim falsified, flat and normalized — at worker
// counts 1 and 8, and requires every claim's query to have run on its plan
// over the column image, and the access paths on that image to have been
// taken: the run's lookups, unfiltered aggregates and lookup joins, each
// index built once however many workers wanted it first, while the profiling
// corpus (tables of at most 50 rows) took none.
func TestWarmPlanCacheBigTableNoRowFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	teams := []string{"north", "south", "east", "west", "central", "coastal"}
	var csv strings.Builder
	csv.WriteString("name,team,units,revenue,discounted,day\n")
	for i := 0; i < 16000; i++ {
		fmt.Fprintf(&csv, "acct-%05d,%s,%d,%.2f,%t,2024-%02d-%02d\n", i,
			teams[rng.Intn(len(teams))], rng.Intn(500), float64(rng.Intn(1_000_000))/100,
			rng.Intn(2) == 1, 1+rng.Intn(12), 1+rng.Intn(28))
	}
	ir, err := ingest.Ingest(strings.NewReader(csv.String()), ingest.Options{Table: "sales", Format: "csv", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.NewDatabase("sales")
	ds, err := ingest.NewRegistry(db, nil, ingest.Options{}).Add(ir)
	if err != nil {
		t.Fatal(err)
	}
	flat := &claim.Document{ID: "big", Domain: "ingest", Data: db}
	for i, sc := range ds.Surface.Claims {
		sentence, value, correct := sc.Sentence, sc.Value, true
		if i%2 == 1 {
			wrong := value + "7"
			sentence = strings.Replace(sentence, value, wrong, 1)
			value, correct = wrong, false
		}
		c, err := claim.New(sc.ID, sentence, value, sc.Context)
		if err != nil {
			t.Fatal(err)
		}
		c.Gold = claim.Gold{Query: sc.Query, Correct: correct}
		flat.Claims = append(flat.Claims, c)
	}
	norm, err := data.NormalizeDocument(flat)
	if err != nil {
		t.Fatal(err)
	}
	evalDocs := []*claim.Document{flat, norm}
	profDocs, err := data.AggChecker(406)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		before := planCacheTotals(evalDocs)
		snap := snapshotRun(t, 405, workers, evalDocs, profDocs[:8], verify.Middleware{})
		after := planCacheTotals(evalDocs)
		if len(snap.results) != len(flat.Claims)+len(norm.Claims) {
			t.Fatalf("workers=%d verified %d claims, want %d", workers, len(snap.results), len(flat.Claims)+len(norm.Claims))
		}
		if after.VecRuns-before.VecRuns < uint64(len(snap.results)) {
			t.Errorf("workers=%d: %d vectorized runs for %d claims; the run is not exercising Query",
				workers, after.VecRuns-before.VecRuns, len(snap.results))
		}
		if after.IndexProbes == before.IndexProbes || after.FoldHits == before.FoldHits || after.IndexJoins == before.IndexJoins {
			t.Errorf("workers=%d: an access path was not taken: before %+v, after %+v", workers, before, after)
		}
	}
	// One index per probed column: name in the flat table and in its
	// normalized twin, and the surrogate key of each normalized measure table
	// the lookup joins walk.
	if st := planCacheTotals(evalDocs); st.IndexBuilds != 4 {
		t.Errorf("%d indexes built after two runs, want 4: %+v", st.IndexBuilds, st)
	}
	if st := planCacheTotals(profDocs[:8]); st.VecRuns == 0 || st.IndexBuilds+st.IndexProbes+st.FoldHits+st.IndexJoins != 0 {
		t.Errorf("profiling corpus: %+v, want vectorized runs and no access path on tables this small", st)
	}
}
