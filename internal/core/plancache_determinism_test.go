package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/ingest"
	"repro/internal/sqldb"
)

// plancache_determinism_test.go extends the determinism contract to the SQL
// plan cache. claim.CloneDocuments shares each document's *sqldb.Database,
// so every verification run after the first executes against warm plan
// caches; verdicts, ledger fees, and normalized trace bytes must not notice.

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
		total.RowFallbacks += st.RowFallbacks
		total.RowOnlyPlans += st.RowOnlyPlans
		total.IndexBuilds += st.IndexBuilds
		total.IndexProbes += st.IndexProbes
		total.FoldHits += st.FoldHits
		total.IndexJoins += st.IndexJoins
	}
	return total
}

// TestVerifyDeterministicWithWarmPlanCache runs the join-heavy JoinBench
// workload cold, then re-runs it with fully warm plan caches at worker
// counts 1 and 8. Every snapshot field — per-claim results, quality, token
// usage, fees, call count — must be bit-identical to the cold run, and the
// caches must demonstrably serve hits in the warm runs.
func TestVerifyDeterministicWithWarmPlanCache(t *testing.T) {
	_, normalized, err := data.JoinBench(405)
	if err != nil {
		t.Fatal(err)
	}
	profFlat, _, err := data.JoinBench(406)
	if err != nil {
		t.Fatal(err)
	}
	evalDocs, profDocs := normalized, profFlat[:6]
	gen := func() []*claim.Document { return claim.CloneDocuments(evalDocs) }

	// Cold caches: flush whatever document generation itself executed.
	for _, d := range evalDocs {
		if d.Data != nil {
			d.Data.InvalidatePlans()
		}
	}
	cold := snapshotRun(t, 405, 1, gen, profDocs)
	if len(cold.results) == 0 {
		t.Fatal("no claims verified in cold run")
	}
	afterCold := planCacheTotals(evalDocs)
	if afterCold.Misses == 0 {
		t.Fatal("cold run never reached the plan cache; the workload is not exercising Query")
	}

	for _, workers := range []int{1, 8} {
		before := planCacheTotals(evalDocs)
		warm := snapshotRun(t, 405, workers, gen, profDocs)
		after := planCacheTotals(evalDocs)

		if after.Hits <= before.Hits {
			t.Errorf("workers=%d warm run gained no plan-cache hits (%d -> %d)", workers, before.Hits, after.Hits)
		}
		if warm.quality != cold.quality {
			t.Errorf("workers=%d warm quality %v != cold %v", workers, warm.quality, cold.quality)
		}
		if warm.usage != cold.usage {
			t.Errorf("workers=%d warm token usage %+v != cold %+v", workers, warm.usage, cold.usage)
		}
		if warm.dollars != cold.dollars {
			t.Errorf("workers=%d warm fees $%v != cold $%v", workers, warm.dollars, cold.dollars)
		}
		if warm.calls != cold.calls {
			t.Errorf("workers=%d warm calls %d != cold %d", workers, warm.calls, cold.calls)
		}
		if len(warm.results) != len(cold.results) {
			t.Fatalf("workers=%d warm produced %d results, cold %d", workers, len(warm.results), len(cold.results))
		}
		for i := range cold.results {
			if warm.results[i] != cold.results[i] {
				t.Errorf("workers=%d claim %d verdict changed on a warm cache:\nwarm %+v\ncold %+v",
					workers, i, warm.results[i], cold.results[i])
			}
		}
	}
}

// TestGoldenTraceUnchangedByWarmPlanCache asserts the stronger trace-level
// property: the sorted JSONL trace of a verification run is byte-identical
// whether plan caches are cold or warm, at worker counts 1 and 8.
func TestGoldenTraceUnchangedByWarmPlanCache(t *testing.T) {
	docs, err := data.AggChecker(404)
	if err != nil {
		t.Fatal(err)
	}
	profDocs, evalDocs := docs[:8], docs[8:20]
	gen := func() []*claim.Document { return claim.CloneDocuments(evalDocs) }

	for _, d := range evalDocs {
		if d.Data != nil {
			d.Data.InvalidatePlans()
		}
	}
	golden, _, _ := tracedRun(t, 404, 1, 0, gen, profDocs)
	if len(golden) == 0 {
		t.Fatal("cold run produced an empty trace")
	}
	if planCacheTotals(evalDocs).Entries == 0 {
		t.Fatal("cold traced run left the plan cache empty; the workload is not exercising Query")
	}
	for _, workers := range []int{1, 8} {
		got, _, _ := tracedRun(t, 404, workers, 0, gen, profDocs)
		if !bytes.Equal(golden, got) {
			t.Errorf("workers=%d warm-cache trace differs from cold sequential trace (%d vs %d bytes)",
				workers, len(got), len(golden))
			diffTraces(t, golden, got)
		}
	}
}

// TestWarmPlanCacheBigTableNoRowFallback verifies the benchmark's
// lib-bigtable shape — a 16,000-row CSV onboarded through ingest, its claim
// surface with every second claim falsified, flat and normalized — at worker
// counts 1 and 8, and requires that the row engine answered none of the
// pipeline's queries: every one ran on the column image. A vectorized
// regression that only the silent fallback hid would show here as a count,
// not as a slowdown someone has to notice. The same goes for the access paths
// on that image: the run's lookups, unfiltered aggregates and lookup joins
// must have taken them, each index built once however many workers wanted it
// first, while the profiling corpus (tables of at most 50 rows) took none.
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
	gen := func() []*claim.Document { return claim.CloneDocuments(evalDocs) }

	for _, workers := range []int{1, 8} {
		before := planCacheTotals(evalDocs)
		snap := snapshotRun(t, 405, workers, gen, profDocs[:8])
		after := planCacheTotals(evalDocs)
		if len(snap.results) != len(flat.Claims)+len(norm.Claims) {
			t.Fatalf("workers=%d verified %d claims, want %d", workers, len(snap.results), len(flat.Claims)+len(norm.Claims))
		}
		if after.VecRuns-before.VecRuns < uint64(len(snap.results)) {
			t.Errorf("workers=%d: %d vectorized runs for %d claims; the run is not exercising Query",
				workers, after.VecRuns-before.VecRuns, len(snap.results))
		}
		if after.RowFallbacks != 0 || after.RowOnlyPlans != 0 {
			t.Errorf("workers=%d: the row engine answered %d fallbacks and %d row-only statements; want 0 and 0",
				workers, after.RowFallbacks, after.RowOnlyPlans)
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
