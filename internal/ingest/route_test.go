package ingest

import (
	"strings"
	"testing"

	"repro/cedar"
	"repro/internal/data"
	"repro/internal/route"
	"repro/internal/sqldb"
)

// A compound claim spanning an ingested CSV table and a compiled-in schema
// routes each conjunct to its own table: onboarding a dataset makes it a
// first-class routing target next to the tables the binary shipped with.
func TestRouteAcrossIngestedAndCompiledTables(t *testing.T) {
	db := sqldb.NewDatabase("ops")
	airlines := sqldb.NewTable("airlines", "airline", "incidents_85_99", "fatal_accidents_00_14")
	airlines.MustAppendRow(sqldb.Text("Aeroflot"), sqldb.Int(76), sqldb.Int(1))
	airlines.MustAppendRow(sqldb.Text("Malaysia Airlines"), sqldb.Int(3), sqldb.Int(2))
	db.AddTable(airlines)

	reg := NewRegistry(db, nil, Options{Seed: 5})
	const drinksCSV = "country,beer_servings,wine_servings\nFrance,127,370\nGermany,346,175\n"
	ds, err := reg.IngestFrom(strings.NewReader(drinksCSV), Options{Table: "drinks"})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Info.RowsKept != 2 {
		t.Fatalf("ingested %d rows, want 2", ds.Info.RowsKept)
	}

	cat := route.NewCatalog(db)
	if cat.Len() != 2 {
		t.Fatalf("catalog indexed %d tables, want 2 (compiled-in + ingested)", cat.Len())
	}

	sentence := "Malaysia Airlines recorded 2 fatal accidents, and France recorded 370 wine servings."
	subs := route.Decompose(sentence, "2", "")
	if len(subs) != 2 {
		t.Fatalf("decomposed into %d sub-claims, want 2: %+v", len(subs), subs)
	}
	wantEntries := []string{"ops/airlines", "ops/drinks"}
	for i, sub := range subs {
		entry, _, _ := cat.Bind(5, "ops", 0, i, sub)
		if entry == nil {
			t.Fatalf("sub %d did not bind", i)
		}
		if entry.Name() != wantEntries[i] {
			t.Errorf("sub %d (%q) bound to %s, want %s", i, sub.Sentence, entry.Name(), wantEntries[i])
		}
	}

	// End to end: the routed verification recombines sub-verdicts across the
	// compiled-in and ingested tables under one compound claim.
	sys, err := cedar.New(cedar.Options{Seed: 5, AccuracyTarget: 0.99, Route: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	profDocs, err := data.AggChecker(1005)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ProfileOn(profDocs[:6]); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetCatalog(db); err != nil {
		t.Fatal(err)
	}
	c, err := cedar.NewClaim("x1", sentence, "2", "")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.VerifyClaims("ops", db, []*cedar.Claim{c})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RoutedSubClaims != 2 {
		t.Fatalf("routed %d sub-claims, want 2", rep.RoutedSubClaims)
	}
	if !strings.HasPrefix(c.Result.Method, "route(") {
		t.Fatalf("method = %q, want route(...)", c.Result.Method)
	}
	if !c.Result.Correct || !c.Result.Verified {
		t.Errorf("compound claim over true conjuncts = %+v, want verified correct", c.Result)
	}

	// Dropping the ingested dataset shrinks the routing surface again.
	if ok, err := reg.Delete("drinks"); err != nil || !ok {
		t.Fatalf("delete drinks: ok=%t err=%v", ok, err)
	}
	if cat := route.NewCatalog(db); cat.Len() != 1 {
		t.Fatalf("catalog after delete indexed %d tables, want 1", cat.Len())
	}
}

// Regression test for dataset DELETE and the plan cache: dropping an
// ingested dataset must evict every cached plan citing its table — above all
// cross-table joins against compiled-in tables — while unrelated hot plans
// stay warm, and a post-delete query against the dropped table must error
// rather than answer from a stale plan.
func TestDatasetDeleteEvictsCrossTablePlans(t *testing.T) {
	db := sqldb.NewDatabase("ops")
	base := sqldb.NewTable("regions", "region", "population")
	base.MustAppendRow(sqldb.Text("north"), sqldb.Int(100))
	base.MustAppendRow(sqldb.Text("south"), sqldb.Int(200))
	db.AddTable(base)

	reg := NewRegistry(db, nil, Options{Seed: 5})
	const salesByRegion = "region,units\nnorth,12\nsouth,7\n"
	if _, err := reg.IngestFrom(strings.NewReader(salesByRegion), Options{Table: "sales"}); err != nil {
		t.Fatal(err)
	}

	// Surface generation during ingestion caches its own plans; measure this
	// test's queries relative to that baseline.
	preloaded := db.PlanCacheStats().Entries
	queries := []string{
		`SELECT COUNT(*) FROM regions`,
		`SELECT COUNT(*) FROM sales`,
		`SELECT a.region, b.units FROM regions a JOIN sales b ON a.region = b.region ORDER BY 1`,
	}
	for _, q := range queries {
		if _, err := sqldb.Query(db, q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
	if got := db.PlanCacheStats().Entries; got != preloaded+len(queries) {
		t.Fatalf("Entries = %d, want %d", got, preloaded+len(queries))
	}

	if ok, err := reg.Delete("sales"); err != nil || !ok {
		t.Fatalf("delete sales: ok=%t err=%v", ok, err)
	}
	// Every plan citing sales is gone — the sales scan, the cross-table join,
	// and ingestion's own surface plans — while regions-only plans survive.
	if got := db.PlanCacheStats().Entries; got >= preloaded+len(queries) {
		t.Fatalf("Entries after DELETE = %d, want eviction below %d", got, preloaded+len(queries))
	}
	before := db.PlanCacheStats()
	if _, err := sqldb.Query(db, queries[0]); err != nil {
		t.Fatal(err)
	}
	after := db.PlanCacheStats()
	if after.Hits-before.Hits != 1 || after.Misses != before.Misses {
		t.Fatalf("surviving plan not warm: hits %d->%d misses %d->%d",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
	// No stale answers: both evicted statements must now fail on the missing
	// table instead of executing their old plans.
	for _, q := range queries[1:] {
		if _, err := sqldb.Query(db, q); err == nil {
			t.Errorf("%q answered after its table was deleted", q)
		}
	}
}
