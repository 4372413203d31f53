package sqldb

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// plancache_test.go covers the prepared-statement cache: normalized sharing,
// invalidation on catalog change, cap behaviour, hit determinism, and a
// 32-goroutine mixed prepare/execute/invalidate stress run under -race.

func TestPlanCacheNormalizedSharing(t *testing.T) {
	db := diffDB()
	// Three spellings of the same statement: canonical, extra whitespace,
	// and explicitly quoted identifiers. All must normalize identically and
	// share one *planEntry.
	spellings := []string{
		`SELECT id, n FROM t1 WHERE id = 3`,
		`SELECT   id ,  n   FROM t1   WHERE id = 3`,
		`SELECT "id", "n" FROM "t1" WHERE "id" = 3`,
	}
	norm0, err := Normalize(spellings[0])
	if err != nil {
		t.Fatal(err)
	}
	var first *planEntry
	for i, q := range spellings {
		n, err := Normalize(q)
		if err != nil {
			t.Fatalf("Normalize(%q): %v", q, err)
		}
		if n != norm0 {
			t.Fatalf("spelling %d normalizes to %q, want %q", i, n, norm0)
		}
		e, err := db.plans.lookup(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if e.norm != norm0 {
			t.Fatalf("entry.norm = %q, want %q", e.norm, norm0)
		}
		if first == nil {
			first = e
		} else if e != first {
			t.Fatalf("spelling %d got a distinct plan entry; want shared pointer", i)
		}
	}
	st := db.PlanCacheStats()
	if st.Entries != 1 {
		t.Fatalf("Entries = %d after 3 spellings of one statement, want 1", st.Entries)
	}
	if st.Hits < 2 {
		t.Fatalf("Hits = %d, want >= 2 (normalized sharing should hit)", st.Hits)
	}

	// A structurally different statement must not share.
	other, err := db.plans.lookup(db, `SELECT id, n FROM t1 WHERE id = 4`)
	if err != nil {
		t.Fatal(err)
	}
	if other == first {
		t.Fatal("distinct statements share a plan entry")
	}
}

func TestPlanCacheHitDeterminism(t *testing.T) {
	db := diffDB()
	queries := []string{
		`SELECT id, COUNT(*), SUM(n) FROM t1 GROUP BY id ORDER BY 1`,
		`SELECT a.id, b.tag FROM t1 a JOIN t2 b ON a.id = b.id ORDER BY 1, 2`,
		`SELECT s FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE t2.id = t1.id)`,
		`SELECT n AS val FROM t1 ORDER BY val DESC LIMIT 5`,
	}
	cold := make([]string, len(queries))
	for i, q := range queries {
		res, err := Query(db, q)
		if err != nil {
			t.Fatalf("cold %q: %v", q, err)
		}
		cold[i] = res.String()
	}
	before := db.PlanCacheStats()
	// Every query again, twice: all cache hits, bit-identical output.
	for pass := 0; pass < 2; pass++ {
		for i, q := range queries {
			res, err := Query(db, q)
			if err != nil {
				t.Fatalf("warm %q: %v", q, err)
			}
			if res.String() != cold[i] {
				t.Fatalf("warm result differs from cold for %q:\ncold:\n%s\nwarm:\n%s", q, cold[i], res.String())
			}
		}
	}
	after := db.PlanCacheStats()
	if after.Misses != before.Misses {
		t.Fatalf("warm passes caused %d new misses; want 0", after.Misses-before.Misses)
	}
	if got, want := after.Hits-before.Hits, uint64(2*len(queries)); got != want {
		t.Fatalf("warm passes produced %d hits, want %d", got, want)
	}
}

func TestPlanCacheInvalidationOnCatalogChange(t *testing.T) {
	db := diffDB()
	const q = `SELECT COUNT(*) FROM t2`
	res, err := Query(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if db.PlanCacheStats().Entries == 0 {
		t.Fatal("query did not populate the plan cache")
	}

	// Replace t2 with three rows; the cached plan must not survive.
	t2 := NewTable("t2", "id", "v", "tag")
	t2.MustAppendRow(Int(1), Float(1), Text("x"))
	t2.MustAppendRow(Int(2), Float(2), Text("y"))
	t2.MustAppendRow(Int(3), Float(3), Text("z"))
	db.AddTable(t2)

	if got := db.PlanCacheStats().Entries; got != 0 {
		t.Fatalf("Entries = %d after AddTable, want 0 (catalog change must flush)", got)
	}
	res2, err := Query(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rows[0][0].String() != "3" {
		t.Fatalf("post-invalidation COUNT(*) = %s, want 3 (old: %s)", res2.Rows[0][0], res.Rows[0][0])
	}

	// Schema change: t2 loses column v. The cached join plan referencing v
	// must yield the row engine's unknown-column error, not stale data.
	const qv = `SELECT v FROM t2 ORDER BY 1`
	if _, err := Query(db, qv); err != nil {
		t.Fatal(err)
	}
	t2b := NewTable("t2", "id", "tag")
	t2b.MustAppendRow(Int(1), Text("x"))
	db.AddTable(t2b)
	_, qErr := Query(db, qv)
	stmt, _ := Parse(qv)
	_, rowErr := Exec(db, stmt)
	if rowErr == nil {
		t.Fatal("row engine accepted a dropped column")
	}
	if qErr == nil || qErr.Error() != rowErr.Error() {
		t.Fatalf("post-schema-change error mismatch:\nrow:   %v\nquery: %v", rowErr, qErr)
	}

	// InvalidatePlans is the manual form of the same flush.
	if _, err := Query(db, q); err != nil {
		t.Fatal(err)
	}
	db.InvalidatePlans()
	if got := db.PlanCacheStats().Entries; got != 0 {
		t.Fatalf("Entries = %d after InvalidatePlans, want 0", got)
	}
}

func TestPlanCacheCapFlush(t *testing.T) {
	db := diffDB()
	// Drive well past the cap with distinct statements; the cache must stay
	// bounded and every query must still answer correctly.
	for i := 0; i < planCacheCap+40; i++ {
		q := fmt.Sprintf("SELECT COUNT(*) FROM t1 WHERE id = %d", i%7)
		res, err := Query(db, q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("%q: %d rows", q, len(res.Rows))
		}
		// Distinct LIMIT makes every statement unique past the cap.
		if _, err := Query(db, fmt.Sprintf("SELECT id FROM t1 LIMIT %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.PlanCacheStats().Entries; got > planCacheCap {
		t.Fatalf("Entries = %d exceeds cap %d", got, planCacheCap)
	}
}

func TestPlanCacheParseErrorsNotCached(t *testing.T) {
	db := diffDB()
	for i := 0; i < 3; i++ {
		if _, err := Query(db, "SELEC nonsense FROM"); err == nil {
			t.Fatal("malformed statement accepted")
		}
	}
	if got := db.PlanCacheStats().Entries; got != 0 {
		t.Fatalf("Entries = %d after parse errors, want 0", got)
	}
}

// TestPlanCacheConcurrentStress runs 32 goroutines mixing prepared-statement
// lookups, query execution, catalog replacement, and explicit invalidation.
// Stable-table queries are asserted against row-oracle results computed up
// front; the volatile table is always replaced with identical content so its
// query has a stable answer no matter which catalog version serves it.
// Run with -race (make check does).
func TestPlanCacheConcurrentStress(t *testing.T) {
	db := diffDB()
	freshVolatile := func() *Table {
		v := NewTable("volatile", "id", "x")
		for i := 0; i < 8; i++ {
			v.MustAppendRow(Int(int64(i)), Int(int64(i*i)))
		}
		return v
	}
	db.AddTable(freshVolatile())

	stable := []string{
		`SELECT id, n FROM t1 WHERE id = 2 ORDER BY 2`,
		`SELECT id, COUNT(*) FROM t1 GROUP BY id ORDER BY 1`,
		`SELECT a.id, b.tag FROM t1 a JOIN t2 b ON a.id = b.id ORDER BY 1, 2`,
		`SELECT SUM(n), AVG(f) FROM t1`,
		`SELECT s FROM t1 WHERE s LIKE '%a%' ORDER BY 1`,
		`SELECT id FROM t1 WHERE id IN (SELECT id FROM t2 WHERE v > 0) ORDER BY 1`,
		`SELECT n AS val FROM t1 WHERE n BETWEEN -20 AND 40 ORDER BY val LIMIT 9`,
		`SELECT COUNT(*) FROM t1 a LEFT JOIN t2 b ON a.id = b.id`,
	}
	expected := make(map[string]string, len(stable)+1)
	for _, q := range stable {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Exec(db, stmt) // row oracle, bypassing the cache
		if err != nil {
			t.Fatal(err)
		}
		expected[q] = res.String()
	}
	const volQ = `SELECT COUNT(*), SUM(x) FROM volatile`
	{
		stmt, _ := Parse(volQ)
		res, err := Exec(db, stmt)
		if err != nil {
			t.Fatal(err)
		}
		expected[volQ] = res.String()
	}

	const goroutines = 32
	const iters = 200
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + gi)))
			for it := 0; it < iters; it++ {
				switch {
				case gi == 0 && it%5 == 0:
					// Catalog churn: replace volatile with identical content.
					db.AddTable(freshVolatile())
				case gi == 1 && it%7 == 0:
					db.InvalidatePlans()
				case gi == 2 && it%3 == 0:
					_ = db.PlanCacheStats()
					// Prepare without executing.
					if _, err := db.plans.lookup(db, stable[rng.Intn(len(stable))]); err != nil {
						errc <- err
						return
					}
				default:
					q := volQ
					if rng.Intn(4) != 0 {
						q = stable[rng.Intn(len(stable))]
					}
					res, err := Query(db, q)
					if err != nil {
						errc <- fmt.Errorf("goroutine %d: %q: %w", gi, q, err)
						return
					}
					if got := res.String(); got != expected[q] {
						errc <- fmt.Errorf("goroutine %d: %q diverged under concurrency:\ngot:\n%s\nwant:\n%s", gi, q, got, expected[q])
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// After the dust settles every stable query must still be correct and
	// the second run of each must be a cache hit.
	db.InvalidatePlans()
	for _, q := range stable {
		if res, err := Query(db, q); err != nil || res.String() != expected[q] {
			t.Fatalf("post-stress %q: err=%v", q, err)
		}
	}
	before := db.PlanCacheStats()
	for _, q := range stable {
		if res, err := Query(db, q); err != nil || res.String() != expected[q] {
			t.Fatalf("post-stress warm %q: err=%v", q, err)
		}
	}
	after := db.PlanCacheStats()
	if after.Hits-before.Hits != uint64(len(stable)) {
		t.Fatalf("post-stress warm pass: %d hits, want %d", after.Hits-before.Hits, len(stable))
	}
}

// TestPlanCacheSelectiveInvalidation is the regression test for the
// ingestion fix: catalog churn on one table must evict only the cached plans
// that reference it. Before the fix, any AddTable flushed the whole cache,
// so every dataset ingestion cold-started every other table's hot queries.
func TestPlanCacheSelectiveInvalidation(t *testing.T) {
	db := diffDB()
	stableQueries := []string{
		`SELECT id, n FROM t1 WHERE id = 2 ORDER BY 2`,
		`SELECT COUNT(*), SUM(n) FROM t1`,
		`SELECT a.id, b.tag FROM t1 a JOIN t2 b ON a.id = b.id ORDER BY 1, 2`,
	}
	for _, q := range stableQueries {
		if _, err := Query(db, q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
	entries := db.PlanCacheStats().Entries
	if entries != len(stableQueries) {
		t.Fatalf("Entries = %d, want %d", entries, len(stableQueries))
	}

	// Churn an unrelated table repeatedly: the stable entries must survive
	// and keep hitting.
	for i := 0; i < 5; i++ {
		side := NewTable("ingested", "k", "v")
		side.MustAppendRow(Int(int64(i)), Text("x"))
		db.AddTable(side)
	}
	if got := db.PlanCacheStats().Entries; got != entries {
		t.Fatalf("Entries = %d after unrelated churn, want %d (selective invalidation)", got, entries)
	}
	before := db.PlanCacheStats()
	for _, q := range stableQueries {
		if _, err := Query(db, q); err != nil {
			t.Fatalf("warm %q: %v", q, err)
		}
	}
	after := db.PlanCacheStats()
	if got, want := after.Hits-before.Hits, uint64(len(stableQueries)); got != want {
		t.Fatalf("unrelated churn broke warm hits: %d hits, want %d", got, want)
	}

	// Churning a referenced table drops exactly the entries that mention it
	// — including the join — and leaves the rest.
	if _, err := Query(db, `SELECT COUNT(*) FROM ingested`); err != nil {
		t.Fatal(err)
	}
	t2 := NewTable("t2", "id", "v", "tag")
	t2.MustAppendRow(Int(1), Float(1), Text("x"))
	db.AddTable(t2)
	st := db.PlanCacheStats()
	// t1-only entries (2) plus the ingested entry survive; the t1⋈t2 join is gone.
	if st.Entries != 3 {
		t.Fatalf("Entries = %d after t2 churn, want 3", st.Entries)
	}
	res, err := Query(db, `SELECT a.id, b.tag FROM t1 a JOIN t2 b ON a.id = b.id ORDER BY 1, 2`)
	if err != nil {
		t.Fatal(err)
	}
	// t1 has four rows with id=1; the fresh t2 has exactly one matching row.
	if len(res.Rows) != 4 {
		t.Fatalf("recompiled join returned %d rows, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1].String() != "x" {
			t.Fatalf("recompiled join read a stale t2 row: %v", row)
		}
	}

	// RemoveTable also invalidates only its own entries, and queries against
	// the removed table now fail like the row engine says they should.
	db.RemoveTable("ingested")
	if _, err := Query(db, `SELECT COUNT(*) FROM ingested`); err == nil {
		t.Fatal("query against removed table succeeded")
	}
	before = db.PlanCacheStats()
	for _, q := range stableQueries[:2] {
		if _, err := Query(db, q); err != nil {
			t.Fatalf("post-remove warm %q: %v", q, err)
		}
	}
	after = db.PlanCacheStats()
	if got, want := after.Hits-before.Hits, uint64(2); got != want {
		t.Fatalf("RemoveTable broke unrelated warm hits: %d, want %d", got, want)
	}

	// A subquery reference counts: churning the inner table must stale the
	// outer statement even though it scans only t1.
	sub := `SELECT COUNT(*) FROM t1 WHERE id IN (SELECT id FROM t2 WHERE v > 0)`
	first, err := Query(db, sub)
	if err != nil {
		t.Fatal(err)
	}
	t2c := NewTable("t2", "id", "v", "tag")
	t2c.MustAppendRow(Int(999), Float(1), Text("q"))
	db.AddTable(t2c)
	second, err := Query(db, sub)
	if err != nil {
		t.Fatal(err)
	}
	if second.String() == first.String() {
		t.Fatalf("subquery result did not change after inner-table churn: %s", second.String())
	}
}

// TestExplainQueryPushdown pins the explain surface the pushdown property
// tests rely on: safe predicates push into scans, unsafe ones stay residual,
// and the LEFT-join right side is never a push target.
func TestExplainQueryPushdown(t *testing.T) {
	db := diffDB()
	cases := []struct {
		sql  string
		want []string
	}{
		{`SELECT id FROM t1 WHERE n > 0`, []string{"scan t1 pushed=1", "residual=0"}},
		{`SELECT id FROM t1 WHERE n + 1 > 0`, []string{"scan t1 pushed=0", "residual=1"}},
		{`SELECT a.id FROM t1 a JOIN t2 b ON a.id = b.id WHERE a.n > 0 AND b.v < 5`,
			[]string{"scan t1 pushed=1", "inner join (hash) t2 pushed=1"}},
		{`SELECT a.id FROM t1 a LEFT JOIN t2 b ON a.id = b.id WHERE a.n > 0`,
			[]string{"scan t1 pushed=1", "left join (hash) t2 pushed=0"}},
		{`SELECT COUNT(*) FROM t1 a JOIN t2 b ON a.n > b.v`, []string{"inner join (nested-loop) t2"}},
	}
	for _, c := range cases {
		got, err := ExplainQuery(db, c.sql)
		if err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		for _, w := range c.want {
			if !strings.Contains(got, w) {
				t.Errorf("%q:\nexplain:\n%swant substring %q", c.sql, got, w)
			}
		}
	}
}

// TestPlanCacheReleasesQueryText: a cached plan must not keep the text its
// query was cut from alive. A model's completion is kilobytes; the query a
// caller extracts from it by trimming is a substring of it, and the raw key
// and the parsed identifiers used to be substrings of that.
func TestPlanCacheReleasesQueryText(t *testing.T) {
	db := diffDB()
	released := make(chan struct{})
	func() {
		completion := fmt.Sprintf("To find x I query the data.\n```sql\nSELECT n FROM t1 WHERE id = %d AND n = 'released'\n```\n%s", 3, strings.Repeat("filler ", 64))
		runtime.SetFinalizer(unsafe.StringData(completion), func(*byte) { close(released) })
		_, rest, _ := strings.Cut(completion, "```sql\n")
		query, _, _ := strings.Cut(rest, "\n```")
		if _, err := db.plans.lookup(db, query); err != nil {
			t.Fatal(err)
		}
	}()
	if db.PlanCacheStats().Entries != 1 {
		t.Fatal("the query was not cached")
	}
	runtime.GC()
	runtime.GC()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("the plan cache keeps the completion its query was cut from alive")
	}
	runtime.KeepAlive(db)
}
