package sqldb

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// image_test.go covers column-resident storage: the image AddTable builds is
// bit-equal to Rows, operators never write through it, a table mutated after
// registration is served by the row engine, concurrent replacement is
// race-free, and the warm scan no longer allocates per row. The tests carry
// "Differential" or "PlanCache" in their names so `make sqldiff` selects them.

// TestDifferentialValueSize pins Value at 32 bytes. Rows, generic vectors and
// join gathers are []Value, so Value's size multiplies into the live heap of
// every workload; it is what lets a table keep both Rows and a column image
// at no more memory than Rows alone cost at 48 bytes. A new payload field
// must share the existing word, not widen the struct.
func TestDifferentialValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want <= 32", got)
	}
}

// edgeDB holds the cells the shared payload word and the typed storage kinds
// could get wrong: NaN, signed zeros, int64 extremes, bools, NULLs leading,
// trailing and filling a column, and columns that demote to generic storage.
func edgeDB() *Database {
	db := NewDatabase("edge")
	t := NewTable("edge", "i", "f", "s", "b", "mixed", "nulls", "late")
	ints := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1 << 53, 1<<53 + 1}
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	mixed := []Value{Int(1), Float(1), Text("1"), Bool(true), Null(), Float(math.NaN())}
	for r := 0; r < 40; r++ {
		i, f, s, b := Value(Int(ints[r%len(ints)])), Value(Float(floats[r%len(floats)])), Value(Text(fmt.Sprint("s", r%5))), Value(Bool(r%3 == 0))
		if r == 0 || r == 39 || r%11 == 5 {
			i, f, s, b = Null(), Null(), Null(), Null()
		}
		late := Value(Int(int64(r))) // typed for 30 rows, then demoted by one text cell
		if r == 30 {
			late = Text("x")
		}
		t.MustAppendRow(i, f, s, b, mixed[r%len(mixed)], Null(), late)
	}
	db.AddTable(t)
	db.AddTable(NewTable("none", "a", "b"))
	return db
}

// checkImages asserts that every table's image is bit-equal to its Rows.
// Value is comparable and holds float payloads as bits, so == distinguishes
// NaN payloads and signed zeros instead of hiding them.
func checkImages(t *testing.T, db *Database) {
	t.Helper()
	for _, tab := range db.Tables() {
		_, images, _ := db.snapshotTables([]string{tab.Name})
		img := images[0]
		if img == nil || img.n != len(tab.Rows) || len(img.cols) != len(tab.Columns) {
			t.Fatalf("%s.%s: image missing or misshapen: %+v", db.Name, tab.Name, img)
		}
		for c, col := range img.cols {
			if col.Len() != len(tab.Rows) {
				t.Fatalf("%s.%s.%s: image has %d values, table %d rows", db.Name, tab.Name, tab.Columns[c].Name, col.Len(), len(tab.Rows))
			}
			for i, row := range tab.Rows {
				if got := col.At(i); got != row[c] {
					t.Fatalf("%s.%s.%s row %d: image holds %#v, Rows hold %#v", db.Name, tab.Name, tab.Columns[c].Name, i, got, row[c])
				}
				if col.IsNullAt(i) != row[c].IsNull() {
					t.Fatalf("%s.%s.%s row %d: IsNullAt disagrees with Rows", db.Name, tab.Name, tab.Columns[c].Name, i)
				}
			}
		}
	}
}

func TestDifferentialImageRoundTrip(t *testing.T) {
	for _, db := range []*Database{fuzzFixtureDB(), diffDB(), edgeDB(), benchDB(4000)} {
		checkImages(t, db)
	}
	// Storage is chosen per column from its cells, not its declared type.
	_, images, _ := edgeDB().snapshotTables([]string{"edge"})
	want := []Kind{KindInt, KindFloat, KindText, KindBool, KindNull, KindNull, KindNull}
	for c, col := range images[0].cols {
		if col.kind != want[c] {
			t.Errorf("edge column %d stored as %v, want %v", c, col.kind, want[c])
		}
	}
	// A column without NULLs carries no mask.
	_, images, _ = diffDB().snapshotTables([]string{"t2"})
	if tag := images[0].cols[2]; tag.kind != KindText || tag.nulls != nil {
		t.Errorf("t2.tag: kind %v, mask %v; want unboxed text without a mask", tag.kind, tag.nulls)
	}
}

// TestDifferentialImageViewsReadOnly runs queries that filter, window,
// gather, join, group and project over image vectors, then re-checks the
// images: an operator that appended to or wrote through a shared vector
// would have corrupted them for every later query.
func TestDifferentialImageViewsReadOnly(t *testing.T) {
	dbs := []*Database{diffDB(), edgeDB(), benchDB(4000)}
	queries := [][]string{{
		`SELECT id, n + 1, s FROM t1 WHERE n > 0 AND s <> 'beta'`,
		`SELECT a.id, b.tag, a.m FROM t1 a LEFT JOIN t2 b ON a.id = b.id WHERE b.v > 0`,
		`SELECT s, COUNT(*), COUNT(m), MIN(f), SUM(n) FROM t1 GROUP BY s ORDER BY 1`,
		`SELECT m, COALESCE(n, 0) * 2 FROM t1 ORDER BY 2`,
	}, {
		`SELECT i, f, s FROM edge WHERE b = TRUE AND i > 0`,
		`SELECT a.late, b.mixed FROM edge a JOIN edge b ON a.i = b.i WHERE a.s = 's1'`,
		`SELECT s, COUNT(f), MAX(i), COUNT(late), MIN(b) FROM edge GROUP BY s`,
	}, {
		`SELECT SUM(v) FROM fact WHERE v > 100 AND k < 1000`,
		benchJoinAgg,
		`SELECT k, COUNT(*), AVG(v) FROM fact WHERE id > 1500 GROUP BY k ORDER BY 2 DESC LIMIT 5`,
	}}
	for i, db := range dbs {
		for _, q := range queries[i] {
			stmt, err := Parse(q)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			if _, err := ExecVec(db, stmt); err != nil {
				t.Fatalf("%q did not run vectorized: %v", q, err)
			}
			checkDifferential(t, db, q)
		}
		checkImages(t, db)
	}
}

// TestPlanCacheStaleImageFallback is the regression test for the stale-image
// guard. Appending to a table after AddTable breaks the registration
// contract; before the column image existed that happened to work, and with
// an unguarded image it would silently answer from the old rows. The guard
// makes the vectorized path decline (counted as a fallback) so the row engine
// answers from Rows, until the table is registered again.
func TestPlanCacheStaleImageFallback(t *testing.T) {
	db := NewDatabase("stale")
	tab := NewTable("t", "k", "v")
	for i := 0; i < 10; i++ {
		tab.MustAppendRow(Int(int64(i)), Float(float64(i)))
	}
	db.AddTable(tab)
	const q = `SELECT COUNT(*), SUM(v) FROM t WHERE k >= 5`
	query := func(want string) PlanCacheStats {
		t.Helper()
		res, err := Query(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.String(); got != want {
			t.Fatalf("got\n%s\nwant\n%s", got, want)
		}
		return db.PlanCacheStats()
	}
	const head = "COUNT(*) | SUM(\"v\")\n"
	st := query(head + "5 | 35")
	if st.VecRuns != 1 || st.RowFallbacks != 0 {
		t.Fatalf("fresh table: %+v, want one vectorized run and no fallback", st)
	}

	tab.MustAppendRow(Int(10), Float(10))
	st = query(head + "6 | 45")
	if st.VecRuns != 1 || st.RowFallbacks != 1 {
		t.Fatalf("mutated table: %+v, want the run counted as a row fallback", st)
	}
	tab.Rows = tab.Rows[:8]
	st = query(head + "3 | 18")
	if st.RowFallbacks != 2 {
		t.Fatalf("truncated table: %+v, want a second row fallback", st)
	}

	db.AddTable(tab) // the same *Table: its image must be rebuilt
	checkImages(t, db)
	st = query(head + "3 | 18")
	if st.VecRuns != 2 || st.RowFallbacks != 2 {
		t.Fatalf("re-registered table: %+v, want the vectorized engine back", st)
	}
	if st.RowOnlyPlans != 0 {
		t.Fatalf("RowOnlyPlans = %d for a vectorizable statement", st.RowOnlyPlans)
	}
	// No statement the row engine accepts is row-only today, so the one
	// row-only execution is of a statement both engines refuse.
	if _, err := Query(db, `SELECT a.k FROM t a RIGHT JOIN t b ON a.k = b.k`); err == nil {
		t.Fatal("RIGHT JOIN succeeded; pick another row-only statement")
	}
	if st = db.PlanCacheStats(); st.RowOnlyPlans != 1 || st.VecRuns != 2 || st.RowFallbacks != 2 {
		t.Fatalf("after a RIGHT JOIN: %+v, want it counted as the one row-only execution", st)
	}
}

// TestPlanCacheImageReplaceStress has 32 goroutines scan, filter, join and
// aggregate a multi-window table while another keeps replacing it through
// AddTable with one of two contents of different length. A table and its
// image are snapshotted together, so every answer must be exactly one of the
// two oracle answers. Run with -race (make sqldiff does).
func TestPlanCacheImageReplaceStress(t *testing.T) {
	build := func(n int) *Table {
		tab := NewTable("big", "k", "v", "tag")
		for i := 0; i < n; i++ {
			tab.MustAppendRow(Int(int64(i%97)), Float(float64(i%13)-3), Text(fmt.Sprint("t", i%7)))
		}
		return tab
	}
	sizes := [2]int{3 * windowRows, 2*windowRows + 17}
	queries := []string{
		`SELECT COUNT(*), SUM(v), MIN(k), MAX(tag) FROM big`,
		`SELECT COUNT(*), SUM(v) FROM big WHERE tag = 't3' AND v > 0`,
		`SELECT tag, COUNT(*), AVG(v) FROM big WHERE k < 50 GROUP BY tag ORDER BY 1`,
		`SELECT COUNT(*) FROM big a JOIN dim d ON a.k = d.k WHERE d.w = 'even'`,
	}
	db := NewDatabase("stress")
	dim := NewTable("dim", "k", "w")
	for i := 0; i < 97; i++ {
		dim.MustAppendRow(Int(int64(i)), Text([]string{"even", "odd"}[i%2]))
	}
	db.AddTable(dim)
	var want [2]map[string]string
	for side, n := range sizes {
		db.AddTable(build(n))
		want[side] = make(map[string]string)
		for _, q := range queries {
			stmt, err := Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Exec(db, stmt)
			if err != nil {
				t.Fatal(err)
			}
			want[side][q] = res.String()
		}
	}

	const readers = 32
	stop := make(chan struct{})
	var wg, writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				db.AddTable(build(sizes[i%2]))
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 40; it++ {
				q := queries[(g+it)%len(queries)]
				res, err := Query(db, q)
				if err != nil {
					t.Errorf("%q: %v", q, err)
					return
				}
				if got := res.String(); got != want[0][q] && got != want[1][q] {
					t.Errorf("%q answered from a torn table:\n%s", q, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	checkImages(t, db)
}

// allocPerQuery returns the heap bytes one warm execution of q allocates.
func allocPerQuery(t *testing.T, db *Database, q string) uint64 {
	t.Helper()
	const runs = 10
	if _, err := Query(db, q); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Query(db, q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestPlanCacheWarmAllocCeiling holds the warm path at 16k rows to a ceiling
// on the bytes per query it allocates, measured with allocPerQuery:
//
//	                        row transposition   column image   access paths
//	filtered SUM            1,639,564 B/query      4,168          1,128
//	2-table join-aggregate  3,444,355 B/query    665,173        665,203
//	lookup join                                   69,992          1,280
//
// The filtered SUM used to allocate its survivors' index list window by
// window; from the equality index it allocates the 13 matching rows and
// their gathered values. The lookup join used to allocate a 64 KB match
// table over its 16k-row side before gathering one row; the index join
// allocates the one pair. The join-aggregate matches 14k of 16k fact rows
// with both sides unfiltered, so no access path applies: what it allocates is
// its match lists, the two gathered columns later operators read, and the
// groups' row lists (about 600 KB that no storage layout removes), which is
// why it passes by a few percent rather than by a factor.
func TestPlanCacheWarmAllocCeiling(t *testing.T) {
	bench, lookup := benchDB(16000), lookupDB()
	for _, tc := range []struct {
		name, q string
		db      *Database
		ceiling uint64
	}{
		{"filtered SUM", `SELECT SUM(v) FROM fact WHERE k = 77`, bench, 2 << 10},
		{"join-aggregate", benchJoinAgg, bench, 3444355 / 5},
		{"lookup join", benchLookupJoin, lookup, 8 << 10},
	} {
		if got := allocPerQuery(t, tc.db, tc.q); got > tc.ceiling {
			t.Errorf("%s: %d B/query, ceiling %d", tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s: %d B/query (ceiling %d)", tc.name, got, tc.ceiling)
		}
	}
}
