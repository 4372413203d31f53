package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// image_test.go covers column-resident storage: a table's vectors read back
// exactly the cells appended, operators never write through them, a
// registered table is frozen, one table may be registered in several
// databases, concurrent replacement is race-free, the warm scan no longer
// allocates per row, and a big table's storage stays under a ceiling. The
// tests carry "Differential" or "PlanCache" in their names so `make sqldiff`
// selects them.

// TestDifferentialValueSize pins Value at 32 bytes. Generic vectors, join
// gathers and result rows are []Value, so Value's size multiplies into the
// live heap of a mixed column and of every query's output. A new payload
// field must share the existing word, not widen the struct.
func TestDifferentialValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want <= 32", got)
	}
}

// edgeRows are the cells the shared payload word and the typed storage kinds
// could get wrong: NaN, signed zeros, int64 extremes, bools, NULLs leading,
// trailing and filling a column, and columns that demote to generic storage.
func edgeRows() [][]Value {
	var rows [][]Value
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
		rows = append(rows, []Value{i, f, s, b, mixed[r%len(mixed)], Null(), late})
	}
	return rows
}

// edgeDB registers edgeRows as table edge, beside an empty table.
func edgeDB() *Database {
	db := NewDatabase("edge")
	t := NewTable("edge", "i", "f", "s", "b", "mixed", "nulls", "late")
	for _, row := range edgeRows() {
		t.MustAppendRow(row...)
	}
	db.AddTable(t)
	db.AddTable(NewTable("none", "a", "b"))
	return db
}

// imageOf returns the column image the catalog holds for the named table.
func imageOf(db *Database, name string) *tableImage {
	return db.cat.Load().images[strings.ToLower(name)]
}

// checkImages asserts that every table's image has the table's shape and is
// bit-equal to its cells. Value is comparable and holds float payloads as
// bits, so == distinguishes NaN payloads and signed zeros instead of hiding
// them.
func checkImages(t *testing.T, db *Database) {
	t.Helper()
	for _, tab := range db.Tables() {
		img := imageOf(db, tab.Name)
		cols := tab.Schema()
		if img == nil || img.n != tab.NumRows() || len(img.cols) != len(cols) {
			t.Fatalf("%s.%s: image missing or misshapen: %+v", db.Name, tab.Name, img)
		}
		for c, col := range img.cols {
			if col.Len() != tab.NumRows() {
				t.Fatalf("%s.%s.%s: image has %d values, table %d rows", db.Name, tab.Name, cols[c].Name, col.Len(), tab.NumRows())
			}
			for i := 0; i < tab.NumRows(); i++ {
				cell := tab.Cell(i, c)
				if got := col.At(i); got != cell {
					t.Fatalf("%s.%s.%s row %d: image holds %#v, table %#v", db.Name, tab.Name, cols[c].Name, i, got, cell)
				}
				if col.IsNullAt(i) != cell.IsNull() {
					t.Fatalf("%s.%s.%s row %d: IsNullAt disagrees with the cell", db.Name, tab.Name, cols[c].Name, i)
				}
			}
		}
	}
}

// dbRows copies every table's cells, so a later read can tell whether
// anything wrote through the shared vectors.
func dbRows(db *Database) map[string][][]Value {
	out := make(map[string][][]Value)
	for _, tab := range db.Tables() {
		out[tab.Name] = tableRows(tab)
	}
	return out
}

func TestDifferentialImageRoundTrip(t *testing.T) {
	for _, db := range []*Database{fuzzFixtureDB(), diffDB(), edgeDB(), benchDB(4000)} {
		checkImages(t, db)
	}
	// The vectors read back exactly the cells appended, and freezing clipped
	// each one, so an append through a view reallocates.
	edge := edgeDB()
	if got, want := tableRows(edge.Table("edge")), edgeRows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("edge reads back\n%#v\nwant\n%#v", got, want)
	}
	for c, col := range imageOf(edge, "edge").cols {
		if cap(col.ints) != len(col.ints) || cap(col.floats) != len(col.floats) || cap(col.strs) != len(col.strs) ||
			cap(col.bools) != len(col.bools) || cap(col.nulls) != len(col.nulls) || cap(col.any) != len(col.any) {
			t.Errorf("edge column %d keeps append slack", c)
		}
	}
	// Storage is chosen per column from its cells, not its declared type.
	images := []*tableImage{imageOf(edge, "edge")}
	want := []Kind{KindInt, KindFloat, KindText, KindBool, KindNull, KindNull, KindNull}
	for c, col := range images[0].cols {
		if col.kind != want[c] {
			t.Errorf("edge column %d stored as %v, want %v", c, col.kind, want[c])
		}
	}
	// A column without NULLs carries no mask.
	images = []*tableImage{imageOf(diffDB(), "t2")}
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
		before := dbRows(db)
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
		if !reflect.DeepEqual(dbRows(db), before) {
			t.Fatalf("%s: a query wrote through a table's vectors", db.Name)
		}
	}
}

// TestPlanCacheRegisteredTableFrozen checks that registration freezes a
// table: AppendRow on a registered table fails (MustAppendRow panics), the
// failed append changes neither the table nor any answer, and registering the
// same *Table again serves the same rows over a fresh image.
func TestPlanCacheRegisteredTableFrozen(t *testing.T) {
	db := NewDatabase("frozen")
	tab := NewTable("t", "k", "v")
	for i := 0; i < 10; i++ {
		tab.MustAppendRow(Int(int64(i)), Float(float64(i)))
	}
	db.AddTable(tab)
	const q = `SELECT COUNT(*), SUM(v) FROM t WHERE k >= 5`
	const want = "COUNT(*) | SUM(\"v\")\n5 | 35"
	query := func() {
		t.Helper()
		res, err := Query(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.String(); got != want {
			t.Fatalf("got\n%s\nwant\n%s", got, want)
		}
	}
	query()
	if err := tab.AppendRow(Int(10), Float(10)); err == nil {
		t.Fatal("AppendRow on a registered table succeeded")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MustAppendRow on a registered table did not panic")
			}
		}()
		tab.MustAppendRow(Int(11), Float(11))
	}()
	if tab.NumRows() != 10 {
		t.Fatalf("a refused append left %d rows, want 10", tab.NumRows())
	}
	query()
	checkImages(t, db)
	db.AddTable(tab)
	checkImages(t, db)
	query()
	if st := db.PlanCacheStats(); st.VecRuns != 3 {
		t.Fatalf("%+v, want three runs", st)
	}
}

// TestPlanCacheFrozenSchema checks that registration freezes a table's
// column list with its cells. A column appended to Columns afterwards used to
// make the next SELECT * panic past the image's columns, and a Column.Type
// edited in place changed Schema() with no plan or memo invalidated. Neither
// edit may move an answer, Schema(), the table's schema or a column lookup,
// cached or recompiled, nor survive registering the table again.
func TestPlanCacheFrozenSchema(t *testing.T) {
	db := NewDatabase("frozen")
	tab := NewTable("t", "k")
	for i := 0; i < 3; i++ {
		tab.MustAppendRow(Int(int64(i)))
	}
	db.AddTable(tab)
	queries := []string{
		`SELECT * FROM t`,
		`SELECT t.*, k + 1 FROM t ORDER BY 1 DESC`,
		`SELECT k, COUNT(*) FROM t GROUP BY k`,
		`SELECT * FROM t a JOIN t b ON a.k = b.k`,
		`SELECT * FROM t a LEFT JOIN t b ON a.k < b.k`,
	}
	answers := func() []string {
		t.Helper()
		var out []string
		for _, q := range queries {
			res, err := Query(db, q)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			out = append(out, res.String())
		}
		return out
	}
	want, schema := answers(), db.Schema()
	tab.Columns = append(tab.Columns, Column{Name: "extra", Type: KindInt})
	tab.Columns[0].Type = KindText
	check := func(pass string) {
		t.Helper()
		if got := answers(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: answers moved:\n%q\nwant\n%q", pass, got, want)
		}
		if got := db.Schema(); got != schema {
			t.Errorf("%s: Schema() = %q, want %q", pass, got, schema)
		}
		if got := tab.Schema(); !reflect.DeepEqual(got, []Column{{Name: "k", Type: KindInt}}) {
			t.Errorf("%s: table schema %+v", pass, got)
		}
		if tab.ColumnIndex("extra") != -1 || !reflect.DeepEqual(tab.ColumnNames(), []string{"k"}) {
			t.Errorf("%s: the appended column is visible: %v", pass, tab.ColumnNames())
		}
	}
	check("cached")
	db.InvalidatePlans()
	check("recompiled")
	db.AddTable(tab)
	check("registered again")
	checkImages(t, db)
}

// TestPlanCacheImageReplaceStress has 32 goroutines scan, filter, join and
// aggregate a multi-window table while another keeps replacing it through
// AddTable with one of two contents of different length. A statement reads
// the one catalog it loaded, its subqueries included, so every answer must be
// exactly one of the two oracle answers. Run with -race (make sqldiff does).
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
	// Statements whose outer scan and subquery both read big. Each tells a
	// mix of the two contents from either: run with the outer scan over one
	// and the subquery over the other, it answers neither oracle answer.
	mixes := []string{
		`SELECT COUNT(*), (SELECT AVG(v) FROM %[2]s) AS m FROM %[1]s WHERE k = 5 AND v > (SELECT AVG(v) FROM %[2]s)`,
		`SELECT COUNT(*) FROM %[1]s a WHERE a.k = 5 AND EXISTS (SELECT 1 FROM %[2]s b WHERE b.k = a.k AND b.v = a.v AND b.tag <> a.tag)`,
	}
	for _, m := range mixes {
		queries = append(queries, fmt.Sprintf(m, "big", "big"))
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
	mix := NewDatabase("mix")
	for side, n := range sizes {
		tab := build(n)
		tab.Name = fmt.Sprint("big", side)
		mix.AddTable(tab)
	}
	for _, m := range mixes {
		q := fmt.Sprintf(m, "big", "big")
		for _, pair := range [][2]string{{"big0", "big1"}, {"big1", "big0"}} {
			stmt, err := Parse(fmt.Sprintf(m, pair[0], pair[1]))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Exec(mix, stmt)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.String(); got == want[0][q] || got == want[1][q] {
				t.Fatalf("%q over %s and %s answers an oracle answer, so a mix would go unseen:\n%s", q, pair[0], pair[1], got)
			}
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
//	                        row transposition   column image   access paths   one join index   row lists
//	filtered SUM            1,639,564 B/query      4,168          1,128            160             160
//	2-table join-aggregate  3,444,355 B/query    665,173        665,203        605,184         293,689
//	lookup join                                   69,992          1,280          1,008             496
//	1,000 x 1,000 cross join COUNT(*)                                       46,315,236       8,012,089
//
// The filtered SUM used to allocate its survivors' index list window by
// window; from the equality index it allocates the 13 matching rows. The
// lookup join used to allocate a 64 KB match table over its 16k-row side
// before gathering one row; the index join allocates the one pair, and the
// item reads its cell through the pair's lists. The join-aggregate matches
// 14k of 16k fact rows against the whole dim.k column, whose cached index it
// probes; it allocates its match lists, which are the joined batch's row
// lists, and the groups' row lists, and gathers nothing: the GROUP BY key and
// SUM's argument read the images through the lists. A cross join's COUNT(*)
// allocates its two match lists, 8 B a pair, where gathering and growing
// them cost 46 B. Each ceiling is at most 1.25 times the last column.
func TestPlanCacheWarmAllocCeiling(t *testing.T) {
	bench, lookup := benchDB(16000), lookupDB()
	for _, tc := range []struct {
		name, q string
		db      *Database
		ceiling uint64
	}{
		{"filtered SUM", `SELECT SUM(v) FROM fact WHERE k = 77`, bench, 2 << 10},
		{"join-aggregate", benchJoinAgg, bench, 360_000},
		{"lookup join", benchLookupJoin, lookup, 8 << 10},
		{"cross join COUNT(*)", `SELECT COUNT(*) FROM fact a CROSS JOIN fact b`, benchDB(1000), 10_000_000},
	} {
		if got := allocPerQuery(t, tc.db, tc.q); got > tc.ceiling {
			t.Errorf("%s: %d B/query, ceiling %d", tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s: %d B/query (ceiling %d)", tc.name, got, tc.ceiling)
		}
	}
}

// TestPlanCacheGrowAllocatesOnce checks that a table told its size by Grow
// allocates each column's storage once: filling 4,096 rows of an int and a
// text column costs the table, its column lists and the two vectors with
// their arrays: 8 allocations (9 under -race), where growing the arrays row
// by row costs 37.
func TestPlanCacheGrowAllocatesOnce(t *testing.T) {
	fill := func(grow bool) float64 {
		return testing.AllocsPerRun(5, func() {
			tab := NewTable("t", "i", "s")
			if grow {
				tab.Grow(4096)
			}
			for r := range 4096 {
				tab.MustAppendRow(Int(int64(r)), Text("x"))
			}
		})
	}
	if with, without := fill(true), fill(false); with > 10 {
		t.Errorf("filling after Grow made %v allocations (%v without Grow), want at most 10", with, without)
	} else {
		t.Logf("%v allocations after Grow, %v without", with, without)
	}
}

// bigSalesDB registers a table shaped like the lib-bigtable benchmark's: an
// entity key, a six-way text column, an int, a two-decimal float, a bool and
// an ISO date per row, drawn from a seeded source.
func bigSalesDB(rows int) *Database {
	rng := rand.New(rand.NewSource(1))
	teams := []string{"north", "south", "east", "west", "central", "coastal"}
	tab := NewTable("sales", "name", "team", "units", "revenue", "discounted", "day")
	tab.Grow(rows)
	for i := 0; i < rows; i++ {
		tab.MustAppendRow(Text(fmt.Sprintf("acct-%05d", i)), Text(teams[rng.Intn(len(teams))]),
			Int(int64(rng.Intn(500))), Float(float64(rng.Intn(1_000_000))/100), Bool(rng.Intn(2) == 1),
			Text(fmt.Sprintf("2024-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))))
	}
	db := NewDatabase("sales")
	db.AddTable(tab)
	return db
}

// TestPlanCacheTableStorageCeiling holds what a registered 16,000 × 6 table
// keeps on the heap, cells' text included, to a ceiling. Measured after two
// GCs on linux/amd64:
//
//	boxed rows and a column image beside them   5,077,520 B
//	the columns alone, filled after Grow        1,579,568 B
//
// The ceiling is 1.23 × the columns' figure: rows kept beside the image
// again, or the cells copied into a separate image, would break it.
func TestPlanCacheTableStorageCeiling(t *testing.T) {
	const ceiling = 1_950_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	db := bigSalesDB(16000)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(db)
	if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); held > ceiling {
		t.Errorf("a registered 16,000-row table holds %d bytes, ceiling %d", held, ceiling)
	} else {
		t.Logf("a registered 16,000-row table holds %d bytes (ceiling %d)", held, ceiling)
	}
}
