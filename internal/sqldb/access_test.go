package sqldb

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// access_test.go covers the access paths on column images (access.go): the
// equality index, the whole-column fold memo and the joins that probe an
// image's index. They are exact replacements for a scan, so every test is a
// differential against the row engine, over a fixture whose tables are past
// the row-count rule. The tests carry "Differential", "PlanCache" or
// "ExplainQuery" in their names so `make sqldiff` selects them;
// TestDifferentialGenerated and TestDifferentialCorpus (diff_test.go) run the
// same fixture through the generator and the stored corpus.

// accessRows puts big past two scan windows.
const accessRows = 2*windowRows + 500

// accessDB builds the access-path fixture. big has a unique text key (u), a
// text key with duplicates and NULLs (k), an int key with duplicates, NULLs
// and three integers around 2^53+1 of which two share a float64 image (i), a
// float key with both signed zeros (f), the same with two NaNs (nf), a
// mixed-kind column (m), a bool (b) and the row number (v). dim is a small
// table whose keys hit, miss, repeat and are NULL; bigdim is past the rule
// itself, so a join of big and bigdim has no small side.
func accessDB() *Database {
	db := NewDatabase("access")
	big := NewTable("big", "u", "k", "i", "f", "nf", "m", "b", "v")
	mixed := []Value{Int(3), Text("5"), Float(2.5), Null(), Int(5)}
	for r := 0; r < accessRows; r++ {
		k := Value(Text(fmt.Sprintf("k%03d", r%331)))
		if r%97 == 13 {
			k = Null()
		}
		i := Value(Int(int64(r % 257)))
		switch {
		case r%89 == 7:
			i = Null()
		case r == 100 || r == 1200 || r == 2300:
			i = Int(1<<53 + int64(r/1100)) // 2^53, 2^53+1, 2^53+2
		}
		fv := float64(r%64) / 2
		if r%128 == 64 {
			fv = math.Copysign(0, -1)
		}
		f, nf := Value(Float(fv)), Value(Float(fv))
		if r%101 == 5 {
			f, nf = Null(), Null()
		}
		if r == 777 || r == 1999 {
			nf = Float(math.NaN())
		}
		big.MustAppendRow(Text(fmt.Sprintf("u%05d", r)), k, i, f, nf, mixed[r%len(mixed)], Bool(r%2 == 0), Int(int64(r)))
	}
	db.AddTable(big)

	dim := NewTable("dim", "id", "fid", "name", "tag")
	for r := 0; r < 40; r++ {
		id, fid := Value(Int(int64(r*7%50))), Value(Float(float64(r*7%50)))
		switch r {
		case 5:
			id, fid = Null(), Null()
		case 11:
			id, fid = Int(9999), Float(1.5)
		case 17:
			id, fid = Int(1<<53), Float(math.Copysign(0, -1))
		case 23:
			id = Int(0) // repeats row 0's key
		}
		dim.MustAppendRow(id, fid, Text(fmt.Sprintf("k%03d", r*3)), Text([]string{"x", "y", "z"}[r%3]))
	}
	db.AddTable(dim)

	bigdim := NewTable("bigdim", "id", "w")
	for r := 0; r < windowRows+476; r++ {
		bigdim.MustAppendRow(Int(int64(r%300)), Float(float64(r%9)/2))
	}
	db.AddTable(bigdim)
	return db
}

// accessQuery generates one statement over accessDB of the three shapes the
// access paths serve, with the literals and operand orders that tell the
// paths from the scan.
func (g *qgen) accessQuery() string {
	keys := map[string][]string{
		"k":  {"'k007'", "'k330'", "'nope'", "''", "7"},
		"u":  {"'u00000'", "'u02547'", "'u9'"},
		"i":  {"0", "13", "1.0", "1.5", "256", "-1", "9007199254740992", "9007199254740993", "'13'"},
		"f":  {"0", "-0.0", "0.5", "1", "31.5", "32"},
		"nf": {"0", "1.5"},
		"v":  {"0", "1024", "2547", "2548", "1023.0"},
		"m":  {"3", "'5'"},
	}
	cols := []string{"k", "u", "i", "f", "nf", "v", "m"}
	eq := func(prefix string) string {
		col := g.col(cols)
		lit := g.pick(keys[col]...)
		if g.rng.Intn(4) == 0 {
			return fmt.Sprintf("%s = %s%s", lit, prefix, col)
		}
		return fmt.Sprintf("%s%s = %s", prefix, col, lit)
	}
	bigCols := []string{"u", "k", "i", "f", "nf", "m", "b", "v"}
	dimCols := []string{"d.id", "d.fid", "d.name", "d.tag"}
	switch g.rng.Intn(8) {
	case 0:
		return fmt.Sprintf("SELECT v, %s FROM big WHERE %s", g.col(bigCols), eq(""))
	case 1:
		return fmt.Sprintf("SELECT COUNT(*), SUM(v), MIN(%s) FROM big WHERE %s AND %s", g.col(bigCols), eq(""), eq(""))
	case 2:
		return fmt.Sprintf("SELECT v FROM big WHERE %s AND %s", eq(""), g.pred(bigCols, 1))
	case 3, 4:
		agg := func() string {
			return fmt.Sprintf("%s(%s)", g.pick("COUNT", "SUM", "AVG", "MIN", "MAX"), g.pick("i", "f", "nf", "v", "k", "m", "b"))
		}
		q := fmt.Sprintf("SELECT %s, %s FROM big", agg(), agg())
		if g.rng.Intn(5) == 0 {
			q += " WHERE " + g.pred(bigCols, 1)
		}
		return q
	case 5: // the small side on the right of the big one
		return fmt.Sprintf("SELECT b.v, d.tag FROM big b %s dim d ON b.%s = %s WHERE %s",
			g.pick("JOIN", "JOIN", "LEFT JOIN"), g.pick("i", "f", "v", "nf", "k"), g.pick("d.id", "d.fid", "d.name"), g.pred(dimCols, 1))
	case 6: // and on the left of it
		q := fmt.Sprintf("SELECT d.id, b.v FROM dim d %s big b ON %s = b.%s",
			g.pick("JOIN", "LEFT JOIN"), g.pick("d.id", "d.fid", "d.name"), g.pick("i", "f", "v", "nf", "k"))
		if g.rng.Intn(2) == 0 {
			q += " WHERE " + g.pred(dimCols, 1)
		}
		return q
	default: // a lookup on one big table joined to another
		return fmt.Sprintf("SELECT b.v, e.w FROM big b JOIN bigdim e ON b.%s = e.id WHERE %s", g.pick("v", "i"), eq("b."))
	}
}

// requireAccessPaths asserts that a run over accessDB took all three paths
// and built no index twice.
func requireAccessPaths(t *testing.T, db *Database) {
	t.Helper()
	st := db.PlanCacheStats()
	if st.IndexProbes == 0 || st.FoldHits == 0 || st.IndexJoins == 0 {
		t.Errorf("%s: an access path was never taken: %+v", db.Name, st)
	}
	columns := 0
	for _, tab := range db.Tables() {
		columns += len(tab.Columns)
	}
	if st.IndexBuilds == 0 || st.IndexBuilds > uint64(columns) {
		t.Errorf("%s: %d indexes built over %d columns", db.Name, st.IndexBuilds, columns)
	}
}

// requireNoAccessPaths asserts the other side of the row-count rule: a
// catalog of tables within one scan window only ever scans.
func requireNoAccessPaths(t *testing.T, db *Database) {
	t.Helper()
	if st := db.PlanCacheStats(); st.IndexBuilds+st.IndexProbes+st.FoldHits+st.IndexJoins != 0 {
		t.Errorf("%s: access paths taken on tables of at most %d rows: %+v", db.Name, windowRows, st)
	}
}

func accessCorpus(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile("testdata/accessqueries.sql")
	if err != nil {
		t.Fatal(err)
	}
	return sqlLines(string(raw))
}

// TestDifferentialAccessPathsColdWarm runs every access-corpus query on a
// catalog nothing has queried yet, so the query itself builds whatever path it
// takes, then again warm, and requires both answers and the vectorized
// engine's to be the row engine's.
func TestDifferentialAccessPathsColdWarm(t *testing.T) {
	for _, q := range accessCorpus(t) {
		db := accessDB()
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		want, err := Exec(db, stmt)
		if err != nil {
			t.Fatalf("%q: row engine: %v", q, err)
		}
		for _, pass := range []string{"cold", "warm"} {
			got, err := Query(db, q)
			if err != nil {
				t.Fatalf("%s %q: %v", pass, q, err)
			}
			if !sameResult(want, got) {
				t.Fatalf("%s %q:\nrow:\n%s\nquery:\n%s", pass, q, want.String(), got.String())
			}
		}
		checkDifferential(t, db, q)
	}
}

// TestDifferentialAccessPathsTaken pins which path each shape takes, by the
// counters: a differential that passed because everything quietly scanned
// would prove nothing about the paths.
func TestDifferentialAccessPathsTaken(t *testing.T) {
	type delta struct{ builds, probes, folds, joins uint64 }
	for _, tc := range []struct {
		q          string
		cold, warm delta
	}{
		{`SELECT v FROM big WHERE k = 'k007'`, delta{1, 1, 0, 0}, delta{0, 1, 0, 0}},
		{`SELECT v FROM big WHERE 'k013' = k AND i = 13`, delta{2, 2, 0, 0}, delta{0, 2, 0, 0}},
		{`SELECT v FROM big WHERE k = 'k013' AND b = TRUE`, delta{1, 1, 0, 0}, delta{0, 1, 0, 0}},
		// A NaN-bearing column, a mixed one and text against a number scan.
		{`SELECT v FROM big WHERE nf = 1.5`, delta{}, delta{}},
		{`SELECT COUNT(*) FROM big WHERE m = 3`, delta{}, delta{}},
		{`SELECT COUNT(*) FROM big WHERE k = 7`, delta{}, delta{}},
		// The first unfiltered aggregate of a column folds it, later ones hit.
		{`SELECT MIN(f), MAX(f) FROM big`, delta{0, 0, 1, 0}, delta{0, 0, 2, 0}},
		{`SELECT SUM(i) FROM big WHERE v >= 0`, delta{0, 0, 0, 0}, delta{0, 0, 1, 0}},
		{`SELECT SUM(i) FROM big WHERE v >= 1`, delta{}, delta{}},
		{`SELECT COUNT(k), COUNT(i) FROM big`, delta{}, delta{}},
		// Each half of a percentage or a spread is a statement of its own.
		{`SELECT (SELECT COUNT(u) FROM big WHERE k = 'k007') * 100.0 / (SELECT COUNT(u) FROM big)`, delta{1, 1, 0, 0}, delta{0, 1, 0, 0}},
		{`SELECT (SELECT MAX(f) FROM big) - (SELECT MIN(f) FROM big)`, delta{0, 0, 1, 0}, delta{0, 0, 2, 0}},
		// A subquery in WHERE could raise an error, so nothing beside it is
		// pushed down or probed; the subquery itself still folds.
		{`SELECT v FROM big WHERE i = (SELECT MAX(id) FROM bigdim) AND k = 'k299'`, delta{}, delta{0, 0, 1, 0}},
		// A whole right image column is probed through its own index, whatever
		// the left side is: small, filtered, big, or padded by a LEFT join.
		{`SELECT b.v FROM dim d LEFT JOIN big b ON d.fid = b.i`, delta{1, 0, 0, 1}, delta{0, 0, 0, 1}},
		{`SELECT b.v, e.w FROM big b JOIN bigdim e ON b.v = e.id WHERE b.u = 'u00077'`, delta{2, 1, 0, 1}, delta{0, 1, 0, 1}},
		{`SELECT COUNT(*) FROM big b JOIN bigdim e ON b.i = e.id`, delta{1, 0, 0, 1}, delta{0, 0, 0, 1}},
		{`SELECT b.v, e.w FROM big b LEFT JOIN bigdim e ON b.i = e.id`, delta{1, 0, 0, 1}, delta{0, 0, 0, 1}},
		// An INNER join walks a small right side through the left side's index.
		{`SELECT b.v FROM big b JOIN dim d ON b.i = d.id WHERE d.tag = 'x'`, delta{1, 0, 0, 1}, delta{0, 0, 0, 1}},
		// Every other join indexes its right side for the query alone: LEFT
		// padding of the big side, more matches than a walk is worth, a
		// filtered right side past a scan window, and (by joinKey string)
		// NaN-bearing and text keys.
		{`SELECT b.v FROM big b LEFT JOIN dim d ON b.i = d.id WHERE d.tag = 'x'`, delta{}, delta{}},
		{`SELECT b.v FROM big b JOIN dim d ON b.i = d.id`, delta{1, 0, 0, 0}, delta{}},
		{`SELECT b.v FROM big b JOIN bigdim e ON b.i = e.id WHERE e.w >= 0.5`, delta{}, delta{}},
		{`SELECT b.v FROM dim d JOIN big b ON d.id = b.nf`, delta{}, delta{}},
		{`SELECT b.v FROM dim d JOIN big b ON d.name = b.k`, delta{}, delta{}},
	} {
		db := accessDB()
		var last PlanCacheStats
		for pass, want := range []delta{tc.cold, tc.warm} {
			if _, err := Query(db, tc.q); err != nil {
				t.Fatalf("%q: %v", tc.q, err)
			}
			st := db.PlanCacheStats()
			got := delta{st.IndexBuilds - last.IndexBuilds, st.IndexProbes - last.IndexProbes, st.FoldHits - last.FoldHits, st.IndexJoins - last.IndexJoins}
			if got != want {
				t.Errorf("%q pass %d: builds/probes/fold hits/index joins %+v, want %+v", tc.q, pass, got, want)
			}
			last = st
		}
	}
}

// TestDifferentialAccessPathsNaNLiteral builds the one literal SQL text
// cannot spell. NaN compares equal to every number (Value.Compare), so
// "col = NaN" selects every non-NULL row: it must scan, in either operand
// order, and agree with the row engine.
func TestDifferentialAccessPathsNaNLiteral(t *testing.T) {
	db := accessDB()
	for _, q := range []string{`SELECT v FROM big WHERE f = 1`, `SELECT v FROM big WHERE 1 = i`} {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		be := stmt.Where.(*BinaryExpr)
		for _, side := range []Expr{be.Left, be.Right} {
			if le, ok := side.(*LiteralExpr); ok {
				le.Val = Float(math.NaN())
			}
		}
		want, err := Exec(db, stmt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExecVec(db, stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt.SQL(), err)
		}
		if !sameResult(want, got) || len(got.Rows) < accessRows/2 {
			t.Fatalf("%s: row engine %d rows, vectorized %d", stmt.SQL(), len(want.Rows), len(got.Rows))
		}
	}
	requireNoAccessPaths(t, db)
}

// TestPlanCacheAccessPathsFirstProbe has 32 goroutines take every path of one
// cold image at the same moment. Whichever goroutine builds a path, all of
// them must read the same one: one set of answers, the row engine's, and as
// many index builds as a single goroutine running the same queries causes.
// Run with -race (make sqldiff does), which is what would see a path
// published before it was complete.
func TestPlanCacheAccessPathsFirstProbe(t *testing.T) {
	queries := []string{
		`SELECT v, u FROM big WHERE k = 'k007'`,
		`SELECT v FROM big WHERE k = 'k013' AND i = 13`,
		`SELECT COUNT(i), SUM(i), MIN(f), MAX(f), AVG(v) FROM big`,
		`SELECT b.v, d.tag FROM big b JOIN dim d ON b.i = d.id WHERE d.tag = 'x'`,
		`SELECT d.id, b.v FROM dim d LEFT JOIN big b ON d.fid = b.f`,
		`SELECT b.v, e.w FROM big b JOIN bigdim e ON b.v = e.id WHERE b.u = 'u00077'`,
		`SELECT COUNT(*), SUM(e.w) FROM big b JOIN bigdim e ON b.i = e.id`,
	}
	alone := accessDB()
	want := make([]string, len(queries))
	for i, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Exec(alone, stmt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.String()
		if _, err := Query(alone, q); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 32
	db := accessDB()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := range queries {
				i := (g + k) % len(queries)
				res, err := Query(db, queries[i])
				if err != nil {
					t.Errorf("%q: %v", queries[i], err)
					return
				}
				if got := res.String(); got != want[i] {
					t.Errorf("%q answered from a half-built path:\n%s\nwant\n%s", queries[i], got, want[i])
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	st, one := db.PlanCacheStats(), alone.PlanCacheStats()
	if st.IndexBuilds != one.IndexBuilds || one.IndexBuilds == 0 {
		t.Errorf("%d goroutines built %d indexes, one goroutine %d", goroutines, st.IndexBuilds, one.IndexBuilds)
	}
}

// TestPlanCacheAccessPathsReRegistration checks that a path never outlives
// the rows it was built from. AddTable of changed rows publishes a new image
// with no paths, so the next query answers from the new rows; a table whose
// Rows grew after registration has a stale image, which the next query
// rebuilds from the live rows, with paths of its own, without consulting the
// index built before it grew.
func TestPlanCacheAccessPathsReRegistration(t *testing.T) {
	build := func(shift int) *Table {
		tab := NewTable("t", "k", "v")
		for r := 0; r < accessRows; r++ {
			tab.MustAppendRow(Text("k"+strconv.Itoa(r%500)), Int(int64(r+shift)))
		}
		return tab
	}
	db := NewDatabase("rereg")
	tab := build(0)
	db.AddTable(tab)
	const lookup, fold = `SELECT SUM(v), COUNT(*) FROM t WHERE k = 'k7'`, `SELECT MAX(v), SUM(v) FROM t`
	answers := func(wantLookup, wantFold string) PlanCacheStats {
		t.Helper()
		for q, want := range map[string]string{lookup: wantLookup, fold: wantFold} {
			for pass := 0; pass < 2; pass++ {
				res, err := Query(db, q)
				if err != nil {
					t.Fatal(err)
				}
				if got := res.String(); !strings.HasSuffix(got, "\n"+want) {
					t.Fatalf("%q pass %d: got\n%s\nwant %s", q, pass, got, want)
				}
			}
		}
		return db.PlanCacheStats()
	}
	// k7 sits in rows 7, 507, ..., 2507.
	st := answers("7542 | 6", "2547 | 3244878")
	if st.IndexBuilds != 1 || st.IndexProbes != 2 || st.FoldHits != 3 {
		t.Fatalf("first registration: %+v", st)
	}

	db.AddTable(build(10)) // same keys, every v ten higher
	st = answers("7602 | 6", "2557 | 3270358")
	if st.IndexBuilds != 2 || st.IndexProbes != 4 || st.FoldHits != 6 {
		t.Fatalf("re-registered with changed rows: %+v, want a second index and fold over the new image", st)
	}

	grown := db.Table("t")
	grown.MustAppendRow(Text("k7"), Int(1_000_000))
	st = answers("1007602 | 7", "1000000 | 4270358")
	if st.IndexBuilds != 3 || st.IndexProbes != 6 || st.FoldHits != 9 {
		t.Fatalf("grown after registration: %+v, want a third index and fold over the rebuilt image", st)
	}

	db.AddTable(grown)
	st = answers("1007602 | 7", "1000000 | 4270358")
	if st.IndexBuilds != 4 || st.IndexProbes != 8 || st.FoldHits != 12 {
		t.Fatalf("registered again: %+v, want the paths back over the new image", st)
	}
}

// TestExplainQueryAccessPaths pins the access-path part of the explain
// surface: how many pushed conjuncts of each scan an equality index can
// answer, and which side's index each hash join may walk.
func TestExplainQueryAccessPaths(t *testing.T) {
	db := accessDB()
	for _, c := range []struct {
		sql  string
		want []string
	}{
		{`SELECT v FROM big WHERE k = 'k007'`, []string{"scan big pushed=1 eq=1\n"}},
		{`SELECT v FROM big WHERE 'k007' = k AND i = 1.5 AND b = TRUE AND v > 3`, []string{"scan big pushed=4 eq=2\n"}},
		{`SELECT v FROM big WHERE k = NULL AND k = u AND k <> 'x'`, []string{"scan big pushed=3 eq=0\n"}},
		{`SELECT MAX(f) FROM big`, []string{"scan big pushed=0 eq=0\n"}},
		{`SELECT b.v FROM big b JOIN dim d ON b.i = d.id WHERE d.tag = 'x'`,
			[]string{"scan big pushed=0 eq=0\n", "inner join (hash) dim pushed=1 eq=1 index-join=left\n"}},
		{`SELECT b.v FROM dim d LEFT JOIN big b ON d.id = b.i WHERE d.tag = 'x'`,
			[]string{"scan dim pushed=1 eq=1\n", "left join (hash) big pushed=0 eq=0 index-join=right\n"}},
		{`SELECT b.v FROM big b LEFT JOIN dim d ON b.i = d.id`, []string{"left join (hash) dim pushed=0 eq=0 index-join=right\n"}},
		{`SELECT b.v FROM big b JOIN dim d ON b.i = d.id`, []string{"inner join (hash) dim pushed=0 eq=0 index-join=left,right\n"}},
		{`SELECT b.v FROM big b JOIN dim d ON b.i = d.id WHERE b.k = 'k1' AND d.tag = 'x'`, []string{"inner join (hash) dim pushed=1 eq=1\n"}},
		{`SELECT b.v FROM big b JOIN dim d ON b.i > d.id`, []string{"inner join (nested-loop) dim pushed=0 eq=0\n"}},
		{`SELECT b.v FROM big b JOIN dim d ON b.i = d.id JOIN bigdim e ON d.id = e.id`,
			[]string{"inner join (hash) dim pushed=0 eq=0 index-join=left,right\n", "inner join (hash) bigdim pushed=0 eq=0 index-join=right\n"}},
	} {
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
