package sqldb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// diff_test.go is the differential harness gating the vectorized executor:
// every corpus query and thousands of generated queries run through both the
// row-at-a-time oracle and the vectorized engine. The contract has two
// layers: (1) whenever the vectorized engine succeeds its result must be
// bit-identical to the row engine's (including row order — both engines share
// finishSelect); (2) the production Query path (plan cache + vectorized with
// row fallback) must always be indistinguishable from the row oracle, result
// and error text alike.

// diffDB builds the generator fixture: overlapping join keys, NULLs in every
// column role, a mixed-kind column that defeats typed vectors, integers
// beyond 2^53 that exercise the lossy float64 coercion paths, and an empty
// table for empty-group aggregates.
func diffDB() *Database {
	db := NewDatabase("diff")

	t1 := NewTable("t1", "id", "n", "f", "s", "m")
	names := []Value{Text("alpha"), Text("beta"), Text("Gamma"), Text("delta "), Null()}
	mixed := []Value{Int(7), Text("7"), Float(2.5), Bool(true), Null(), Text("zz"), Int(1 << 55)}
	for i := 0; i < 25; i++ {
		n := Value(Int(int64(i*13%101 - 50)))
		if i%7 == 3 {
			n = Null()
		}
		f := Value(Float(float64(i)*1.25 - 8))
		if i%5 == 4 {
			f = Null()
		}
		t1.MustAppendRow(Int(int64(i%7)), n, f, names[i%len(names)], mixed[i%len(mixed)])
	}
	t1.MustAppendRow(Int(9), Int(9007199254740993), Float(1e15), Text("big"), Int(9007199254740995))
	db.AddTable(t1)

	t2 := NewTable("t2", "id", "v", "tag")
	for i := 0; i < 18; i++ {
		id := Value(Int(int64(i % 9)))
		if i%8 == 6 {
			id = Null()
		}
		v := Value(Float(float64(i*i)/4 - 3))
		if i%6 == 5 {
			v = Null()
		}
		t2.MustAppendRow(id, v, Text([]string{"x", "y", "z"}[i%3]))
	}
	db.AddTable(t2)

	t3 := NewTable("t3", "k", "flag", "z")
	t3.MustAppendRow(Int(1), Bool(true), Text("p"))
	t3.MustAppendRow(Int(2), Bool(false), Text("q"))
	t3.MustAppendRow(Int(3), Bool(true), Null())
	t3.MustAppendRow(Null(), Null(), Text("r"))
	db.AddTable(t3)

	empty := NewTable("empty", "id", "w")
	db.AddTable(empty)
	return db
}

// fuzzFixtureDB rebuilds the FuzzParseAndExec catalog so the stored fuzz
// corpus queries run against the schema they were minted for.
func fuzzFixtureDB() *Database {
	db := NewDatabase("catalog")
	airlines := NewTable("airlines", "airline", "region", "fatal_accidents")
	airlines.MustAppendRow(Text("Aer Lingus"), Text("EU"), Int(0))
	airlines.MustAppendRow(Text("Malaysia Airlines"), Text("ASIA"), Int(2))
	airlines.MustAppendRow(Text("Qantas"), Null(), Int(0))
	db.AddTable(airlines)
	regions := NewTable("regions", "region", "population")
	regions.MustAppendRow(Text("EU"), Float(744.7))
	regions.MustAppendRow(Text("ASIA"), Float(4561.0))
	db.AddTable(regions)
	return db
}

func valueEq(a, b Value) bool {
	return a.Kind() == b.Kind() && a.String() == b.String()
}

func sameResult(a, b *Result) bool {
	if len(a.Cols) != len(b.Cols) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if !valueEq(a.Rows[i][j], b.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// sortedRows renders each row with kind tags and sorts, for order-normalized
// set comparison diagnostics.
func sortedRows(r *Result) []string {
	out := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		var b strings.Builder
		for _, v := range row {
			fmt.Fprintf(&b, "%d:%s|", v.Kind(), v.String())
		}
		out = append(out, b.String())
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// checkDifferential runs one query through the row oracle, the vectorized
// engine, and the production Query path, asserting the differential
// contract. It reports whether the vectorized engine handled the query
// (coverage accounting).
func checkDifferential(t *testing.T, db *Database, sql string) bool {
	t.Helper()
	stmt, perr := Parse(sql)
	before := db.PlanCacheStats()
	qRes, qErr := Query(db, sql)
	after := db.PlanCacheStats()
	if perr != nil {
		if qErr == nil {
			t.Fatalf("Query accepted a statement the parser rejects:\nsql: %q\nparse err: %v", sql, perr)
		}
		return false
	}
	rowRes, rowErr := Exec(db, stmt)
	vecRes, vecErr := ExecVec(db, stmt)

	// Layer 2: Query is indistinguishable from the row oracle.
	if rowErr != nil {
		if qErr == nil {
			t.Fatalf("Query succeeded where the row oracle errors:\nsql: %q\nrow err: %v\nquery result: %s", sql, rowErr, qRes.String())
		}
		if qErr.Error() != rowErr.Error() {
			t.Fatalf("Query error differs from the row oracle's:\nsql: %q\nrow:   %v\nquery: %v", sql, rowErr, qErr)
		}
	} else {
		if qErr != nil {
			t.Fatalf("Query errored where the row oracle succeeds:\nsql: %q\nerr: %v", sql, qErr)
		}
		if !sameResult(rowRes, qRes) {
			t.Fatalf("Query result differs from the row oracle:\nsql: %q\nrow:\n%s\nquery:\n%s", sql, rowRes.String(), qRes.String())
		}
	}

	// Layer 1: vectorized success implies bit-identical results. A
	// vectorized error is always permitted — the production path falls back
	// — but vectorized success where the row engine fails is a divergence.
	if vecErr != nil {
		return false
	}
	if rowErr != nil {
		t.Fatalf("vectorized engine succeeded where the row oracle errors:\nsql: %q\nrow err: %v\nvec result:\n%s", sql, rowErr, vecRes.String())
	}
	if !sameResult(rowRes, vecRes) {
		t.Fatalf("engines disagree:\nsql: %q\nrow:\n%s\nvec:\n%s\nrow sorted: %v\nvec sorted: %v",
			sql, rowRes.String(), vecRes.String(), sortedRows(rowRes), sortedRows(vecRes))
	}
	// A statement the vectorized engine handles must not have been answered
	// by the row engine behind Query's back.
	if after.VecRuns != before.VecRuns+1 || after.RowFallbacks != before.RowFallbacks {
		t.Fatalf("Query fell back to the row engine on a vectorizable statement:\nsql: %q\nbefore: %+v\nafter:  %+v", sql, before, after)
	}
	return true
}

// corpusQueries collects every stored query under testdata: go-fuzz corpus
// files (both seed-corpus directories and testdata/fuzz) and .sql line files.
func corpusQueries(t *testing.T) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir("testdata", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, ".sql") {
			out = append(out, sqlLines(string(raw))...)
			return nil
		}
		lines := strings.Split(string(raw), "\n")
		if len(lines) == 0 || !strings.HasPrefix(lines[0], "go test fuzz") {
			return nil
		}
		for _, line := range lines[1:] {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") || !strings.HasSuffix(line, ")") {
				continue
			}
			if s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")")); err == nil {
				out = append(out, s)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no corpus queries found under testdata")
	}
	return out
}

// sqlLines returns the queries of a .sql line file: one per line, blank
// lines and -- comment lines skipped.
func sqlLines(raw string) []string {
	var out []string
	for _, line := range strings.Split(raw, "\n") {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "--") {
			out = append(out, line)
		}
	}
	return out
}

// TestDifferentialCorpus runs every stored testdata query through both
// engines on every fixture catalog: the corpus' native schema, the generator
// fixture, and the access-path fixture whose tables are large enough to be
// probed rather than scanned (access_test.go). Each query's foreign catalogs
// exercise the error surface.
func TestDifferentialCorpus(t *testing.T) {
	queries := corpusQueries(t)
	dbs := []*Database{fuzzFixtureDB(), diffDB(), accessDB()}
	for _, db := range dbs {
		for _, q := range queries {
			checkDifferential(t, db, q)
		}
	}
	t.Logf("corpus: %d queries x %d catalogs", len(queries), len(dbs))
	for _, db := range dbs[:2] {
		requireNoAccessPaths(t, db)
	}
	requireAccessPaths(t, dbs[2])
}

// ---------------------------------------------------------------------------
// Random query generation.

type qgen struct{ rng *rand.Rand }

func (g *qgen) pick(ss ...string) string { return ss[g.rng.Intn(len(ss))] }

func (g *qgen) lit() string {
	switch g.rng.Intn(6) {
	case 0:
		return strconv.Itoa(g.rng.Intn(20) - 5)
	case 1:
		return g.pick("0.5", "-2.25", "100.0", "1.5")
	case 2:
		return g.pick("'alpha'", "'beta'", "'x'", "'7'", "''")
	case 3:
		return "NULL"
	case 4:
		return strconv.Itoa(g.rng.Intn(100))
	default:
		return g.pick("0", "1", "-1")
	}
}

func (g *qgen) col(cols []string) string { return cols[g.rng.Intn(len(cols))] }

// scalar generates a value-producing expression over the given columns.
func (g *qgen) scalar(cols []string, depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(2) == 0 {
			return g.col(cols)
		}
		return g.lit()
	}
	switch g.rng.Intn(7) {
	case 0:
		return fmt.Sprintf("(%s %s %s)", g.scalar(cols, depth-1), g.pick("+", "-", "*", "/", "%"), g.scalar(cols, depth-1))
	case 1:
		return fmt.Sprintf("%s(%s)", g.pick("ABS", "LOWER", "UPPER", "LENGTH", "TRIM"), g.scalar(cols, depth-1))
	case 2:
		return fmt.Sprintf("COALESCE(%s, %s)", g.scalar(cols, depth-1), g.lit())
	case 3:
		return fmt.Sprintf("CASE WHEN %s THEN %s ELSE %s END", g.pred(cols, depth-1), g.scalar(cols, depth-1), g.scalar(cols, depth-1))
	case 4:
		return fmt.Sprintf("CAST(%s AS %s)", g.scalar(cols, depth-1), g.pick("INTEGER", "REAL", "TEXT"))
	case 5:
		return "-" + g.col(cols)
	default:
		return fmt.Sprintf("NULLIF(%s, %s)", g.scalar(cols, depth-1), g.lit())
	}
}

// pred generates a boolean expression over the given columns.
func (g *qgen) pred(cols []string, depth int) string {
	if depth <= 0 {
		return fmt.Sprintf("(%s %s %s)", g.col(cols), g.pick("=", "<>", "<", "<=", ">", ">="), g.lit())
	}
	switch g.rng.Intn(8) {
	case 0:
		return fmt.Sprintf("(%s %s %s)", g.scalar(cols, depth-1), g.pick("=", "<>", "<", "<=", ">", ">="), g.scalar(cols, depth-1))
	case 1:
		return fmt.Sprintf("(%s AND %s)", g.pred(cols, depth-1), g.pred(cols, depth-1))
	case 2:
		return fmt.Sprintf("(%s OR %s)", g.pred(cols, depth-1), g.pred(cols, depth-1))
	case 3:
		return "NOT " + g.pred(cols, depth-1)
	case 4:
		return fmt.Sprintf("%s BETWEEN %s AND %s", g.col(cols), g.lit(), g.lit())
	case 5:
		return fmt.Sprintf("%s %sIN (%s, %s, %s)", g.col(cols), g.pick("", "NOT "), g.lit(), g.lit(), g.lit())
	case 6:
		return fmt.Sprintf("%s IS %sNULL", g.col(cols), g.pick("", "NOT "))
	default:
		return fmt.Sprintf("%s LIKE %s", g.col(cols), g.pick("'a%'", "'%e%'", "'_l%'", "'x'", "'%7%'"))
	}
}

func (g *qgen) agg(cols []string) string {
	switch g.rng.Intn(6) {
	case 0:
		return "COUNT(*)"
	case 1:
		return fmt.Sprintf("COUNT(DISTINCT %s)", g.col(cols))
	default:
		return fmt.Sprintf("%s(%s)", g.pick("COUNT", "SUM", "AVG", "MIN", "MAX"), g.scalar(cols, 1))
	}
}

func (g *qgen) tail(ncols int) string {
	var b strings.Builder
	if g.rng.Intn(3) == 0 {
		fmt.Fprintf(&b, " ORDER BY %d", 1+g.rng.Intn(ncols))
		if g.rng.Intn(2) == 0 {
			b.WriteString(" DESC")
		}
	}
	if g.rng.Intn(4) == 0 {
		fmt.Fprintf(&b, " LIMIT %d", g.rng.Intn(10))
		if g.rng.Intn(2) == 0 {
			fmt.Fprintf(&b, " OFFSET %d", g.rng.Intn(5))
		}
	}
	return b.String()
}

// query generates one complete SELECT statement against diffDB's schema.
func (g *qgen) query() string {
	t1 := []string{"id", "n", "f", "s", "m"}
	t2 := []string{"id", "v", "tag"}
	joined := []string{"a.id", "a.n", "a.f", "a.s", "b.id", "b.v", "b.tag"}

	switch g.rng.Intn(10) {
	case 0: // simple projection
		distinct := g.pick("", "DISTINCT ")
		items := []string{g.scalar(t1, 2), g.col(t1)}
		q := fmt.Sprintf("SELECT %s%s, %s FROM t1", distinct, items[0], items[1])
		if g.rng.Intn(2) == 0 {
			q += " WHERE " + g.pred(t1, 2)
		}
		return q + g.tail(2)
	case 1: // aliased projection with alias ORDER BY
		q := fmt.Sprintf("SELECT %s AS xx, %s AS yy FROM t1", g.scalar(t1, 2), g.scalar(t1, 1))
		if g.rng.Intn(2) == 0 {
			q += " WHERE " + g.pred(t1, 1)
		}
		return q + fmt.Sprintf(" ORDER BY %s%s LIMIT 12", g.pick("xx", "yy", "1", "2"), g.pick("", " DESC"))
	case 2: // equi join (hash path), pushdown candidates on both sides
		kind := g.pick("JOIN", "LEFT JOIN", "JOIN")
		q := fmt.Sprintf("SELECT a.id, b.tag, %s FROM t1 a %s t2 b ON a.id = b.id", g.scalar(joined, 1), kind)
		if g.rng.Intn(3) != 0 {
			q += " WHERE " + g.pred(joined, 2)
		}
		return q + g.tail(3)
	case 3: // non-equi ON (nested loop) or cross join
		if g.rng.Intn(2) == 0 {
			return fmt.Sprintf("SELECT COUNT(*) FROM t1 a JOIN t2 b ON %s", g.pred(joined, 1))
		}
		return "SELECT a.id, t3.k FROM t1 a CROSS JOIN t3 WHERE " + g.pred([]string{"a.id", "t3.k", "t3.flag"}, 1) + g.tail(2)
	case 4: // grouped aggregation
		key := g.col(t1)
		q := fmt.Sprintf("SELECT %s, %s FROM t1", key, g.agg(t1))
		if g.rng.Intn(2) == 0 {
			q += " WHERE " + g.pred(t1, 1)
		}
		q += " GROUP BY " + key
		if g.rng.Intn(2) == 0 {
			q += " HAVING " + fmt.Sprintf("%s %s %s", g.agg(t1), g.pick(">", "<", ">=", "="), g.lit())
		}
		return q + g.pick("", " ORDER BY 2 DESC", " ORDER BY 1")
	case 5: // global aggregate, sometimes over the empty table
		tab, cols := "t1", t1
		if g.rng.Intn(4) == 0 {
			tab, cols = "empty", []string{"id", "w"}
		}
		q := fmt.Sprintf("SELECT %s, %s FROM %s", g.agg(cols), g.agg(cols), tab)
		if g.rng.Intn(3) == 0 {
			q += " WHERE " + g.pred(cols, 1)
		}
		return q
	case 6: // IN / EXISTS subqueries (correlated and not)
		switch g.rng.Intn(3) {
		case 0:
			return fmt.Sprintf("SELECT id, n FROM t1 WHERE id %sIN (SELECT id FROM t2 WHERE %s)%s",
				g.pick("", "NOT "), g.pred(t2, 1), g.tail(2))
		case 1:
			return fmt.Sprintf("SELECT s FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE t2.id = t1.id AND %s)", g.pred(t2, 1))
		default:
			return fmt.Sprintf("SELECT id FROM t1 WHERE %s > (SELECT %s FROM t2)%s", g.col(t1), g.agg(t2), g.tail(1))
		}
	case 7: // scalar subquery in the projection
		return fmt.Sprintf("SELECT id, (SELECT %s FROM t2 WHERE %s) FROM t1 WHERE %s",
			g.agg(t2), g.pred(t2, 1), g.pred(t1, 1))
	case 8: // table-less SELECT
		return fmt.Sprintf("SELECT %s, %s", g.pick("1 + 2", "UPPER('ok')", "CASE WHEN 1 < 2 THEN 'y' ELSE 'n' END", "CAST('3' AS INTEGER)"), g.lit())
	default: // three-way join over normalized-style chains
		return fmt.Sprintf("SELECT a.id, COUNT(*) FROM t1 a JOIN t2 b ON a.id = b.id %s t3 ON %s GROUP BY a.id%s",
			g.pick("JOIN", "LEFT JOIN"), g.pick("b.id = t3.k", "t3.flag"), g.pick("", " ORDER BY 2 DESC, 1"))
	}
}

// TestDifferentialGenerated feeds >=1000 generated queries spanning every
// operator through the differential contract and requires the vectorized
// engine to actually cover a solid majority of them (guarding against the
// fallback silently swallowing the whole workload).
func TestDifferentialGenerated(t *testing.T) {
	const total = 1500
	g := &qgen{rng: rand.New(rand.NewSource(20260808))}
	db := diffDB()
	vec := 0
	for i := 0; i < total; i++ {
		q := g.query()
		if _, err := Parse(q); err != nil {
			t.Fatalf("generator produced unparsable SQL (generator bug): %q: %v", q, err)
		}
		if checkDifferential(t, db, q) {
			vec++
		}
	}
	t.Logf("generated: %d queries, vectorized coverage %d (%.1f%%)", total, vec, 100*float64(vec)/total)
	if vec < total/2 {
		t.Errorf("vectorized engine covered only %d/%d generated queries; expected a majority", vec, total)
	}
	requireNoAccessPaths(t, db)

	// The same contract past the row-count rule: lookups, unfiltered
	// aggregates and lookup joins over the access-path fixture. The first
	// query to want a path builds it (cold), every later one reads it (warm),
	// and checkDifferential holds each against the row engine.
	const totalAccess = 500
	big := accessDB()
	vec = 0
	for i := 0; i < totalAccess; i++ {
		q := g.accessQuery()
		if _, err := Parse(q); err != nil {
			t.Fatalf("generator produced unparsable SQL (generator bug): %q: %v", q, err)
		}
		if checkDifferential(t, big, q) {
			vec++
		}
	}
	t.Logf("generated over the access-path fixture: %d queries, vectorized coverage %d", totalAccess, vec)
	if vec < totalAccess*9/10 { // the rest are SUM or AVG of a text column, an error in both engines
		t.Errorf("vectorized engine covered only %d/%d access-path queries", vec, totalAccess)
	}
	requireAccessPaths(t, big)
}

// TestDifferentialCatalogChurn re-runs a query mix while tables are replaced
// between batches, verifying the Query path stays oracle-identical across
// plan-cache invalidations.
func TestDifferentialCatalogChurn(t *testing.T) {
	g := &qgen{rng: rand.New(rand.NewSource(77))}
	db := diffDB()
	for round := 0; round < 6; round++ {
		for i := 0; i < 40; i++ {
			checkDifferential(t, db, g.query())
		}
		// Replace t2 with a reshuffled copy: same schema, different rows.
		t2 := NewTable("t2", "id", "v", "tag")
		for i := 0; i < 10+round; i++ {
			t2.MustAppendRow(Int(int64((i*3+round)%8)), Float(float64(i)-float64(round)), Text([]string{"x", "q"}[i%2]))
		}
		db.AddTable(t2)
	}
}
