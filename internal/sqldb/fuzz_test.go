package sqldb

import (
	"strings"
	"testing"
)

// parseSeeds is FuzzParse's seed corpus. Like every fuzz seed corpus it
// also runs through the differential contract (TestDifferentialCorpus).
var parseSeeds = []string{
	`SELECT * FROM t`,
	`SELECT "a b" FROM "t t" WHERE x = 'y''z'`,
	`SELECT COUNT(DISTINCT a), SUM(b) FROM t GROUP BY c HAVING COUNT(*) > 1`,
	`SELECT a FROM t1 JOIN t2 ON t1.x = t2.x LEFT JOIN t3 ON t2.y = t3.y`,
	`SELECT (SELECT MAX(v) FROM u) - MIN(w) FROM t ORDER BY 1 DESC LIMIT 5 OFFSET 2`,
	`SELECT CASE WHEN a BETWEEN 1 AND 2 THEN 'x' ELSE 'y' END FROM t`,
	`SELECT CAST(a AS REAL) / 0, b % 3, -c FROM t WHERE d IN (1, 2) OR e LIKE '%q%'`,
	`SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k)`,
	`SELECT 1e9, .5, 'unicode ✓'`,
	`SELECT -- comment
		 a FROM t;`,
	"SELECT `tick` FROM `t`",
	`SELECT a FROM t WHERE b IS NOT NULL AND NOT c`,
	// Nested negation: rendered naively the two minus signs meet and lex
	// as a line comment.
	`SELECT - -0`,
	`SELECT -(-2)`,
	`SELECT (1 - -2)`,
	// Shapes the verification prompt template elicits from the models
	// (see internal/prompts): percentage claims as a ratio of counting
	// subqueries, aggregates over joins, and correlated filters.
	`SELECT (SELECT COUNT(a) FROM t WHERE b = 1) * 100.0 / (SELECT COUNT(a) FROM t)`,
	`SELECT SUM(t1.b) FROM t1 JOIN t2 ON t1.k = t2.k WHERE t2.region = 'EU'`,
	`SELECT COUNT(*) FROM orders o JOIN items i ON o.id = i.order_id GROUP BY o.id HAVING SUM(i.qty) > 10`,
	`SELECT AVG(v) FROM t WHERE k IN (SELECT k FROM u WHERE u.flag = 1)`,
	`SELECT (SELECT COUNT(x) FROM t WHERE y = 'a' AND z = 'b') * 100.0 / (SELECT COUNT(x) FROM t WHERE z = 'b')`,
	`)(*&^%$#@!`,
	`SELECT`,
	``,
}

// FuzzParse drives the lexer/parser with arbitrary input; the invariant is
// "no panics, and whatever parses renders back to SQL that parses again".
// The seed corpus covers every statement shape; `go test` runs the seeds,
// `go test -fuzz=FuzzParse ./internal/sqldb` explores further.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		rendered := stmt.SQL()
		if _, err := Parse(rendered); err != nil {
			t.Fatalf("rendered SQL does not re-parse:\ninput:    %q\nrendered: %q\nerr: %v", src, rendered, err)
		}
	})
}

// querySeeds is FuzzQuery's seed corpus.
var querySeeds = []string{
	`SELECT a, SUM(b) FROM t GROUP BY a ORDER BY 2 DESC`,
	`SELECT COUNT(*) FROM t t1 JOIN t t2 ON t1.b = t2.b`,
	`SELECT b / 0, b % 0 FROM t`,
	`SELECT MAX(a) FROM t WHERE c IS NULL`,
	`SELECT DISTINCT a FROM t WHERE b BETWEEN -5 AND 5`,
	`SELECT CASE WHEN a = 'x' THEN b END FROM t LIMIT 2 OFFSET 9`,
	`SELECT CASE WHEN a IS NULL THEN -a ELSE b END FROM t`,
	`SELECT b FROM t WHERE EXISTS (SELECT 1 FROM t u WHERE u.b = t.b + 1)`,
	`SELECT COUNT(*) FROM t x JOIN t y ON x.b < y.b AND -y.a IS NULL`,
}

// FuzzQuery additionally executes parsed statements against a fixed
// database through Query, the plan cache included: the answer must be the
// row oracle's, result or error text alike, and nothing may panic.
func FuzzQuery(f *testing.F) {
	db := NewDatabase("fz")
	tab := NewTable("t", "a", "b", "c")
	tab.MustAppendRow(Text("x"), Int(1), Float(1.5))
	tab.MustAppendRow(Text("y"), Int(2), Null())
	tab.MustAppendRow(Null(), Int(3), Float(-2.5))
	db.AddTable(tab)
	for _, s := range querySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 500 || strings.Count(src, "JOIN") > 3 {
			return // bound worst-case cross products
		}
		res, err := Query(db, src)
		stmt, perr := Parse(src)
		if perr != nil {
			if err == nil || err.Error() != perr.Error() {
				t.Fatalf("Query does not answer the parser's error:\ninput: %q\nparse err: %v\nquery err: %v", src, perr, err)
			}
			return
		}
		want, wantErr := Exec(db, stmt)
		sameAnswer(t, src, "Query", want, wantErr, res, err)
	})
}

// execSeeds is FuzzParseAndExec's seed corpus, minted on fuzzFixtureDB.
var execSeeds = []string{
	`SELECT COUNT(*) FROM airlines WHERE fatal_accidents = 0`,
	`SELECT (SELECT COUNT(airline) FROM airlines WHERE region = 'EU') * 100.0 / (SELECT COUNT(airline) FROM airlines)`,
	`SELECT SUM(a.fatal_accidents) FROM airlines a JOIN regions r ON a.region = r.region WHERE r.population > 1000`,
	`SELECT airline FROM airlines WHERE region IN (SELECT region FROM regions WHERE population < 1000)`,
	`SELECT MAX(population) - MIN(population) FROM regions`,
	`SELECT r.region, COUNT(*) FROM airlines a JOIN regions r ON a.region = r.region GROUP BY r.region ORDER BY 2 DESC`,
	`SELECT airline FROM airlines a WHERE EXISTS (SELECT 1 FROM regions r WHERE r.region = a.region AND r.population > 1000)`,
	`SELECT airline, CASE WHEN region IS NULL THEN -airline END FROM airlines`,
}

// FuzzParseAndExec separates the two stages FuzzQuery fuses: whatever Parse
// accepts must execute against a small multi-table catalog without panicking,
// and the statement's rendered SQL must execute to the same rows — so the
// parse/render/execute triangle stays consistent on fuzzer-mangled inputs.
// It doubles as a differential fuzz target: every statement also runs through
// ExecVec, which must answer exactly what the row oracle answers, result or
// error text alike.
func FuzzParseAndExec(f *testing.F) {
	db := fuzzFixtureDB()
	for _, s := range execSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 500 || strings.Count(src, "JOIN") > 3 {
			return // bound worst-case cross products
		}
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		res, err := Exec(db, stmt)
		vecRes, vecErr := ExecVec(db, stmt)
		sameAnswer(t, src, "ExecVec", res, err, vecRes, vecErr)
		if err != nil {
			return // semantic rejection is fine; panics are not
		}
		rendered := stmt.SQL()
		res2, err := Query(db, rendered)
		if err != nil {
			t.Fatalf("rendered SQL fails to execute:\ninput:    %q\nrendered: %q\nerr: %v", src, rendered, err)
		}
		if res.String() != res2.String() {
			t.Fatalf("rendered SQL changes the result:\ninput:    %q\nrendered: %q\ngot:  %s\nwant: %s",
				src, rendered, res2.String(), res.String())
		}
	})
}

// FuzzPlanCacheKey attacks the plan cache's keying with pairs of
// statements, often two spellings of one statement, over one database. Each
// spelling's cached answer, result or error text, must be the answer of its
// own statement's uncached plan (ExecVec): a key that ran another
// statement's plan would show here. A re-lookup must return the entry the
// first one cached.
func FuzzPlanCacheKey(f *testing.F) {
	pairs := [][2]string{
		{`SELECT a FROM t`, `SELECT  a  FROM  t`},
		{`SELECT a FROM t`, `SELECT "a" FROM "t"`},
		{`SELECT a FROM t`, `SELECT b FROM t`},
		{`SELECT a FROM t WHERE b = 1`, `SELECT a FROM t WHERE b = 1.0`},
		{`SELECT a FROM t LIMIT 1`, `SELECT a FROM t LIMIT 1 OFFSET 0`},
		{`SELECT COUNT(*) FROM t`, `SELECT COUNT(a) FROM t`},
		{`SELECT a FROM t ORDER BY 1`, `SELECT a FROM t ORDER BY 1 DESC`},
		{`SELECT 'x'`, `SELECT 'x '`},
	}
	for _, p := range pairs {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 300 || len(b) > 300 {
			return
		}
		db := NewDatabase("fz")
		tab := NewTable("t", "a", "b", "c")
		tab.MustAppendRow(Text("x"), Int(1), Float(1.5))
		db.AddTable(tab)

		answer := func(res *Result, err error) string {
			if err != nil {
				return "error: " + err.Error()
			}
			return res.String()
		}
		for _, q := range []string{a, b, a} {
			stmt, err := Parse(q)
			var want string
			if err != nil {
				want = answer(nil, err)
			} else {
				want = answer(ExecVec(db, stmt))
			}
			if got := answer(Query(db, q)); got != want {
				t.Fatalf("cached answer to %q:\n%s\nuncached:\n%s", q, got, want)
			}
			if err != nil {
				continue // unparsable input is never cached
			}
			e1, err1 := db.cat.Load().plan(q)
			e2, err2 := db.cat.Load().plan(q)
			if err1 != nil || err2 != nil || e1 != e2 {
				t.Fatalf("re-lookup of %q returned another entry (%v, %v)", q, err1, err2)
			}
		}
	})
}
