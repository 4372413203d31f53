package sqldb

import (
	"strings"
	"testing"
)

// FuzzParse drives the lexer/parser with arbitrary input; the invariant is
// "no panics, and whatever parses renders back to SQL that parses again".
// The seed corpus covers every statement shape; `go test` runs the seeds,
// `go test -fuzz=FuzzParse ./internal/sqldb` explores further.
func FuzzParse(f *testing.F) {
	seeds := []string{
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
	for _, s := range seeds {
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

// FuzzQuery additionally executes parsed statements against a fixed
// database; the invariant is "no panics" regardless of query semantics.
func FuzzQuery(f *testing.F) {
	db := NewDatabase("fz")
	tab := NewTable("t", "a", "b", "c")
	tab.MustAppendRow(Text("x"), Int(1), Float(1.5))
	tab.MustAppendRow(Text("y"), Int(2), Null())
	tab.MustAppendRow(Null(), Int(3), Float(-2.5))
	db.AddTable(tab)
	seeds := []string{
		`SELECT a, SUM(b) FROM t GROUP BY a ORDER BY 2 DESC`,
		`SELECT COUNT(*) FROM t t1 JOIN t t2 ON t1.b = t2.b`,
		`SELECT b / 0, b % 0 FROM t`,
		`SELECT MAX(a) FROM t WHERE c IS NULL`,
		`SELECT DISTINCT a FROM t WHERE b BETWEEN -5 AND 5`,
		`SELECT CASE WHEN a = 'x' THEN b END FROM t LIMIT 2 OFFSET 9`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 500 || strings.Count(src, "JOIN") > 3 {
			return // bound worst-case cross products
		}
		res, err := Query(db, src)
		if err != nil {
			return
		}
		_ = res.String()
	})
}

// FuzzParseAndExec separates the two stages FuzzQuery fuses: whatever Parse
// accepts must execute against a small multi-table catalog without panicking,
// and the statement's rendered SQL must execute to the same rows — so the
// parse/render/execute triangle stays consistent on fuzzer-mangled inputs.
// It doubles as a differential fuzz target: every statement also runs through
// the vectorized engine, which must never succeed where the row oracle fails
// and must agree bit-for-bit when both succeed.
func FuzzParseAndExec(f *testing.F) {
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

	seeds := []string{
		`SELECT COUNT(*) FROM airlines WHERE fatal_accidents = 0`,
		`SELECT (SELECT COUNT(airline) FROM airlines WHERE region = 'EU') * 100.0 / (SELECT COUNT(airline) FROM airlines)`,
		`SELECT SUM(a.fatal_accidents) FROM airlines a JOIN regions r ON a.region = r.region WHERE r.population > 1000`,
		`SELECT airline FROM airlines WHERE region IN (SELECT region FROM regions WHERE population < 1000)`,
		`SELECT MAX(population) - MIN(population) FROM regions`,
		`SELECT r.region, COUNT(*) FROM airlines a JOIN regions r ON a.region = r.region GROUP BY r.region ORDER BY 2 DESC`,
	}
	for _, s := range seeds {
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
		if err != nil {
			if vecErr == nil {
				t.Fatalf("vectorized engine succeeded where the row oracle fails:\ninput: %q\nrow err: %v\nvec: %s", src, err, vecRes.String())
			}
			return // semantic rejection is fine; panics are not
		}
		if vecErr == nil && res.String() != vecRes.String() {
			t.Fatalf("engines disagree:\ninput: %q\nrow:\n%s\nvec:\n%s", src, res.String(), vecRes.String())
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

// FuzzPlanCacheKey attacks the plan cache's normalized keying with pairs of
// statements: two statements that normalize to the same text must share one
// plan entry (the prepared-statement sharing guarantee), and two that
// normalize differently must never collide into one entry (key injectivity —
// a collision would silently run the wrong plan).
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
		na, errA := Normalize(a)
		nb, errB := Normalize(b)
		if errA != nil || errB != nil {
			return // unparsable input is never cached; nothing to key
		}
		db := NewDatabase("fz")
		tab := NewTable("t", "a", "b", "c")
		tab.MustAppendRow(Text("x"), Int(1), Float(1.5))
		db.AddTable(tab)

		ea, err := db.plans.lookup(db, a)
		if err != nil {
			t.Fatalf("lookup(%q) failed after Normalize succeeded: %v", a, err)
		}
		eb, err := db.plans.lookup(db, b)
		if err != nil {
			t.Fatalf("lookup(%q) failed after Normalize succeeded: %v", b, err)
		}
		if ea.norm != na || eb.norm != nb {
			t.Fatalf("cached entry norm drifted from Normalize:\nentry a: %q vs %q\nentry b: %q vs %q", ea.norm, na, eb.norm, nb)
		}
		if na == nb && ea != eb {
			t.Fatalf("equal normalized text did not share a plan:\na: %q\nb: %q\nnorm: %q", a, b, na)
		}
		if na != nb && ea == eb {
			t.Fatalf("plan cache collision:\na: %q -> %q\nb: %q -> %q", a, na, b, nb)
		}
		// Re-looking up a must hit the same normalized plan.
		ea2, err := db.plans.lookup(db, a)
		if err != nil || ea2.norm != na {
			t.Fatalf("re-lookup of %q: err=%v norm=%q want %q", a, err, ea2.norm, na)
		}
	})
}
