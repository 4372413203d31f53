package sqldb

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasicShapes(t *testing.T) {
	cases := []string{
		`SELECT * FROM t`,
		`SELECT a, b FROM t`,
		`SELECT t.* FROM t`,
		`SELECT DISTINCT a FROM t`,
		`SELECT a AS x FROM t`,
		`SELECT a x FROM t`,
		`SELECT COUNT(*) FROM t`,
		`SELECT COUNT(DISTINCT a) FROM t`,
		`SELECT a FROM t WHERE b = 1 AND c = 'x' OR NOT d < 2`,
		`SELECT a FROM t GROUP BY a HAVING COUNT(*) > 1`,
		`SELECT a FROM t ORDER BY a DESC, b ASC LIMIT 10 OFFSET 5`,
		`SELECT a FROM t1 JOIN t2 ON t1.id = t2.id`,
		`SELECT a FROM t1 INNER JOIN t2 ON t1.id = t2.id LEFT JOIN t3 ON t2.x = t3.x`,
		`SELECT a FROM t1 CROSS JOIN t2`,
		`SELECT a FROM t1, t2 WHERE t1.id = t2.id`,
		`SELECT a FROM t WHERE b IN (1, 2, 3)`,
		`SELECT a FROM t WHERE b IN (SELECT c FROM u)`,
		`SELECT a FROM t WHERE b NOT IN (1)`,
		`SELECT a FROM t WHERE b BETWEEN 1 AND 10`,
		`SELECT a FROM t WHERE b IS NULL`,
		`SELECT a FROM t WHERE b IS NOT NULL`,
		`SELECT a FROM t WHERE b LIKE '%x%'`,
		`SELECT a FROM t WHERE b NOT LIKE '%x%'`,
		`SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t`,
		`SELECT CAST(a AS REAL) FROM t`,
		`SELECT CAST(a AS VARCHAR(255)) FROM t`,
		`SELECT "col with spaces" FROM "my table"`,
		"SELECT `tick` FROM `t`",
		`SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.a)`,
		`SELECT -a + 3.5e2 FROM t`,
		`SELECT a FROM t -- comment
		 WHERE b = 1`,
		`SELECT 'it''s escaped'`,
	}
	for _, c := range cases {
		if _, err := Parse(c); err != nil {
			t.Errorf("Parse(%q): %v", c, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`SELEC a FROM t`,
		`SELECT a FROM`,
		`SELECT a FROM t WHERE`,
		`SELECT a FROM t GROUP a`,
		`SELECT a FROM t ORDER a`,
		`SELECT a FROM t LIMIT x`,
		`SELECT COUNT( FROM t`,
		`SELECT SUM(*) FROM t`,
		`SELECT a FROM t JOIN u`,
		`SELECT a FROM t WHERE b IN`,
		`SELECT CAST(a AS BLOB) FROM t`,
		`SELECT CASE END FROM t`,
		`SELECT a FROM t WHERE b = #`,
		`SELECT "unterminated FROM t`,
	}
	for _, c := range cases {
		if _, err := Parse(c); !errors.Is(err, ErrSyntax) && !errors.Is(err, ErrUnsupported) {
			t.Errorf("Parse(%q): err = %v, want syntax error", c, err)
		}
	}
}

func TestParseSQLRoundTripProperty(t *testing.T) {
	// Property: rendering a parsed statement and re-parsing yields the same
	// rendered SQL (idempotent normal form).
	seeds := []string{
		`SELECT a FROM t WHERE b = 1`,
		`SELECT COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2 ORDER BY 1 LIMIT 3`,
		`SELECT a FROM t1 JOIN t2 ON t1.x = t2.x WHERE t1.y IN (SELECT z FROM t3)`,
		`SELECT CASE WHEN a THEN 1 ELSE 2 END, CAST(b AS TEXT) FROM t`,
		`SELECT (SELECT MAX(x) FROM u) - MIN(y) FROM t`,
		// Nested unary minus must not render as "--", a line comment.
		`SELECT - -0`,
		`SELECT -(-2)`,
		`SELECT (1 - -2)`,
	}
	for _, s := range seeds {
		st1, err := Parse(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		r1 := st1.SQL()
		st2, err := Parse(r1)
		if err != nil {
			t.Fatalf("re-parse %q: %v", r1, err)
		}
		if r2 := st2.SQL(); r1 != r2 {
			t.Errorf("not idempotent:\n%s\n%s", r1, r2)
		}
	}
	// A binary minus before a negative operand keeps its spaced rendering.
	st, err := Parse(`SELECT (1 - -2)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.SQL(); got != `SELECT (1 - -2)` {
		t.Errorf("rendered %q, want %q", got, `SELECT (1 - -2)`)
	}
}

func TestLexerNeverPanicsProperty(t *testing.T) {
	// Property: arbitrary input never panics the lexer/parser; it either
	// parses or returns an error.
	f := func(s string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %q: %v", s, r)
			}
		}()
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAnalyze(t *testing.T) {
	cases := []struct {
		sql  string
		want Complexity
	}{
		{
			`SELECT "fatal_accidents_00_14" FROM airlines WHERE airline = 'Malaysia Airlines'`,
			Complexity{Joins: 0, GroupBys: 0, Subqueries: 0, Aggregates: 0, Columns: 2},
		},
		{
			`SELECT COUNT(*) FROM t WHERE a = 1`,
			Complexity{Aggregates: 1, Columns: 1},
		},
		{
			`SELECT a, COUNT(*) FROM t GROUP BY a HAVING SUM(b) > 2`,
			Complexity{GroupBys: 1, Aggregates: 2, Columns: 2},
		},
		{
			`SELECT x FROM t WHERE y = (SELECT MAX(y) FROM t)`,
			Complexity{Subqueries: 1, Aggregates: 1, Columns: 2},
		},
		{
			`SELECT SUM(o.total) FROM orders o JOIN customers c ON o.cid = c.id JOIN x ON x.i = c.id`,
			Complexity{Joins: 2, Aggregates: 1, Columns: 4}, // id counted once across tables

		},
		{
			`SELECT (SELECT COUNT(a) FROM t WHERE b = 1) * 100.0 / (SELECT COUNT(a) FROM t)`,
			Complexity{Subqueries: 2, Aggregates: 2, Columns: 2},
		},
	}
	for _, c := range cases {
		got, err := Analyze(c.sql)
		if err != nil {
			t.Fatalf("Analyze(%q): %v", c.sql, err)
		}
		if got != c.want {
			t.Errorf("Analyze(%q) = %+v want %+v", c.sql, got, c.want)
		}
	}
}

func TestAnalyzeSyntaxError(t *testing.T) {
	if _, err := Analyze("not sql"); !errors.Is(err, ErrSyntax) {
		t.Errorf("err = %v", err)
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{Int(1), Int(2), -1, true},
		{Int(2), Float(2.0), 0, true},
		{Float(3.5), Int(3), 1, true},
		{Text("a"), Text("b"), -1, true},
		{Text("a"), Text("a"), 0, true},
		{Bool(false), Bool(true), -1, true},
		{Null(), Int(1), 0, false},
		{Int(1), Null(), 0, false},
		{Text("5"), Int(5), 0, true},   // numeric coercion of text
		{Int(5), Text("5.0"), 0, true}, // both directions
		{Text("abc"), Int(5), 0, false},
	}
	for _, c := range cases {
		cmp, ok := c.a.Compare(c.b)
		if ok != c.ok || (ok && cmp != c.cmp) {
			t.Errorf("Compare(%v, %v) = %d,%v want %d,%v", c.a, c.b, cmp, ok, c.cmp, c.ok)
		}
	}
}

func TestValueGroupKeyProperty(t *testing.T) {
	// Property: equal values (after numeric coercion between int and
	// integral float) share a group key; unequal ints do not.
	f := func(a, b int32) bool {
		ka := Int(int64(a)).key()
		kf := Float(float64(a)).key()
		if ka != kf {
			return false
		}
		if a != b && Int(int64(a)).key() == Int(int64(b)).key() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNull: "NULL", KindInt: "INTEGER", KindFloat: "REAL",
		KindText: "TEXT", KindBool: "BOOLEAN",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q", k, k.String())
		}
	}
	if !strings.HasPrefix(Kind(99).String(), "Kind(") {
		t.Errorf("unknown kind: %q", Kind(99).String())
	}
}
