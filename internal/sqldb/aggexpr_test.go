package sqldb

import (
	"math"
	"strings"
	"testing"
)

// aggDB builds a small grouped fixture for aggregate-context expression
// evaluation.
func aggDB(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase("agg")
	tab := NewTable("sales", "region", "units", "price")
	rows := []struct {
		region string
		units  int64
		price  float64
	}{
		{"east", 10, 2.5},
		{"east", 20, 3.0},
		{"west", 5, 10.0},
		{"west", 15, 8.0},
		{"north", 0, 1.0},
	}
	for _, r := range rows {
		tab.MustAppendRow(Text(r.region), Int(r.units), Float(r.price))
	}
	db.AddTable(tab)
	return db
}

// TestAggregateExpressions exercises arithmetic, CASE, CAST, scalar
// functions, and logic operators in aggregate context (groupEnv.eval).
func TestAggregateExpressions(t *testing.T) {
	db := aggDB(t)
	cases := []struct {
		sql  string
		want string
	}{
		{`SELECT MAX(units) - MIN(units) FROM sales`, "20"},
		{`SELECT SUM(units) * 2 FROM sales`, "100"},
		{`SELECT CAST(SUM(units) AS REAL) / COUNT(*) FROM sales`, "10"},
		{`SELECT ROUND(AVG(price), 1) FROM sales`, "4.9"},
		{`SELECT CASE WHEN SUM(units) > 40 THEN 'many' ELSE 'few' END FROM sales`, "many"},
		{`SELECT CASE WHEN SUM(units) > 400 THEN 'many' END FROM sales`, "NULL"},
		{`SELECT COUNT(*) > 3 AND MAX(price) >= 10 FROM sales`, "true"},
		{`SELECT COUNT(*) > 30 OR MIN(units) = 0 FROM sales`, "true"},
		{`SELECT -MIN(units) FROM sales`, "0"},
		{`SELECT ABS(MIN(units) - MAX(units)) FROM sales`, "20"},
	}
	for _, c := range cases {
		v, err := QueryScalar(db, c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if v.String() != c.want {
			t.Errorf("%s = %q want %q", c.sql, v.String(), c.want)
		}
	}
}

func TestGroupedExpressionProjection(t *testing.T) {
	db := aggDB(t)
	res, err := Query(db, `SELECT region, SUM(units * 1) + 0 FROM sales GROUP BY region ORDER BY region`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// east=30, north=0, west=20
	if res.Rows[0][1].String() != "30" || res.Rows[2][1].String() != "20" {
		t.Errorf("grouped sums: %v", res)
	}
}

func TestHavingOnExpression(t *testing.T) {
	db := aggDB(t)
	res, err := Query(db, `SELECT region FROM sales GROUP BY region HAVING SUM(units) * 2 >= 40 ORDER BY region`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // east (60), west (40)
		t.Fatalf("rows = %v", res)
	}
}

func TestValueConversions(t *testing.T) {
	if i, ok := Int(7).AsInt(); !ok || i != 7 {
		t.Error("Int.AsInt")
	}
	if i, ok := Float(7.0).AsInt(); !ok || i != 7 {
		t.Error("integral Float.AsInt")
	}
	if _, ok := Float(7.5).AsInt(); ok {
		t.Error("fractional Float.AsInt must fail")
	}
	if i, ok := Text(" 42 ").AsInt(); !ok || i != 42 {
		t.Error("Text.AsInt")
	}
	if _, ok := Text("abc").AsInt(); ok {
		t.Error("non-numeric Text.AsInt must fail")
	}
	if _, ok := Null().AsInt(); ok {
		t.Error("Null.AsInt must fail")
	}
	if f, ok := Bool(true).AsFloat(); !ok || f != 1 {
		t.Error("Bool.AsFloat")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool.AsBool")
	}
	if !Int(3).AsBool() || Int(0).AsBool() {
		t.Error("Int.AsBool")
	}
	if !Float(0.5).AsBool() || Float(0).AsBool() {
		t.Error("Float.AsBool")
	}
	if Null().AsBool() || Text("x").AsBool() {
		t.Error("Null/Text.AsBool must be false")
	}
	if Bool(true).String() != "true" || Bool(false).String() != "false" {
		t.Error("Bool.String")
	}
	if Bool(true).Text() != "true" {
		t.Error("Bool.Text")
	}
}

func TestValueKeyKinds(t *testing.T) {
	// Distinct kinds with same textual form must not collide as group
	// keys, except int/integral-float which intentionally coincide.
	keys := map[string]string{}
	for name, v := range map[string]Value{
		"null": Null(), "int5": Int(5), "float5.5": Float(5.5),
		"text5": Text("5"), "boolT": Bool(true), "boolF": Bool(false),
	} {
		k := v.key()
		if prev, dup := keys[k]; dup {
			t.Errorf("key collision between %s and %s", prev, name)
		}
		keys[k] = name
	}
	if Int(5).key() != Float(5).key() {
		t.Error("int and integral float must share group keys")
	}
}

func TestCastValueAll(t *testing.T) {
	db := aggDB(t)
	cases := []struct{ sql, want string }{
		{`SELECT CAST('12' AS INTEGER)`, "12"},
		{`SELECT CAST('3.5' AS REAL)`, "3.5"},
		{`SELECT CAST(42 AS TEXT)`, "42"},
		{`SELECT CAST(1 AS BOOLEAN)`, "true"},
		{`SELECT CAST(NULL AS INTEGER)`, "NULL"},
	}
	for _, c := range cases {
		v, err := QueryScalar(db, c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if v.String() != c.want {
			t.Errorf("%s = %q want %q", c.sql, v.String(), c.want)
		}
	}
	if _, err := QueryScalar(db, `SELECT CAST('abc' AS INTEGER)`); err == nil {
		t.Error("casting non-numeric text to INTEGER must fail")
	}
}

func TestCatalogHelpers(t *testing.T) {
	db := aggDB(t)
	if tabs := db.Tables(); len(tabs) != 1 || tabs[0].Name != "sales" || db.Table("SALES") != tabs[0] {
		t.Errorf("Tables = %v", tabs)
	}
	// MustAppendRow panics on arity mismatch.
	defer func() {
		if recover() == nil {
			t.Error("MustAppendRow must panic on arity mismatch")
		}
	}()
	db.Table("sales").MustAppendRow(Text("only one"))
}

func TestASTRendering(t *testing.T) {
	// Exercise every AST node's SQL renderer through a parse round trip.
	queries := []string{
		`SELECT * FROM t`,
		`SELECT t.* FROM t`,
		`SELECT a FROM t WHERE b BETWEEN 1 AND 2`,
		`SELECT a FROM t WHERE b NOT BETWEEN 1 AND 2`,
		`SELECT a FROM t WHERE b IN (SELECT c FROM u)`,
		`SELECT a FROM t WHERE b IS NOT NULL`,
		`SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u)`,
		`SELECT COUNT(DISTINCT a) FROM t`,
		`SELECT CASE WHEN a THEN 1 ELSE 2 END FROM t`,
		`SELECT CAST(a AS BOOLEAN) FROM t`,
		`SELECT 'it''s' FROM t`,
		`SELECT a FROM t ORDER BY a DESC LIMIT 3 OFFSET 1`,
		`SELECT a AS "alias name" FROM t x CROSS JOIN u`,
		`SELECT -a, NOT b FROM t`,
	}
	for _, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		rendered := stmt.SQL()
		if _, err := Parse(rendered); err != nil {
			t.Errorf("re-parse of %q -> %q: %v", q, rendered, err)
		}
		if !strings.HasPrefix(rendered, "SELECT") {
			t.Errorf("rendered %q", rendered)
		}
	}
}

func TestParseFromClause(t *testing.T) {
	fp := ParseFromClause(`"a" JOIN "b" ON "a"."k" = "b"."k"`)
	if fp == nil || fp.From.Name != "a" || len(fp.Joins) != 1 {
		t.Fatalf("ParseFromClause = %+v", fp)
	}
	if ParseFromClause("not a from clause (((") != nil {
		t.Error("invalid clause must return nil")
	}
}

func TestModuloAndDivEdge(t *testing.T) {
	db := aggDB(t)
	v, _ := QueryScalar(db, `SELECT 7.5 % 2`)
	if f, _ := v.AsFloat(); math.Abs(f-1.5) > 1e-12 {
		t.Errorf("float modulo = %v", v)
	}
	v, _ = QueryScalar(db, `SELECT 1 / 0`)
	if !v.IsNull() {
		t.Errorf("division by zero = %v, want NULL", v)
	}
	v, _ = QueryScalar(db, `SELECT 1 % 0`)
	if !v.IsNull() {
		t.Errorf("modulo by zero = %v, want NULL", v)
	}
}
