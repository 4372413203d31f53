package sqldb

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// testDB builds the airline-safety style fixture used throughout the engine
// tests, mirroring the paper's running example.
func testDB(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase("airlinesafety")
	tab := NewTable("airlines", "airline", "avail_seat_km_per_week", "incidents_85_99", "fatal_accidents_00_14", "fatalities_00_14")
	rows := []struct {
		name  string
		seats int64
		inc   int64
		fatal int64
		fat   int64
	}{
		{"Aer Lingus", 320906734, 2, 0, 0},
		{"Aeroflot", 1197672318, 76, 1, 88},
		{"Malaysia Airlines", 1039171244, 3, 2, 537},
		{"United / Continental", 7139291291, 19, 2, 109},
		{"Delta / Northwest", 6525658894, 24, 2, 51},
		{"Southwest Airlines", 3276525770, 1, 0, 0},
	}
	for _, r := range rows {
		tab.MustAppendRow(Text(r.name), Int(r.seats), Int(r.inc), Int(r.fatal), Int(r.fat))
	}
	db.AddTable(tab)

	drinks := NewTable("drinks", "country", "beer_servings", "wine_servings")
	drinks.MustAppendRow(Text("France"), Int(127), Int(370))
	drinks.MustAppendRow(Text("USA"), Int(249), Int(84))
	drinks.MustAppendRow(Text("Germany"), Int(346), Int(175))
	drinks.MustAppendRow(Text("Italy"), Int(85), Int(237))
	db.AddTable(drinks)
	return db
}

func scalar(t *testing.T, db *Database, sql string) Value {
	t.Helper()
	v, err := QueryScalar(db, sql)
	if err != nil {
		t.Fatalf("QueryScalar(%q): %v", sql, err)
	}
	return v
}

func TestPaperRunningExample(t *testing.T) {
	db := testDB(t)
	v := scalar(t, db, `SELECT "fatal_accidents_00_14" FROM airlines WHERE airline = 'Malaysia Airlines'`)
	if got, _ := v.AsInt(); got != 2 {
		t.Errorf("got %v want 2", v)
	}
}

func TestAggregates(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		sql  string
		want float64
	}{
		{`SELECT COUNT(*) FROM airlines`, 6},
		{`SELECT COUNT(*) FROM airlines WHERE fatal_accidents_00_14 = 2`, 3},
		{`SELECT SUM(fatalities_00_14) FROM airlines`, 785},
		{`SELECT AVG(incidents_85_99) FROM airlines`, 125.0 / 6},
		{`SELECT MIN(incidents_85_99) FROM airlines`, 1},
		{`SELECT MAX(fatalities_00_14) FROM airlines`, 537},
		{`SELECT COUNT(DISTINCT fatal_accidents_00_14) FROM airlines`, 3},
		{`SELECT COUNT(airline) FROM airlines WHERE incidents_85_99 > 20`, 2},
	}
	for _, c := range cases {
		v := scalar(t, db, c.sql)
		f, ok := v.AsFloat()
		if !ok || math.Abs(f-c.want) > 1e-9 {
			t.Errorf("%s = %v want %v", c.sql, v, c.want)
		}
	}
}

func TestAggregateOverEmptyInput(t *testing.T) {
	db := testDB(t)
	v := scalar(t, db, `SELECT COUNT(*) FROM airlines WHERE airline = 'Nope'`)
	if got, _ := v.AsInt(); got != 0 {
		t.Errorf("COUNT over empty = %v", v)
	}
	v = scalar(t, db, `SELECT SUM(fatalities_00_14) FROM airlines WHERE airline = 'Nope'`)
	if !v.IsNull() {
		t.Errorf("SUM over empty = %v, want NULL", v)
	}
}

func TestPercentageQueryPattern(t *testing.T) {
	// The prompt template in Figure 3 suggests this exact shape.
	db := testDB(t)
	sql := `SELECT (SELECT COUNT(airline) FROM airlines WHERE fatal_accidents_00_14 = 0) * 100.0 / (SELECT COUNT(airline) FROM airlines)`
	v := scalar(t, db, sql)
	f, _ := v.AsFloat()
	if math.Abs(f-100.0/3) > 1e-9 {
		t.Errorf("percentage = %v want %.4f", v, 100.0/3)
	}
}

func TestScalarSubqueryInWhere(t *testing.T) {
	db := testDB(t)
	v := scalar(t, db, `SELECT airline FROM airlines WHERE fatalities_00_14 = (SELECT MAX(fatalities_00_14) FROM airlines)`)
	if v.Text() != "Malaysia Airlines" {
		t.Errorf("got %q", v.Text())
	}
}

func TestCorrelatedSubquery(t *testing.T) {
	db := testDB(t)
	// Airlines whose fatalities exceed the average of all airlines.
	res, err := Query(db, `SELECT airline FROM airlines a WHERE a.fatalities_00_14 > (SELECT AVG(fatalities_00_14) FROM airlines) ORDER BY airline`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "Malaysia Airlines" {
		t.Errorf("rows = %v", res)
	}
}

func TestGroupByHaving(t *testing.T) {
	db := testDB(t)
	res, err := Query(db, `SELECT fatal_accidents_00_14, COUNT(*) AS n FROM airlines GROUP BY fatal_accidents_00_14 HAVING COUNT(*) > 1 ORDER BY fatal_accidents_00_14`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res)
	}
	if n, _ := res.Rows[0][1].AsInt(); n != 2 { // two airlines with 0
		t.Errorf("group 0 count = %v", res.Rows[0][1])
	}
	if n, _ := res.Rows[1][1].AsInt(); n != 3 { // three airlines with 2
		t.Errorf("group 2 count = %v", res.Rows[1][1])
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	db := testDB(t)
	v := scalar(t, db, `SELECT airline FROM airlines ORDER BY fatalities_00_14 DESC LIMIT 1`)
	if v.Text() != "Malaysia Airlines" {
		t.Errorf("got %q", v.Text())
	}
	v = scalar(t, db, `SELECT airline FROM airlines ORDER BY fatalities_00_14 DESC LIMIT 1 OFFSET 1`)
	if v.Text() != "United / Continental" {
		t.Errorf("offset got %q", v.Text())
	}
	// ORDER BY alias and ordinal.
	v = scalar(t, db, `SELECT airline AS a FROM airlines ORDER BY a LIMIT 1`)
	if v.Text() != "Aer Lingus" {
		t.Errorf("alias order got %q", v.Text())
	}
	v = scalar(t, db, `SELECT airline FROM airlines ORDER BY 1 DESC LIMIT 1`)
	if v.Text() != "United / Continental" {
		t.Errorf("ordinal order got %q", v.Text())
	}
}

func TestJoin(t *testing.T) {
	db := NewDatabase("shop")
	orders := NewTable("orders", "id", "customer_id", "total")
	orders.MustAppendRow(Int(1), Int(10), Float(99.5))
	orders.MustAppendRow(Int(2), Int(11), Float(15.0))
	orders.MustAppendRow(Int(3), Int(10), Float(42.0))
	customers := NewTable("customers", "id", "name")
	customers.MustAppendRow(Int(10), Text("Ada"))
	customers.MustAppendRow(Int(11), Text("Bob"))
	db.AddTable(orders)
	db.AddTable(customers)

	v, err := QueryScalar(db, `SELECT SUM(o.total) FROM orders o JOIN customers c ON o.customer_id = c.id WHERE c.name = 'Ada'`)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := v.AsFloat(); f != 141.5 {
		t.Errorf("sum = %v", v)
	}

	// Three-way join via chained JOINs.
	items := NewTable("items", "order_id", "sku")
	items.MustAppendRow(Int(1), Text("X"))
	items.MustAppendRow(Int(3), Text("Y"))
	items.MustAppendRow(Int(2), Text("Z"))
	db.AddTable(items)
	v, err = QueryScalar(db, `SELECT COUNT(*) FROM customers c JOIN orders o ON o.customer_id = c.id JOIN items i ON i.order_id = o.id WHERE c.name = 'Ada'`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := v.AsInt(); n != 2 {
		t.Errorf("count = %v", v)
	}
}

func TestLeftJoin(t *testing.T) {
	db := NewDatabase("lj")
	a := NewTable("a", "id")
	a.MustAppendRow(Int(1))
	a.MustAppendRow(Int(2))
	b := NewTable("b", "id", "v")
	b.MustAppendRow(Int(1), Text("one"))
	db.AddTable(a)
	db.AddTable(b)
	res, err := Query(db, `SELECT a.id, b.v FROM a LEFT JOIN b ON a.id = b.id ORDER BY a.id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || !res.Rows[1][1].IsNull() {
		t.Errorf("left join rows = %v", res)
	}
}

func TestCrossJoin(t *testing.T) {
	db := testDB(t)
	v := scalar(t, db, `SELECT COUNT(*) FROM airlines, drinks`)
	if n, _ := v.AsInt(); n != 24 {
		t.Errorf("cross join count = %v", v)
	}
}

func TestDistinct(t *testing.T) {
	db := testDB(t)
	res, err := Query(db, `SELECT DISTINCT fatal_accidents_00_14 FROM airlines ORDER BY fatal_accidents_00_14`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("distinct rows = %v", res)
	}
}

func TestExpressionsAndFunctions(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		sql  string
		want string
	}{
		{`SELECT 1 + 2 * 3`, "7"},
		{`SELECT (1 + 2) * 3`, "9"},
		{`SELECT 10 / 4`, "2.5"},
		{`SELECT 10 / 5`, "2"},
		{`SELECT 7 % 3`, "1"},
		{`SELECT -5`, "-5"},
		{`SELECT ABS(-4.5)`, "4.5"},
		{`SELECT ROUND(3.14159, 2)`, "3.14"},
		{`SELECT ROUND(2.5)`, "3"},
		{`SELECT LOWER('ABC')`, "abc"},
		{`SELECT UPPER('abc')`, "ABC"},
		{`SELECT LENGTH('hello')`, "5"},
		{`SELECT TRIM('  x  ')`, "x"},
		{`SELECT COALESCE(NULL, NULL, 'fallback')`, "fallback"},
		{`SELECT NULLIF(3, 3)`, "NULL"},
		{`SELECT NULLIF(3, 4)`, "3"},
		{`SELECT SUBSTR('abcdef', 2, 3)`, "bcd"},
		{`SELECT 'a' || 'b'`, "ab"},
		{`SELECT CAST(3.9 AS INTEGER)`, "3"},
		{`SELECT CAST(7 AS REAL) / 2`, "3.5"},
		{`SELECT CASE WHEN 1 > 2 THEN 'a' ELSE 'b' END`, "b"},
		{`SELECT CASE WHEN 2 > 1 THEN 'a' END`, "a"},
	}
	for _, c := range cases {
		v := scalar(t, db, c.sql)
		if v.String() != c.want {
			t.Errorf("%s = %q want %q", c.sql, v.String(), c.want)
		}
	}
}

func TestPredicates(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		sql  string
		want int64
	}{
		{`SELECT COUNT(*) FROM airlines WHERE incidents_85_99 BETWEEN 2 AND 20`, 3},
		{`SELECT COUNT(*) FROM airlines WHERE incidents_85_99 NOT BETWEEN 2 AND 20`, 3},
		{`SELECT COUNT(*) FROM airlines WHERE airline LIKE '%airlines%'`, 2},
		{`SELECT COUNT(*) FROM airlines WHERE airline LIKE 'Aer_Lingus'`, 1},
		{`SELECT COUNT(*) FROM airlines WHERE airline LIKE 'Aer_Lingus_'`, 0},
		{`SELECT COUNT(*) FROM airlines WHERE airline LIKE 'Aer L%'`, 1},
		{`SELECT COUNT(*) FROM airlines WHERE fatal_accidents_00_14 IN (1, 2)`, 4},
		{`SELECT COUNT(*) FROM airlines WHERE fatal_accidents_00_14 NOT IN (1, 2)`, 2},
		{`SELECT COUNT(*) FROM airlines WHERE airline IN (SELECT country FROM drinks)`, 0},
		{`SELECT COUNT(*) FROM airlines WHERE NOT fatal_accidents_00_14 = 0`, 4},
		{`SELECT COUNT(*) FROM airlines WHERE fatal_accidents_00_14 = 0 OR fatalities_00_14 > 500`, 3},
		{`SELECT COUNT(*) FROM airlines WHERE fatal_accidents_00_14 <> 0 AND incidents_85_99 < 10`, 1},
		{`SELECT COUNT(*) FROM drinks WHERE wine_servings >= 175`, 3},
		{`SELECT COUNT(*) FROM drinks WHERE country IS NOT NULL`, 4},
		{`SELECT COUNT(*) FROM drinks WHERE country IS NULL`, 0},
	}
	for _, c := range cases {
		v := scalar(t, db, c.sql)
		if n, _ := v.AsInt(); n != c.want {
			t.Errorf("%s = %v want %d", c.sql, v, c.want)
		}
	}
}

func TestExists(t *testing.T) {
	db := testDB(t)
	v := scalar(t, db, `SELECT COUNT(*) FROM drinks d WHERE EXISTS (SELECT 1 FROM airlines a WHERE a.fatalities_00_14 > d.wine_servings)`)
	if n, _ := v.AsInt(); n != 4 {
		t.Errorf("exists count = %v", v)
	}
}

func TestErrors(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		sql  string
		want error
	}{
		{`SELECT`, ErrSyntax},
		{`FROM airlines`, ErrSyntax},
		{`SELECT * FROM missing`, ErrUnknownTable},
		{`SELECT nope FROM airlines`, ErrUnknownColumn},
		{`SELECT a.b FROM airlines`, ErrUnknownColumn},
		{`SELECT * FROM airlines UNION SELECT * FROM drinks`, ErrUnsupported},
		{`SELECT SUM(airline) FROM airlines`, ErrType},
		{`SELECT FOO(1)`, ErrUnsupported},
		{`SELECT 'unterminated`, ErrSyntax},
		{`SELECT COUNT(*) FROM airlines extra garbage (`, ErrSyntax},
	}
	for _, c := range cases {
		_, err := Query(db, c.sql)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.sql, err, c.want)
		}
	}
}

func TestScalarErrors(t *testing.T) {
	db := testDB(t)
	_, err := QueryScalar(db, `SELECT airline FROM airlines`)
	if !errors.Is(err, ErrNotScalar) {
		t.Errorf("multi-row scalar err = %v", err)
	}
	_, err = QueryScalar(db, `SELECT airline, incidents_85_99 FROM airlines LIMIT 1`)
	if !errors.Is(err, ErrNotScalar) {
		t.Errorf("multi-col scalar err = %v", err)
	}
	_, err = QueryScalar(db, `SELECT airline FROM airlines WHERE airline = 'Nope'`)
	if !errors.Is(err, ErrNotScalar) {
		t.Errorf("zero-row scalar err = %v", err)
	}
}

func TestNullSemantics(t *testing.T) {
	db := NewDatabase("nulls")
	tab := NewTable("t", "a", "b")
	tab.MustAppendRow(Int(1), Null())
	tab.MustAppendRow(Int(2), Int(20))
	tab.MustAppendRow(Null(), Int(30))
	db.AddTable(tab)

	v, _ := QueryScalar(db, `SELECT COUNT(*) FROM t WHERE b = 20`)
	if n, _ := v.AsInt(); n != 1 {
		t.Errorf("null eq = %v", v)
	}
	v, _ = QueryScalar(db, `SELECT COUNT(b) FROM t`)
	if n, _ := v.AsInt(); n != 2 {
		t.Errorf("COUNT skips nulls = %v", v)
	}
	v, _ = QueryScalar(db, `SELECT SUM(a) FROM t`)
	if n, _ := v.AsInt(); n != 3 {
		t.Errorf("SUM skips nulls = %v", v)
	}
	v, _ = QueryScalar(db, `SELECT 1 + NULL`)
	if !v.IsNull() {
		t.Errorf("1+NULL = %v", v)
	}
	v, _ = QueryScalar(db, `SELECT COUNT(*) FROM t WHERE a IS NULL`)
	if n, _ := v.AsInt(); n != 1 {
		t.Errorf("IS NULL = %v", v)
	}
}

func TestQuotedIdentifiersWithSpaces(t *testing.T) {
	db := NewDatabase("quoted")
	tab := NewTable("grand prix", "Driver Name", "Wins")
	tab.MustAppendRow(Text("Lewis"), Int(105))
	tab.MustAppendRow(Text("Michael"), Int(91))
	db.AddTable(tab)
	v, err := QueryScalar(db, `SELECT "Driver Name" FROM "grand prix" WHERE "Wins" = (SELECT MAX("Wins") FROM "grand prix")`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Text() != "Lewis" {
		t.Errorf("got %q", v.Text())
	}
}

func TestCaseInsensitiveNames(t *testing.T) {
	db := testDB(t)
	v := scalar(t, db, `SELECT COUNT(*) FROM AIRLINES WHERE AIRLINE = 'Aeroflot'`)
	if n, _ := v.AsInt(); n != 1 {
		t.Errorf("got %v", v)
	}
}

func TestStatementRoundTrip(t *testing.T) {
	// SQL() output must re-parse to an equivalent statement.
	queries := []string{
		`SELECT "fatal_accidents_00_14" FROM airlines WHERE airline = 'Malaysia Airlines'`,
		`SELECT COUNT(*) FROM airlines WHERE incidents_85_99 BETWEEN 2 AND 20`,
		`SELECT fatal_accidents_00_14, COUNT(*) FROM airlines GROUP BY fatal_accidents_00_14 HAVING COUNT(*) > 1 ORDER BY 1 DESC LIMIT 2`,
		`SELECT (SELECT COUNT(airline) FROM airlines WHERE fatal_accidents_00_14 = 0) * 100.0 / (SELECT COUNT(airline) FROM airlines)`,
		`SELECT DISTINCT airline FROM airlines WHERE airline LIKE '%air%' OR NOT incidents_85_99 = 1`,
	}
	db := testDB(t)
	for _, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		rendered := stmt.SQL()
		stmt2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse %q: %v", rendered, err)
		}
		r1, err := Exec(db, stmt)
		if err != nil {
			t.Fatalf("exec %q: %v", q, err)
		}
		r2, err := Exec(db, stmt2)
		if err != nil {
			t.Fatalf("exec re-parsed %q: %v", rendered, err)
		}
		if r1.String() != r2.String() {
			t.Errorf("round-trip result mismatch for %q:\n%s\nvs\n%s", q, r1, r2)
		}
	}
}

func TestResultString(t *testing.T) {
	db := testDB(t)
	res, err := Query(db, `SELECT airline, fatalities_00_14 FROM airlines WHERE fatalities_00_14 > 100 ORDER BY fatalities_00_14 DESC`)
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "Malaysia Airlines | 537") {
		t.Errorf("result string = %q", s)
	}
}

func TestLoadCSV(t *testing.T) {
	csvData := "airline,crashes,rate\nAlpha,3,0.5\nBeta,0,\nGamma,12,1.25\n"
	tab, err := LoadCSV("safety", strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Columns[1].Type != KindInt {
		t.Errorf("crashes type = %v", tab.Columns[1].Type)
	}
	if tab.Columns[2].Type != KindFloat {
		t.Errorf("rate type = %v", tab.Columns[2].Type)
	}
	if !tab.Rows[1][2].IsNull() {
		t.Errorf("empty cell should be NULL")
	}
	db := NewDatabase("d")
	db.AddTable(tab)
	v, err := QueryScalar(db, `SELECT SUM(crashes) FROM safety`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := v.AsInt(); n != 15 {
		t.Errorf("sum = %v", v)
	}
}

// TestLoadCSVDecimalSpellings pins which cells load as numbers: decimal and
// scientific spellings do; ParseFloat's non-finite, hexadecimal and
// underscored spellings load as text, so no NaN or infinity reaches a join
// key or an aggregate from a CSV.
func TestLoadCSVDecimalSpellings(t *testing.T) {
	for _, tc := range []struct {
		cell string
		want Value
	}{
		{"7", Int(7)},
		{" -12 ", Int(-12)},
		{"+3", Int(3)},
		{"2.5", Float(2.5)},
		{"-.5", Float(-0.5)},
		{"1e3", Float(1000)},
		{"6.02E+23", Float(6.02e23)},
		{"9223372036854775808", Float(9223372036854775808)},
		{"1e400", Text("1e400")},
		{"NaN", Text("NaN")},
		{"nan", Text("nan")},
		{"Inf", Text("Inf")},
		{"-infinity", Text("-infinity")},
		{"+Inf", Text("+Inf")},
		{"0x1p4", Text("0x1p4")},
		{"0x10", Text("0x10")},
		{"1_000", Text("1_000")},
		{"e", Text("e")},
		{"1-2", Text("1-2")},
		{"", Null()},
	} {
		tab, err := LoadCSV("t", strings.NewReader("k\n\""+tc.cell+"\"\n"))
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.Rows[0][0]; got.Kind() != tc.want.Kind() || got.String() != tc.want.String() {
			t.Errorf("cell %q loads as %v (%v), want %v (%v)", tc.cell, got, got.Kind(), tc.want, tc.want.Kind())
		}
	}
}

func TestUniqueValues(t *testing.T) {
	db := testDB(t)
	vals, err := db.Table("airlines").UniqueValues("fatal_accidents_00_14")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 {
		t.Errorf("unique = %v", vals)
	}
	if _, err := db.Table("airlines").UniqueValues("nope"); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("err = %v", err)
	}
}

func TestSchemaRendering(t *testing.T) {
	db := testDB(t)
	s := db.Schema()
	if !strings.Contains(s, `CREATE TABLE "airlines"`) || !strings.Contains(s, `"airline" TEXT`) {
		t.Errorf("schema = %q", s)
	}
	if !strings.Contains(s, `"incidents_85_99" INTEGER`) {
		t.Errorf("schema types missing: %q", s)
	}
	sr := db.SampleRows(2)
	if !strings.Contains(sr, "Aer Lingus") || strings.Count(sr, "\n") < 4 {
		t.Errorf("samples = %q", sr)
	}
}

func TestTableLessSelect(t *testing.T) {
	db := NewDatabase("empty")
	v, err := QueryScalar(db, `SELECT 40 + 2`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := v.AsInt(); n != 42 {
		t.Errorf("got %v", v)
	}
}

func TestSemicolonTolerated(t *testing.T) {
	db := testDB(t)
	if _, err := Query(db, `SELECT COUNT(*) FROM airlines;`); err != nil {
		t.Errorf("trailing semicolon: %v", err)
	}
}
