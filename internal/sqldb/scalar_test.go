package sqldb

import (
	"errors"
	"testing"
)

// scalar_test.go holds the one-cell path to the row engine's answers on the
// table shape claim verification queries: one small table per document,
// every subquery over it inside a single scan window.

// drinksDB is a document-sized catalog: a table shaped like AggChecker's
// drinks table, with NULLs in a text, an integer and a float column, and an
// empty table of the same shape.
func drinksDB() *Database {
	db := NewDatabase("drinks")
	cols := []string{"country", "beer_servings", "spirit_servings", "wine_servings", "total_litres"}
	drinks := NewTable("drinks", cols...)
	rows := []struct {
		country           Value
		beer, spirit, wne Value
		litres            Value
	}{
		{Text("Afghanistan"), Int(0), Int(0), Int(0), Float(0)},
		{Text("Albania"), Int(89), Int(132), Int(54), Float(4.9)},
		{Text("Algeria"), Int(25), Int(0), Int(14), Float(0.7)},
		{Text("Andorra"), Int(245), Int(138), Int(312), Float(12.4)},
		{Text("Angola"), Int(217), Int(57), Int(45), Float(5.9)},
		{Text("India"), Int(9), Int(114), Null(), Float(2.2)},
		{Text("Iran"), Int(0), Int(0), Int(0), Null()},
		{Null(), Int(77), Null(), Int(8), Float(3.1)},
		{Text("Ireland"), Int(313), Int(118), Int(165), Float(11.4)},
		{Text("Bangladesh"), Int(0), Int(0), Int(0), Float(0)},
		{Text("Belarus"), Int(142), Int(373), Int(42), Float(14.4)},
		{Text("Cuba"), Int(93), Int(137), Int(5), Float(4.2)},
	}
	for _, r := range rows {
		drinks.MustAppendRow(r.country, r.beer, r.spirit, r.wne, r.litres)
	}
	db.AddTable(drinks)
	db.AddTable(NewTable("no_drinks", cols...))
	return db
}

// smallSubqueries are subquery shapes over tables of one scan window: the
// percentage template's two COUNT subqueries, arg-max and arg-min lookups,
// IN and EXISTS in both polarities, subqueries that find nothing or NULL,
// and scalar subqueries of more than one row or column.
var smallSubqueries = []string{
	// Scalar subqueries.
	`SELECT (SELECT COUNT("country") FROM "drinks" WHERE "beer_servings" = 0) * 100.0 / (SELECT COUNT("country") FROM "drinks")`,
	`SELECT (SELECT COUNT(*) FROM "drinks" WHERE "spirit_servings" = 0) * 100.0 / (SELECT COUNT(*) FROM "drinks")`,
	`SELECT (SELECT MAX("spirit_servings") FROM "drinks") - (SELECT MIN("spirit_servings") FROM "drinks")`,
	`SELECT "country" FROM "drinks" WHERE "spirit_servings" = (SELECT MAX("spirit_servings") FROM "drinks")`,
	`SELECT "country" FROM "drinks" WHERE "total_litres" = (SELECT MIN("total_litres") FROM "drinks")`,
	`SELECT COUNT(*) FROM "drinks" WHERE "beer_servings" > (SELECT AVG("beer_servings") FROM "drinks")`,
	`SELECT (SELECT "beer_servings" FROM "drinks" WHERE "country" = 'India')`,
	`SELECT (SELECT COUNT(*) FROM "drinks" WHERE "beer_servings" > (SELECT AVG("beer_servings") FROM "drinks"))`,
	`SELECT -(SELECT SUM("wine_servings") FROM "drinks"), (SELECT 2) * 3`,
	// IN and EXISTS.
	`SELECT COUNT(*) FROM "drinks" WHERE "country" IN (SELECT "country" FROM "drinks" WHERE "wine_servings" > 100)`,
	`SELECT COUNT(*) FROM "drinks" WHERE "country" NOT IN (SELECT "country" FROM "drinks" WHERE "wine_servings" IS NULL)`,
	`SELECT COUNT(*) FROM "drinks" WHERE EXISTS (SELECT 1 FROM "drinks" WHERE "beer_servings" = 0)`,
	`SELECT COUNT(*) FROM "drinks" WHERE NOT EXISTS (SELECT 1 FROM "drinks" WHERE "beer_servings" < 0)`,
	`SELECT EXISTS (SELECT "country" FROM "drinks" WHERE "beer_servings" > 300)`,
	// Empty and NULL results.
	`SELECT (SELECT "beer_servings" FROM "drinks" WHERE "country" = 'Atlantis')`,
	`SELECT (SELECT SUM("wine_servings") FROM "drinks" WHERE "country" = 'Atlantis')`,
	`SELECT (SELECT COUNT(*) FROM "drinks" WHERE "beer_servings" = 0) * 100.0 / (SELECT COUNT(*) FROM "no_drinks")`,
	`SELECT "country" FROM "drinks" WHERE "wine_servings" = (SELECT MAX("wine_servings") FROM "no_drinks")`,
	`SELECT COUNT(*) FROM "drinks" WHERE "beer_servings" IN (SELECT "beer_servings" FROM "drinks" WHERE "country" = 'Atlantis')`,
	`SELECT (SELECT "wine_servings" FROM "drinks" WHERE "country" = 'India')`,
	`SELECT (SELECT "country" FROM "drinks" WHERE "beer_servings" = 77)`,
	`SELECT COUNT(*) FROM "no_drinks" WHERE "beer_servings" = (SELECT MAX("beer_servings") FROM "drinks")`,
	// More than one cell where one is wanted.
	`SELECT (SELECT "beer_servings" FROM "drinks")`,
	`SELECT (SELECT "beer_servings", "wine_servings" FROM "drinks" WHERE "country" = 'India')`,
	`SELECT (SELECT "beer_servings", "wine_servings" FROM "drinks" WHERE "country" = 'Atlantis')`,
	`SELECT COUNT(*) FROM "drinks" WHERE "beer_servings" IN (SELECT "beer_servings", "wine_servings" FROM "drinks")`,
	`SELECT "country" FROM "drinks" WHERE "beer_servings" = (SELECT "beer_servings" FROM "drinks" WHERE "beer_servings" = 0)`,
	// Errors, an unknown table and a correlated subquery.
	`SELECT (SELECT SUM("country") FROM "drinks")`,
	`SELECT (SELECT COUNT(*) FROM "nowhere")`,
	`SELECT "country" FROM "drinks" d WHERE "beer_servings" = (SELECT MAX("beer_servings") FROM "drinks" e WHERE e."country" = d."country")`,
	// Top-level shapes around the one cell.
	`SELECT "beer_servings" FROM "drinks" WHERE "country" = 'Atlantis'`,
	`SELECT "beer_servings" FROM "drinks" WHERE "country" = 'India'`,
	`SELECT "beer_servings" FROM "drinks"`,
	`SELECT "beer_servings", "wine_servings" FROM "drinks" WHERE "country" = 'India'`,
	`SELECT COUNT(*), SUM("beer_servings") FROM "drinks"`,
	`SELECT "spirit_servings" FROM "drinks" GROUP BY "spirit_servings" ORDER BY COUNT(*) DESC LIMIT 1`,
	`SELECT DISTINCT "beer_servings" FROM "drinks" WHERE "beer_servings" = 0`,
	`SELECT "country" FROM "drinks" WHERE "beer_servings" = 0 ORDER BY "country" DESC LIMIT 1 OFFSET 1`,
}

// TestDifferentialSmallTableSubqueries holds every small-table subquery
// shape to the row oracle through Query and QueryScalar alike.
func TestDifferentialSmallTableSubqueries(t *testing.T) {
	db := drinksDB()
	for _, q := range smallSubqueries {
		checkDifferential(t, db, q)
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		rowRes, rowErr := Exec(db, stmt)

		// QueryScalar, warm and cold, against the oracle's Result.Scalar.
		want, wantErr := Null(), rowErr
		if rowErr == nil {
			want, wantErr = rowRes.Scalar()
		}
		for _, pass := range []string{"cold", "warm"} {
			got, err := QueryScalar(db, q)
			switch {
			case (err == nil) != (wantErr == nil):
				t.Fatalf("%s QueryScalar(%q): error %v, oracle error %v", pass, q, err, wantErr)
			case err != nil && err.Error() != wantErr.Error():
				t.Fatalf("%s QueryScalar(%q): error %q, oracle error %q", pass, q, err, wantErr)
			case err == nil && !valueEq(got, want):
				t.Fatalf("%s QueryScalar(%q) = %#v, oracle %#v", pass, q, got, want)
			}
			if errors.Is(wantErr, ErrNotScalar) != errors.Is(err, ErrNotScalar) {
				t.Fatalf("%s QueryScalar(%q): ErrNotScalar lost: %v", pass, q, err)
			}
		}
	}
	requireNoAccessPaths(t, db)
}

// TestDifferentialSubqueryPlans pins the plans of statements with
// subqueries: every subquery compiles to its own plan, one the row engine
// would refuse included, and only a refusal in the statement's own FROM
// clause shows in its explanation.
func TestDifferentialSubqueryPlans(t *testing.T) {
	db := drinksDB()
	for _, tc := range []struct {
		sql  string
		want string
	}{
		{smallSubqueries[0], "vectorized\nresidual=0 aggregated=false\n"},
		{`SELECT COUNT(*) FROM "drinks" WHERE "country" IN (SELECT "country" FROM "drinks" WHERE "wine_servings" > 100)`,
			"vectorized\nscan drinks pushed=0 eq=0\nresidual=1 aggregated=true\n"},
		{`SELECT (SELECT COUNT(*) FROM "nowhere")`, "vectorized\nresidual=0 aggregated=false\n"},
		{`SELECT "country" FROM "drinks" d WHERE "beer_servings" = (SELECT MAX("beer_servings") FROM "drinks" e WHERE e."country" = d."country")`,
			"vectorized\nscan drinks pushed=0 eq=0\nresidual=1 aggregated=false\n"},
		{`SELECT (SELECT a."country" FROM "drinks" a RIGHT JOIN "drinks" b ON a."country" = b."country")`, "vectorized\nresidual=0 aggregated=false\n"},
		{`SELECT a."country" FROM "drinks" a RIGHT JOIN "drinks" b ON a."country" = b."country"`,
			"vectorized\nscan drinks pushed=0 eq=0\nresidual=0 aggregated=false\nfails: sqldb: unsupported SQL feature: RIGHT JOIN\n"},
	} {
		got, err := ExplainQuery(db, tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%q:\ngot  %q\nwant %q", tc.sql, got, tc.want)
		}
	}
}

// TestQueryScalarAllocCeiling pins the allocations of warm one-cell queries
// on a document-sized table. Through a Result, with every small-table
// subquery on the row engine, they were 14 (plain aggregate), 30 (filtered
// aggregate), 26 (lookup) and 94 (percentage). A one-cell query now
// allocates nothing of its own: its plan's output is the cell, and the
// execution's scratch space is the previous execution's.
func TestQueryScalarAllocCeiling(t *testing.T) {
	db := drinksDB()
	for _, tc := range []struct {
		name, sql string
		ceiling   float64
	}{
		{"plain aggregate", `SELECT AVG("total_litres") FROM "drinks"`, 0},
		{"filtered aggregate", `SELECT SUM("spirit_servings") FROM "drinks" WHERE "beer_servings" = 0`, 0},
		{"lookup", `SELECT "spirit_servings" FROM "drinks" WHERE "country" = 'India'`, 0},
		{"percentage", smallSubqueries[0], 0},
	} {
		stmt, err := Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Exec(db, stmt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := res.Scalar()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, err := QueryScalar(db, tc.sql); err != nil || !valueEq(got, want) {
			t.Fatalf("%s: got %#v (%v), want %#v", tc.name, got, err, want)
		}
		allocs := testing.AllocsPerRun(200, func() { _, _ = QueryScalar(db, tc.sql) })
		if allocs > tc.ceiling {
			t.Errorf("%s: %.1f allocations per query, ceiling %.0f", tc.name, allocs, tc.ceiling)
		}
		t.Logf("%s: %.1f allocations per query", tc.name, allocs)
	}
}
