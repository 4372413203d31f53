package data

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/claim"
	"repro/internal/sqldb"
)

// pushdown_test.go is the predicate-pushdown property test: for generated
// safe filters over every table of the JoinBench schemas (flat and
// normalized), the vectorized engine with pushdown enabled must return
// exactly the row oracle's row count — and ExplainQuery must confirm the
// predicate actually pushed into the scan, so the property is not vacuously
// tested against the fallback path.

func quoteIdent(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

func quoteText(s string) string {
	return `'` + strings.ReplaceAll(s, `'`, `''`) + `'`
}

// sampleLit renders a literal drawn from the column's actual values, so
// generated comparisons are selective rather than all-true/all-false.
func sampleLit(rng *rand.Rand, t *sqldb.Table, col int) string {
	for tries := 0; tries < 8 && len(t.Rows) > 0; tries++ {
		v := t.Rows[rng.Intn(len(t.Rows))][col]
		if v.IsNull() {
			continue
		}
		if v.Kind() == sqldb.KindText {
			return quoteText(v.Text())
		}
		return v.String()
	}
	return "0"
}

// safeFilter generates one pushdown-eligible predicate over the table.
func safeFilter(rng *rand.Rand, t *sqldb.Table) string {
	ci := rng.Intn(len(t.Columns))
	col := quoteIdent(t.Columns[ci].Name)
	var p string
	switch rng.Intn(7) {
	case 0:
		p = fmt.Sprintf("%s %s %s", col, []string{"=", "<>", "<", "<=", ">", ">="}[rng.Intn(6)], sampleLit(rng, t, ci))
	case 1:
		p = fmt.Sprintf("%s BETWEEN %s AND %s", col, sampleLit(rng, t, ci), sampleLit(rng, t, ci))
	case 2:
		p = fmt.Sprintf("%s IN (%s, %s)", col, sampleLit(rng, t, ci), sampleLit(rng, t, ci))
	case 3:
		p = fmt.Sprintf("%s IS %sNULL", col, []string{"", "NOT "}[rng.Intn(2)])
	case 4:
		p = fmt.Sprintf("NOT %s = %s", col, sampleLit(rng, t, ci))
	case 5:
		cj := rng.Intn(len(t.Columns))
		p = fmt.Sprintf("%s >= %s OR %s IS NULL", col, sampleLit(rng, t, ci), quoteIdent(t.Columns[cj].Name))
	default:
		cj := rng.Intn(len(t.Columns))
		p = fmt.Sprintf("%s <= %s AND %s IS NOT NULL", col, sampleLit(rng, t, ci), quoteIdent(t.Columns[cj].Name))
	}
	return p
}

// uniqueDatabases collects the distinct databases behind a document set.
func uniqueDatabases(docs []*claim.Document) []*sqldb.Database {
	seen := map[*sqldb.Database]bool{}
	var out []*sqldb.Database
	for _, d := range docs {
		if d.Data != nil && !seen[d.Data] {
			seen[d.Data] = true
			out = append(out, d.Data)
		}
	}
	return out
}

// TestPushdownPreservesRowCounts is the property: pushing a safe filter into
// the scan never changes the number (or content) of surviving rows relative
// to the row-at-a-time oracle, across every table of both JoinBench layouts.
func TestPushdownPreservesRowCounts(t *testing.T) {
	flat, normalized, err := JoinBench(512)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(512))
	checked, pushed := 0, 0
	for _, db := range append(uniqueDatabases(flat), uniqueDatabases(normalized)...) {
		for _, name := range db.TableNames() {
			tab := db.Table(name)
			if tab == nil {
				t.Fatalf("table %q vanished", name)
			}
			if len(tab.Columns) == 0 {
				continue
			}
			for i := 0; i < 12; i++ {
				pred := safeFilter(rng, tab)
				q := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s", quoteIdent(name), pred)

				stmt, err := sqldb.Parse(q)
				if err != nil {
					t.Fatalf("generator produced unparsable SQL: %q: %v", q, err)
				}
				oracle, err := sqldb.Exec(db, stmt) // row engine, no pushdown
				if err != nil {
					t.Fatalf("row oracle rejected %q: %v", q, err)
				}
				got, err := sqldb.Query(db, q) // vectorized, pushdown enabled
				if err != nil {
					t.Fatalf("Query rejected %q: %v", q, err)
				}
				if oracle.String() != got.String() {
					t.Fatalf("pushdown changed the row count:\nsql: %q\noracle: %s\nvectorized: %s", q, oracle.String(), got.String())
				}

				// The same predicate selecting full rows must agree too.
				qrows := fmt.Sprintf("SELECT * FROM %s WHERE %s", quoteIdent(name), pred)
				stmt2, err := sqldb.Parse(qrows)
				if err != nil {
					t.Fatal(err)
				}
				oracleRows, err := sqldb.Exec(db, stmt2)
				if err != nil {
					t.Fatalf("row oracle rejected %q: %v", qrows, err)
				}
				gotRows, err := sqldb.Query(db, qrows)
				if err != nil {
					t.Fatalf("Query rejected %q: %v", qrows, err)
				}
				if oracleRows.String() != gotRows.String() {
					t.Fatalf("pushdown changed row content:\nsql: %q\noracle:\n%s\nvectorized:\n%s", qrows, oracleRows.String(), gotRows.String())
				}

				// Prove the filter actually pushed: the plan must show the
				// scan absorbing at least one conjunct with no residual.
				explain, err := sqldb.ExplainQuery(db, q)
				if err != nil {
					t.Fatal(err)
				}
				if strings.Contains(explain, "pushed=0") || !strings.Contains(explain, "residual=0") {
					t.Fatalf("safe filter did not push down:\nsql: %q\nexplain:\n%s", q, explain)
				}
				checked++
				pushed++
			}

			// Control: an arithmetic predicate is outside the safe subset and
			// must stay residual — while still matching the oracle's count.
			numCol := ""
			for _, c := range tab.Columns {
				if c.Type == sqldb.KindInt || c.Type == sqldb.KindFloat {
					numCol = c.Name
					break
				}
			}
			if numCol != "" {
				q := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s + 0 >= 0", quoteIdent(name), quoteIdent(numCol))
				stmt, err := sqldb.Parse(q)
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := sqldb.Exec(db, stmt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sqldb.Query(db, q)
				if err != nil {
					t.Fatal(err)
				}
				if oracle.String() != got.String() {
					t.Fatalf("residual filter changed the row count:\nsql: %q\noracle: %s\nvectorized: %s", q, oracle.String(), got.String())
				}
				explain, err := sqldb.ExplainQuery(db, q)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(explain, "pushed=0") || !strings.Contains(explain, "residual=1") {
					t.Fatalf("arithmetic predicate unexpectedly pushed:\nsql: %q\nexplain:\n%s", q, explain)
				}
				checked++
			}
		}
	}
	if checked < 100 {
		t.Fatalf("property only exercised %d cases; JoinBench schemas should yield far more", checked)
	}
	t.Logf("pushdown property held on %d cases (%d pushed, %d residual controls)", checked, pushed, checked-pushed)
}

// TestDifferentialImageRoundTripGenerators checks the column image of every
// generator database from outside sqldb: a vectorized SELECT * (ExecVec never
// falls back) projects the image's vectors cell by cell, so its result must be
// bit-equal to Table.Rows. Value is comparable and carries floats as bits,
// so != tells NaN payloads and signed zeros apart.
func TestDifferentialImageRoundTripGenerators(t *testing.T) {
	var docs []*claim.Document
	add := func(ds []*claim.Document, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, ds...)
	}
	add(AggChecker(31))
	add(TabFact(31))
	add(WikiText(31))
	add(UnitConv(31, true))
	add(UnitConv(31, false))
	flat, norm, err := JoinBench(31)
	add(flat, err)
	add(norm, nil)
	dbs := uniqueDatabases(docs)
	rb, err := RouteBench(31)
	if err != nil {
		t.Fatal(err)
	}
	dbs = append(dbs, rb.Databases...)

	tables := 0
	for _, db := range dbs {
		for _, tab := range db.Tables() {
			stmt, err := sqldb.Parse("SELECT * FROM " + quoteIdent(tab.Name))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sqldb.ExecVec(db, stmt)
			if err != nil {
				t.Fatalf("%s.%s: vectorized scan failed: %v", db.Name, tab.Name, err)
			}
			if len(res.Rows) != len(tab.Rows) {
				t.Fatalf("%s.%s: image has %d rows, table %d", db.Name, tab.Name, len(res.Rows), len(tab.Rows))
			}
			for i, row := range tab.Rows {
				for c, want := range row {
					if got := res.Rows[i][c]; got != want {
						t.Fatalf("%s.%s.%s row %d: image holds %#v, Rows hold %#v", db.Name, tab.Name, tab.Columns[c].Name, i, got, want)
					}
				}
			}
			tables++
		}
	}
	if tables < 20 {
		t.Fatalf("only %d generator tables checked", tables)
	}
}
