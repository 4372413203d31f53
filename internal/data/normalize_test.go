package data

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sqldb"
)

// salesTable is shaped like the table lib-bigtable ingests and normalizes,
// with every tenth revenue NULL (the first row's included) so column kinds
// refine past NULL.
func salesTable(rows int) *sqldb.Table {
	teams := []string{"north", "south", "east", "west", "central", "coastal"}
	t := sqldb.NewTable("sales", "name", "team", "units", "revenue", "discounted", "day")
	for i := 0; i < rows; i++ {
		revenue := sqldb.Float(float64(i*37%1_000_000) / 100)
		if i%10 == 0 {
			revenue = sqldb.Null()
		}
		t.MustAppendRow(sqldb.Text(fmt.Sprintf("acct-%05d", i)), sqldb.Text(teams[i%len(teams)]),
			sqldb.Int(int64(i%500)), revenue, sqldb.Bool(i%3 == 1),
			sqldb.Text(fmt.Sprintf("2024-%02d-%02d", 1+i%12, 1+i%28)))
	}
	return t
}

// TestNormalizeTableMatchesAppendRow builds every split table as one
// MustAppendRow of a fresh two-Value row per flat row, and requires
// NormalizeTable's tables to equal them: names, column kinds, cells.
func TestNormalizeTableMatchesAppendRow(t *testing.T) {
	flat := salesTable(3000)
	db, err := NormalizeTable(flat, "sales_norm")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(db.Tables()); got != len(flat.Columns) {
		t.Fatalf("%d tables, want %d", got, len(flat.Columns))
	}
	for ci, c := range flat.Columns {
		name := flat.Name
		if ci > 0 {
			name += "_" + strings.ToLower(c.Name)
		}
		want := sqldb.NewTable(name, "name_id", c.Name)
		for r := 0; r < flat.NumRows(); r++ {
			want.MustAppendRow(sqldb.Int(int64(r+1)), flat.Cell(r, ci))
		}
		got := db.Table(name)
		if got == nil {
			t.Fatalf("no table %s", name)
		}
		if got.Name != want.Name || !reflect.DeepEqual(got.Columns, want.Columns) || !sameCells(got, want) {
			t.Errorf("table %s: columns %v, want %v (or rows differ)", name, got.Columns, want.Columns)
		}
	}
}

// sameCells reports whether a and b hold bit-equal cells.
func sameCells(a, b *sqldb.Table) bool {
	if a.NumRows() != b.NumRows() || len(a.Columns) != len(b.Columns) {
		return false
	}
	for r := 0; r < a.NumRows(); r++ {
		for c := range a.Columns {
			if a.Cell(r, c) != b.Cell(r, c) {
				return false
			}
		}
	}
	return true
}

var benchNormalized *sqldb.Database

// BenchmarkNormalizeTable splits a 16,000-row table shaped like
// lib-bigtable's into its six keyed tables.
func BenchmarkNormalizeTable(b *testing.B) {
	flat := salesTable(16000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := NormalizeTable(flat, "sales_norm")
		if err != nil {
			b.Fatal(err)
		}
		benchNormalized = db
	}
}
