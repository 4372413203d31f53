package sqldb

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchDB builds a JoinBench-shaped fact/dim pair at a fixed cardinality,
// so `go test -bench` can profile the engines directly.
func benchDB(n int) *Database {
	rng := rand.New(rand.NewSource(7))
	db := NewDatabase("bench")
	dimN := n / 8
	dim := NewTable("dim", "k", "name", "w")
	for i := 0; i < dimN; i++ {
		dim.MustAppendRow(Int(int64(i)), Text(fmt.Sprintf("d%03d", i%97)), Float(rng.Float64()*100))
	}
	db.AddTable(dim)
	fact := NewTable("fact", "id", "k", "v")
	for i := 0; i < n; i++ {
		k := Value(Int(int64(rng.Intn(dimN + dimN/4))))
		if rng.Intn(50) == 0 {
			k = Null()
		}
		fact.MustAppendRow(Int(int64(i)), k, Float(rng.Float64()*1000-200))
	}
	db.AddTable(fact)
	return db
}

const benchJoinAgg = `SELECT d.name, COUNT(*), SUM(f.v) FROM fact f JOIN dim d ON f.k = d.k GROUP BY d.name ORDER BY 2 DESC, 1`

func BenchmarkJoinAggRow(b *testing.B) {
	db := benchDB(16000)
	stmt, err := Parse(benchJoinAgg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(db, stmt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinAggVecWarm(b *testing.B) {
	db := benchDB(16000)
	if _, err := Query(db, benchJoinAgg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Query(db, benchJoinAgg); err != nil {
			b.Fatal(err)
		}
	}
}

// lookupDB is the shape of the repository benchmark's lib-bigtable: a 16k-row
// table keyed by a unique text name, flat and split into a surrogate-keyed
// pair, so the three access paths can be profiled without the pipeline.
func lookupDB() *Database {
	const n = 16000
	rng := rand.New(rand.NewSource(11))
	db := NewDatabase("lookup")
	sales := NewTable("sales", "name", "units", "revenue")
	names := NewTable("names", "name_id", "name")
	units := NewTable("sales_units", "name_id", "units")
	for i := 0; i < n; i++ {
		name, u := Text(fmt.Sprintf("acct-%05d", i)), Int(int64(rng.Intn(500)))
		sales.MustAppendRow(name, u, Float(float64(rng.Intn(1_000_000))/100))
		names.MustAppendRow(Int(int64(i+1)), name)
		units.MustAppendRow(Int(int64(i+1)), u)
	}
	db.AddTable(sales)
	db.AddTable(names)
	db.AddTable(units)
	return db
}

const (
	benchLookup     = `SELECT "units" FROM "sales" WHERE "name" = 'acct-07777'`
	benchFold       = `SELECT MAX("revenue") FROM "sales"`
	benchLookupJoin = `SELECT "units" FROM "sales_units" JOIN "names" ON "sales_units"."name_id" = "names"."name_id" WHERE "name" = 'acct-07777'`
)

func benchWarm(b *testing.B, db *Database, q string) {
	if _, err := Query(db, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Query(db, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookupVecWarm(b *testing.B)     { benchWarm(b, lookupDB(), benchLookup) }
func BenchmarkFoldVecWarm(b *testing.B)       { benchWarm(b, lookupDB(), benchFold) }
func BenchmarkLookupJoinVecWarm(b *testing.B) { benchWarm(b, lookupDB(), benchLookupJoin) }
