package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// buildJoinDB constructs two relations with a shared key and known join
// cardinalities for cross-checking hash vs nested-loop execution.
func buildJoinDB(rows int, rng *rand.Rand) *Database {
	db := NewDatabase("jj")
	a := NewTable("a", "id", "av")
	b := NewTable("b", "id", "bv")
	for i := 0; i < rows; i++ {
		a.MustAppendRow(Int(int64(rng.Intn(rows/2+1))), Int(int64(i)))
		b.MustAppendRow(Int(int64(rng.Intn(rows/2+1))), Int(int64(i*10)))
	}
	// Some NULL keys on both sides: they must never match.
	a.MustAppendRow(Null(), Int(-1))
	b.MustAppendRow(Null(), Int(-2))
	db.AddTable(a)
	db.AddTable(b)
	return db
}

// TestHashJoinMatchesNestedLoop cross-checks the hash-join fast path
// against the nested-loop fallback on random data: the equi-join form takes
// the hash path, an equivalent-but-obfuscated ON expression forces the
// nested loop, and both must agree.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		db := buildJoinDB(30, rng)
		hashed, err := Query(db, `SELECT COUNT(*) FROM a JOIN b ON a.id = b.id`)
		if err != nil {
			t.Fatal(err)
		}
		// (a.id = b.id) AND TRUE is not a bare equi-join, so it nested-loops.
		looped, err := Query(db, `SELECT COUNT(*) FROM a JOIN b ON a.id = b.id AND TRUE`)
		if err != nil {
			t.Fatal(err)
		}
		if hashed.String() != looped.String() {
			t.Fatalf("trial %d: hash %v vs loop %v", trial, hashed, looped)
		}
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	db := NewDatabase("lj")
	a := NewTable("a", "id")
	for i := 1; i <= 4; i++ {
		a.MustAppendRow(Int(int64(i)))
	}
	b := NewTable("b", "id", "v")
	b.MustAppendRow(Int(2), Text("two"))
	b.MustAppendRow(Int(4), Text("four"))
	db.AddTable(a)
	db.AddTable(b)
	res, err := Query(db, `SELECT a.id, b.v FROM a LEFT JOIN b ON a.id = b.id ORDER BY a.id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !res.Rows[0][1].IsNull() || res.Rows[1][1].Text() != "two" {
		t.Errorf("left join padding wrong: %v", res)
	}
}

func TestHashJoinNumericCoercion(t *testing.T) {
	// Text "5" must join with integer 5 on both execution paths, matching
	// Value.Compare's coercion.
	db := NewDatabase("co")
	a := NewTable("a", "k")
	a.MustAppendRow(Text("5"))
	a.MustAppendRow(Text("x"))
	b := NewTable("b", "k")
	b.MustAppendRow(Int(5))
	db.AddTable(a)
	db.AddTable(b)
	hashed, err := QueryScalar(db, `SELECT COUNT(*) FROM a JOIN b ON a.k = b.k`)
	if err != nil {
		t.Fatal(err)
	}
	looped, err := QueryScalar(db, `SELECT COUNT(*) FROM a JOIN b ON a.k = b.k AND TRUE`)
	if err != nil {
		t.Fatal(err)
	}
	if hashed.String() != looped.String() || hashed.String() != "1" {
		t.Errorf("hash %v vs loop %v", hashed, looped)
	}
}

// TestHashJoinMatchesIntKeys pins the index-probed join of integer keys to
// the row engine's matching at the places they could part: duplicate and NULL
// keys, left keys outside the right side's range, int64 extremes, and the
// 2^53 boundary, from which distinct integers share a float64 image (so
// 2^53+1 joins 2^53, as joinKey has it).
func TestHashJoinMatchesIntKeys(t *testing.T) {
	const p53 = int64(1) << 53
	for name, keys := range map[string][2][]Value{
		"dense":      {{Int(3), Int(1), Null(), Int(7), Int(2), Int(3), Int(-40)}, {Int(2), Int(3), Null(), Int(3), Int(5), Int(1)}},
		"extremes":   {{Int(-1 << 63), Int(1<<63 - 1), Int(0), Int(p53 + 1)}, {Int(0), Int(1), Int(2)}},
		"below 2^53": {{Int(p53 - 1), Int(p53), Int(p53 + 1)}, {Int(p53 - 2), Int(p53 - 1)}},
		"at 2^53":    {{Int(p53 - 1), Int(p53), Int(p53 + 1)}, {Int(p53 - 1), Int(p53)}},
		"sparse":     {{Int(5), Int(1 << 40)}, {Int(5), Int(1 << 40)}},
	} {
		checkJoinKeys(t, name, keys)
	}
}

// TestHashJoinMatchesKeyKinds holds the keys that do not probe a numeric
// index to the row engine: text that joinKey coerces ('5' meets 5.0, '5.0'
// meets 5), bools, mixed storage, and NaN, which only the Go API can store
// and which joinKey matches to another NaN but no number. NaN on the left
// alone probes the right side's numeric index and matches nothing.
func TestHashJoinMatchesKeyKinds(t *testing.T) {
	nan := Float(math.NaN())
	for name, keys := range map[string][2][]Value{
		"text vs float":  {{Text("5"), Text("5.0"), Text("x"), Null(), Text("05")}, {Float(5), Float(5.5), Null(), Float(5)}},
		"float vs text":  {{Float(5), Int(7), Float(-0.0)}, {Text("5"), Text("7.0"), Text("0"), Text("seven")}},
		"bool":           {{Bool(true), Bool(false), Null(), Bool(true)}, {Bool(false), Bool(true), Bool(true)}},
		"bool vs int":    {{Bool(true), Bool(false)}, {Int(1), Int(0)}},
		"mixed":          {{Int(3), Text("3"), Float(2.5), Null(), Bool(true)}, {Float(3), Text("2.5"), Int(1)}},
		"NaN right":      {{Float(1), nan, Float(2), nan}, {nan, Float(2), Float(2), nan}},
		"NaN left":       {{nan, Float(1), Float(2)}, {Float(2), Float(1), Float(1)}},
		"NaN vs int":     {{Int(0), Int(1)}, {nan, Float(1)}},
		"signed zero":    {{Float(0), Float(-0.0), Int(0)}, {Float(-0.0), Int(0)}},
		"int vs float":   {{Int(1), Int(2), Int(3)}, {Float(1), Float(2.5), Float(3)}},
		"all NULL right": {{Int(1), Null()}, {Null(), Null()}},
	} {
		checkJoinKeys(t, name, keys)
	}
}

// checkJoinKeys loads keys as l.k and r.k, each row tagged with its number,
// and holds an inner, a LEFT and a nested-loop join of them to the oracle.
func checkJoinKeys(t *testing.T, name string, keys [2][]Value) {
	t.Helper()
	db := NewDatabase(name)
	for side, tab := range []string{"l", "r"} {
		tb := NewTable(tab, "k", "tag")
		for i, k := range keys[side] {
			tb.MustAppendRow(k, Int(int64(i)))
		}
		db.AddTable(tb)
	}
	for _, q := range []string{
		`SELECT l.tag, r.tag FROM l JOIN r ON l.k = r.k`,
		`SELECT l.tag, r.tag FROM l LEFT JOIN r ON l.k = r.k`,
		`SELECT l.tag, r.tag FROM l JOIN r ON l.k = r.k AND TRUE`, // nested loop
	} {
		if !checkDifferential(t, db, q) {
			t.Errorf("%s: %q did not run vectorized", name, q)
		}
	}
}

func TestEquiJoinDetection(t *testing.T) {
	db := buildJoinDB(5, rand.New(rand.NewSource(1)))
	// Non-equality ON must still work via nested loop.
	v, err := QueryScalar(db, `SELECT COUNT(*) FROM a JOIN b ON a.id < b.id`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := v.AsInt(); n <= 0 {
		t.Errorf("inequality join count = %v", v)
	}
	// ON referencing only one side falls back without error.
	if _, err := Query(db, `SELECT COUNT(*) FROM a JOIN b ON a.id = a.av`); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkHashVsNestedJoin quantifies the hash-join speedup the engine
// gets on equi-joins (the JoinBench workloads join per claim).
func BenchmarkHashVsNestedJoin(b *testing.B) {
	db := buildJoinDB(400, rand.New(rand.NewSource(7)))
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Query(db, `SELECT COUNT(*) FROM a JOIN b ON a.id = b.id`); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nested", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Query(db, `SELECT COUNT(*) FROM a JOIN b ON a.id = b.id AND TRUE`); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestJoinSelfConsistencyProperty: for random key ranges, COUNT over the
// join equals the sum over shared keys of the product of per-side
// multiplicities.
func TestJoinSelfConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(40)
		db := NewDatabase("p")
		a := NewTable("a", "k")
		b := NewTable("b", "k")
		countA := map[int64]int64{}
		countB := map[int64]int64{}
		for i := 0; i < n; i++ {
			ka := int64(rng.Intn(8))
			kb := int64(rng.Intn(8))
			a.MustAppendRow(Int(ka))
			b.MustAppendRow(Int(kb))
			countA[ka]++
			countB[kb]++
		}
		db.AddTable(a)
		db.AddTable(b)
		var want int64
		for k, ca := range countA {
			want += ca * countB[k]
		}
		v, err := QueryScalar(db, `SELECT COUNT(*) FROM a JOIN b ON a.k = b.k`)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := v.AsInt(); got != want {
			t.Fatalf("trial %d (n=%d): join count %d want %d", trial, n, got, want)
		}
	}
}

func ExampleQuery_join() {
	db := NewDatabase("shop")
	customers := NewTable("customers", "id", "name")
	customers.MustAppendRow(Int(1), Text("Ada"))
	orders := NewTable("orders", "customer_id", "total")
	orders.MustAppendRow(Int(1), Float(99.5))
	orders.MustAppendRow(Int(1), Float(0.5))
	db.AddTable(customers)
	db.AddTable(orders)
	v, _ := QueryScalar(db, `SELECT SUM(o.total) FROM orders o JOIN customers c ON o.customer_id = c.id WHERE c.name = 'Ada'`)
	fmt.Println(v)
	// Output: 100
}
