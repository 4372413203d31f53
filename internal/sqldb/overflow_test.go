package sqldb

import (
	"errors"
	"math"
	"testing"
)

// TestIntegerOverflowAnswers pins integer arithmetic and integer SUM to
// their exact int64 answers on every path — the row engine, the vectorized
// engine, Query and QueryScalar — and to ErrOverflow where the exact answer
// does not fit. Computed through float64, the first case loses its last
// bit and the next two wrap to -2^63 without an error.
func TestIntegerOverflowAnswers(t *testing.T) {
	db := NewDatabase("overflow")
	pair := NewTable("pair", "k", "x")
	pair.MustAppendRow(Int(1), Int(math.MaxInt64))
	pair.MustAppendRow(Int(2), Int(1<<62))
	db.AddTable(pair)
	// Above the access-path threshold an unfiltered SUM is answered from the
	// column's memoised fold.
	wide := NewTable("wide", "x", "y")
	for i := 0; i < 2000; i++ {
		x, y := Int(0), Int(0)
		switch i {
		case 7:
			x, y = Int(math.MaxInt64), Int(math.MaxInt64)
		case 1500:
			x, y = Int(1<<62), Int(1)
		case 1999:
			y = Int(-1)
		}
		wide.MustAppendRow(x, y)
	}
	db.AddTable(wide)

	cases := []struct {
		sql  string
		want int64 // when !overflow
		over bool
	}{
		{sql: "SELECT 9223372036854775806 + 1", want: math.MaxInt64},
		{sql: "SELECT 4611686018427387904 * 2", over: true},
		{sql: "SELECT SUM(x) FROM pair", over: true},
		{sql: "SELECT SUM(CASE WHEN k = 1 THEN 9223372036854775807 WHEN k = 2 THEN 4611686018427387904 END) FROM pair", over: true},
		{sql: "SELECT SUM(x) FROM wide", over: true},
		// An intermediate total past 2^63-1 is no overflow: the sum is exact
		// whatever the order of its addends.
		{sql: "SELECT SUM(y) FROM wide", want: math.MaxInt64},
		{sql: "SELECT SUM(x) FROM pair WHERE k = 1", want: math.MaxInt64},
		{sql: "SELECT x - 1 + 1 FROM pair WHERE k = 1", want: math.MaxInt64},
		{sql: "SELECT x + 1 FROM pair WHERE k = 1", over: true},
		{sql: "SELECT (0 - x - 1) / -1 FROM pair WHERE k = 1", over: true},
		{sql: "SELECT (0 - x - 1) % -1 FROM pair WHERE k = 1", want: 0},
	}
	for _, c := range cases {
		stmt, err := Parse(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		// Twice through Query and QueryScalar: cold, then from the plan
		// cache (and the memoised fold).
		paths := []struct {
			name string
			run  func() (Value, error)
		}{
			{"row", func() (Value, error) { return scalarOf(Exec(db, stmt)) }},
			{"vectorized", func() (Value, error) { return scalarOf(ExecVec(db, stmt)) }},
			{"Query", func() (Value, error) { return scalarOf(Query(db, c.sql)) }},
			{"Query warm", func() (Value, error) { return scalarOf(Query(db, c.sql)) }},
			{"QueryScalar", func() (Value, error) { return QueryScalar(db, c.sql) }},
			{"QueryScalar warm", func() (Value, error) { return QueryScalar(db, c.sql) }},
		}
		for _, p := range paths {
			got, err := p.run()
			switch {
			case c.over && !errors.Is(err, ErrOverflow):
				t.Errorf("%s on %s = %v, %v; want ErrOverflow", c.sql, p.name, got, err)
			case !c.over && (err != nil || got != Int(c.want)):
				t.Errorf("%s on %s = %v (%s), %v; want %d", c.sql, p.name, got, got.Kind(), err, c.want)
			}
		}
	}
}

func scalarOf(r *Result, err error) (Value, error) {
	if err != nil {
		return Null(), err
	}
	return r.Scalar()
}
