// Package sqldb implements the relational substrate CEDAR executes
// verification queries against. It is a self-contained, in-memory SQL engine
// (the paper uses DuckDB) with a lexer, recursive-descent parser, and a
// tree-walking evaluator covering the query surface exercised by the paper's
// workloads: aggregates, WHERE predicates, inner joins, GROUP BY/HAVING,
// scalar and IN subqueries (including correlated ones), ORDER BY/LIMIT,
// arithmetic, CAST, and a set of scalar functions.
package sqldb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types of SQL values.
type Kind int

// Value kinds. Integers and floats are distinct so that COUNT stays integral
// while AVG produces floats, matching conventional SQL output formatting.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "REAL"
	case KindText:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a dynamically typed SQL cell. It is 32 bytes: the int, float
// (as IEEE-754 bits) and bool payloads share the one word n, beside kind and
// the text payload s. Rows, generic vectors and join gathers are all slices
// of Values, so the size is pinned by a test; every field access stays in
// this file.
type Value struct {
	kind Kind
	n    uint64
	s    string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{kind: KindNull} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// Text returns a string value.
func Text(v string) Value { return Value{kind: KindText, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

func (v Value) i64() int64   { return int64(v.n) }
func (v Value) f64() float64 { return math.Float64frombits(v.n) }
func (v Value) truth() bool  { return v.n != 0 }

// Kind returns the value's runtime kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsNumeric reports whether the value is an integer or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// AsFloat converts numeric and boolean values to float64. ok is false for
// NULL and for text that does not parse as a number.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i64()), true
	case KindFloat:
		return v.f64(), true
	case KindBool:
		if v.truth() {
			return 1, true
		}
		return 0, true
	case KindText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	default:
		return 0, false
	}
}

// AsInt converts the value to int64 when it is integral. ok is false for
// NULL, non-numeric text, and floats with a fractional part.
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.i64(), true
	case KindFloat:
		if f := v.f64(); f == math.Trunc(f) {
			return int64(f), true
		}
		return 0, false
	case KindText:
		i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		if err != nil {
			return 0, false
		}
		return i, true
	default:
		return 0, false
	}
}

// AsBool interprets the value as a SQL condition: booleans directly,
// numbers as non-zero, NULL as false (unknown).
func (v Value) AsBool() bool {
	switch v.kind {
	case KindBool:
		return v.truth()
	case KindInt:
		return v.i64() != 0
	case KindFloat:
		return v.f64() != 0
	default:
		return false
	}
}

// Text returns the textual content of a TEXT value, or the formatted form
// of other kinds.
func (v Value) Text() string {
	if v.kind == KindText {
		return v.s
	}
	return v.String()
}

// String renders the value the way result cells are surfaced to the
// verification pipeline and the agent observation channel.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i64(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.f64(), 'f', -1, 64)
	case KindText:
		return v.s
	case KindBool:
		if v.truth() {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Equal reports SQL equality between two values with numeric coercion and
// case-sensitive text comparison. Comparisons involving NULL are false.
func (v Value) Equal(o Value) bool {
	c, ok := v.Compare(o)
	return ok && c == 0
}

// Compare orders two values: -1, 0, or +1. Numeric values compare by value
// across int/float; text compares lexically; booleans false<true. ok is
// false when either side is NULL or the kinds are incomparable.
func (v Value) Compare(o Value) (int, bool) {
	if v.IsNull() || o.IsNull() {
		return 0, false
	}
	if v.IsNumeric() && o.IsNumeric() {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		default:
			return 0, true
		}
	}
	if v.kind == KindText && o.kind == KindText {
		return strings.Compare(v.s, o.s), true
	}
	if v.kind == KindBool && o.kind == KindBool {
		switch {
		case v.truth() == o.truth():
			return 0, true
		case !v.truth():
			return -1, true
		default:
			return 1, true
		}
	}
	// Mixed text/number: attempt numeric coercion of the text side, the
	// permissive behaviour of engines like SQLite that claim queries rely
	// on when CSV columns are typed as text.
	if v.IsNumeric() && o.kind == KindText {
		if f, ok := o.AsFloat(); ok {
			return v.Compare(Float(f))
		}
	}
	if v.kind == KindText && o.IsNumeric() {
		if f, ok := v.AsFloat(); ok {
			return Float(f).Compare(o)
		}
	}
	return 0, false
}

// key returns a map key identifying the value for GROUP BY and DISTINCT.
func (v Value) key() string {
	switch v.kind {
	case KindNull:
		return "\x00N"
	case KindInt:
		return "\x00I" + strconv.FormatInt(v.i64(), 10)
	case KindFloat:
		f := v.f64()
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			// Integral floats group with equal ints.
			return "\x00I" + strconv.FormatInt(int64(f), 10)
		}
		return "\x00F" + strconv.FormatFloat(f, 'b', -1, 64)
	case KindText:
		return "\x00T" + v.s
	case KindBool:
		if v.truth() {
			return "\x00B1"
		}
		return "\x00B0"
	default:
		return "\x00?"
	}
}

// Vec is a typed column vector: the storage of a table's column image and the
// unit of data the vectorized executor moves between operators. A column whose
// non-NULL values are uniformly int, float, text or bool is stored unboxed;
// one that mixes kinds demotes to generic Value storage on first mismatch. All
// accessors reconstruct exactly the Value a row-at-a-time evaluator would
// have seen, so the two engines cannot diverge through storage. Image vectors
// and their windows are shared between concurrent queries: operators read
// them and build new vectors, and never append to or write through a vector
// they did not create.
type Vec struct {
	kind   Kind // unboxed storage kind; KindNull selects generic storage
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	nulls  []bool  // NULL mask parallel to unboxed storage; nil while no NULL was stored
	any    []Value // generic storage
	// bcast > 0 marks an expression result that is its one stored element
	// repeated bcast times (a literal, a scalar subquery). Batch columns are
	// never broadcast, so Append, Gather and window do not handle it.
	bcast int
}

// NewVec returns an empty vector with unboxed storage for kind (KindNull
// selects generic storage) and capacity for n values.
func NewVec(kind Kind, n int) *Vec {
	v := &Vec{kind: kind}
	switch kind {
	case KindInt:
		v.ints = make([]int64, 0, n)
	case KindFloat:
		v.floats = make([]float64, 0, n)
	case KindText:
		v.strs = make([]string, 0, n)
	case KindBool:
		v.bools = make([]bool, 0, n)
	default:
		v.kind, v.any = KindNull, make([]Value, 0, n)
	}
	return v
}

// broadcast returns val repeated n times without materializing the copies.
func broadcast(val Value, n int) *Vec {
	v := NewVec(val.kind, 1)
	if n > 0 {
		v.Append(val)
		v.bcast = n
	}
	return v
}

// Len returns the number of values in the vector.
func (v *Vec) Len() int {
	if v.bcast > 0 {
		return v.bcast
	}
	switch v.kind {
	case KindInt:
		return len(v.ints)
	case KindFloat:
		return len(v.floats)
	case KindText:
		return len(v.strs)
	case KindBool:
		return len(v.bools)
	default:
		return len(v.any)
	}
}

// At returns the i'th value.
func (v *Vec) At(i int) Value {
	if v.bcast > 0 {
		i = 0
	}
	if v.nulls != nil && v.nulls[i] {
		return Null()
	}
	switch v.kind {
	case KindInt:
		return Int(v.ints[i])
	case KindFloat:
		return Float(v.floats[i])
	case KindText:
		return Text(v.strs[i])
	case KindBool:
		return Bool(v.bools[i])
	default:
		return v.any[i]
	}
}

// Append adds a value, demoting the vector to generic storage when the
// value's kind does not match the unboxed storage kind.
func (v *Vec) Append(val Value) {
	if v.kind == KindNull {
		v.any = append(v.any, val)
		return
	}
	null := val.kind == KindNull
	if !null && val.kind != v.kind {
		v.demote()
		v.any = append(v.any, val)
		return
	}
	if null && v.nulls == nil {
		n := v.Len()
		v.nulls = make([]bool, n, n+1)
	}
	if v.nulls != nil {
		v.nulls = append(v.nulls, null)
	}
	switch v.kind { // a NULL stores the zero payload under its mask bit
	case KindInt:
		v.ints = append(v.ints, val.i64())
	case KindFloat:
		v.floats = append(v.floats, val.f64())
	case KindText:
		v.strs = append(v.strs, val.s)
	case KindBool:
		v.bools = append(v.bools, val.truth())
	}
}

// demote rewrites unboxed storage as generic Values.
func (v *Vec) demote() {
	n := v.Len()
	any := make([]Value, n, n+1)
	for i := range any {
		any[i] = v.At(i)
	}
	*v = Vec{any: any}
}

// gather returns src[idx[0]], src[idx[1]], ... with the zero value for a
// negative index.
func gather[T any](src []T, idx []int32) []T {
	out := make([]T, len(idx))
	for k, i := range idx {
		if i >= 0 {
			out[k] = src[i]
		}
	}
	return out
}

// Gather returns a new vector holding v[idx[0]], v[idx[1]], ... A negative
// index yields NULL (used for the padding side of outer joins).
func (v *Vec) Gather(idx []int32) *Vec {
	out := &Vec{kind: v.kind}
	switch v.kind {
	case KindInt:
		out.ints = gather(v.ints, idx)
	case KindFloat:
		out.floats = gather(v.floats, idx)
	case KindText:
		out.strs = gather(v.strs, idx)
	case KindBool:
		out.bools = gather(v.bools, idx)
	default:
		out.any = gather(v.any, idx) // the zero Value is NULL
		return out
	}
	for k, i := range idx {
		if i < 0 || (v.nulls != nil && v.nulls[i]) {
			if out.nulls == nil {
				out.nulls = make([]bool, len(idx))
			}
			out.nulls[k] = true
		}
	}
	return out
}

// window points v at src[lo:hi] without copying. Every slice is clipped to
// capacity hi-lo, so an append through the view reallocates instead of
// writing into src's storage.
func (v *Vec) window(src *Vec, lo, hi int) {
	*v = Vec{kind: src.kind}
	switch src.kind {
	case KindInt:
		v.ints = src.ints[lo:hi:hi]
	case KindFloat:
		v.floats = src.floats[lo:hi:hi]
	case KindText:
		v.strs = src.strs[lo:hi:hi]
	case KindBool:
		v.bools = src.bools[lo:hi:hi]
	default:
		v.any = src.any[lo:hi:hi]
	}
	if src.nulls != nil {
		v.nulls = src.nulls[lo:hi:hi]
	}
}

// IsNullAt reports whether the i'th value is NULL without boxing it.
func (v *Vec) IsNullAt(i int) bool {
	if v.bcast > 0 {
		i = 0
	}
	if v.kind == KindNull {
		return v.any[i].IsNull()
	}
	return v.nulls != nil && v.nulls[i]
}

// appendKey appends the i'th value's grouping key (Value.key) to dst. The
// unboxed integer and text paths mirror Value.key's "\x00I" + decimal and
// "\x00T" + text forms directly.
func (v *Vec) appendKey(i int, dst []byte) []byte {
	if v.bcast == 0 && !v.IsNullAt(i) {
		switch v.kind {
		case KindInt:
			return strconv.AppendInt(append(dst, 0, 'I'), v.ints[i], 10)
		case KindText:
			return append(append(dst, 0, 'T'), v.strs[i]...)
		}
	}
	return append(dst, v.At(i).key()...)
}

// inferLiteral converts raw text (e.g. from CSV ingestion) to the most
// specific value kind: integer, float, then text. Empty strings become NULL.
func inferLiteral(raw string) Value {
	t := strings.TrimSpace(raw)
	if t == "" {
		return Null()
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return Float(f)
	}
	return Text(raw)
}
