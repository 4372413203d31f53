package sqldb

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Result is a materialized query result.
type Result struct {
	Cols []string
	Rows [][]Value
}

// Scalar extracts the single cell of a 1x1 result.
func (r *Result) Scalar() (Value, error) {
	if len(r.Cols) != 1 || len(r.Rows) != 1 {
		return Null(), notScalar(len(r.Cols), len(r.Rows))
	}
	return r.Rows[0][0], nil
}

// notScalar is the error of a result that is not one cell.
func notScalar(cols, rows int) error {
	return fmt.Errorf("%w: got %d column(s) x %d row(s)", ErrNotScalar, cols, rows)
}

// String renders the result as a compact pipe-separated table.
func (r *Result) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Cols, " | "))
	for _, row := range r.Rows {
		b.WriteByte('\n')
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		b.WriteString(strings.Join(cells, " | "))
	}
	return b.String()
}

// Query parses and executes a SELECT statement against db. Compiled plans
// are cached on the database keyed by the query text (stmt_cache.go), and
// every statement runs on the vectorized engine: its answer, result or error,
// is the one the row-at-a-time semantics of DESIGN.md §12 define.
func Query(db *Database, sql string) (*Result, error) {
	p, out, err := db.exec(sql, nil)
	if err != nil {
		return nil, err
	}
	return p.result(out), nil
}

// QueryScalar executes sql and returns its single-cell result. Queries used
// for claim verification must produce exactly one cell (Definition 2.4), so
// the cell is the plan's output itself: no Result is built.
func QueryScalar(db *Database, sql string) (Value, error) {
	var one [1]Value
	p, out, err := db.exec(sql, one[:0])
	if err != nil {
		return Null(), err
	}
	if w := len(p.cols); w != 1 || out.n != 1 {
		return Null(), notScalar(w, out.n)
	}
	return out.first(), nil
}

// colBind names one slot of a working row: the effective table name (alias)
// and the column name.
type colBind struct {
	table string
	name  string
}

// outRow is one projected row awaiting the DISTINCT/ORDER BY/LIMIT tail.
type outRow struct {
	cells []Value
	keys  []Value // ORDER BY keys
}

// selectTail is what a SELECT does after projection: DISTINCT, ORDER BY (in
// the keys' directions), OFFSET and LIMIT. Both engines apply it through
// apply, so ordering, deduplication and truncation semantics cannot diverge.
type selectTail struct {
	distinct      bool
	desc          []bool // per ORDER BY key
	offset, limit int    // limit < 0: none
}

func tailOf(stmt *SelectStmt) selectTail {
	t := selectTail{distinct: stmt.Distinct, offset: stmt.Offset, limit: stmt.Limit}
	if len(stmt.OrderBy) > 0 {
		t.desc = make([]bool, len(stmt.OrderBy))
		for k, o := range stmt.OrderBy {
			t.desc[k] = o.Desc
		}
	}
	return t
}

// none reports whether the tail leaves every row where it is.
func (t *selectTail) none() bool {
	return !t.distinct && len(t.desc) == 0 && t.offset <= 0 && t.limit < 0
}

// apply runs the tail over the projected rows.
func (t *selectTail) apply(out []outRow) []outRow {
	if t.distinct {
		seen := make(map[string]bool)
		dedup := out[:0:0]
		for _, r := range out {
			var key strings.Builder
			for _, c := range r.cells {
				key.WriteString(c.key())
			}
			if !seen[key.String()] {
				seen[key.String()] = true
				dedup = append(dedup, r)
			}
		}
		out = dedup
	}

	if len(t.desc) > 0 {
		sort.SliceStable(out, func(i, j int) bool {
			for k, desc := range t.desc {
				c, ok := out[i].keys[k].Compare(out[j].keys[k])
				if !ok {
					// NULLs sort first ascending.
					in, jn := out[i].keys[k].IsNull(), out[j].keys[k].IsNull()
					if in == jn {
						continue
					}
					if desc {
						return jn
					}
					return in
				}
				if c == 0 {
					continue
				}
				if desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}

	if t.offset > 0 {
		if t.offset >= len(out) {
			out = nil
		} else {
			out = out[t.offset:]
		}
	}
	if t.limit >= 0 && t.limit < len(out) {
		out = out[:t.limit]
	}
	return out
}

// joinKey hashes a value for equi-join matching with the same numeric
// coercion Value.Compare applies (text "5" equals integer 5), so the hash
// path agrees with the nested-loop path.
func joinKey(v Value) string {
	if f, ok := v.AsFloat(); ok && v.Kind() != KindBool {
		return Float(f).key()
	}
	return v.key()
}

// equiJoinColumns recognizes ON clauses of the form colA = colB where one
// column resolves in the left binds and the other in the right, returning
// their slot indices. ok is false for any other predicate shape (the join is
// then a nested loop over the ON predicate).
func equiJoinColumns(on Expr, left, right []colBind) (li, ri int, ok bool) {
	be, isBin := on.(*BinaryExpr)
	if !isBin || be.Op != "=" {
		return 0, 0, false
	}
	lc, okL := be.Left.(*ColumnExpr)
	rc, okR := be.Right.(*ColumnExpr)
	if !okL || !okR {
		return 0, 0, false
	}
	// Each column must resolve unambiguously in exactly one side.
	tryResolve := func(c *ColumnExpr, binds []colBind) (int, bool) {
		found := -1
		for i, b := range binds {
			if c.Table != "" && !strings.EqualFold(b.table, c.Table) {
				continue
			}
			if strings.EqualFold(b.name, c.Name) {
				if found >= 0 {
					return -1, false // ambiguous
				}
				found = i
			}
		}
		return found, found >= 0
	}
	if l, okA := tryResolve(lc, left); okA {
		if r, okB := tryResolve(rc, right); okB {
			return l, r, true
		}
	}
	if l, okA := tryResolve(rc, left); okA {
		if r, okB := tryResolve(lc, right); okB {
			return l, r, true
		}
	}
	return 0, 0, false
}

func expandStars(items []SelectItem, binds []colBind) ([]SelectItem, error) {
	var out []SelectItem
	for _, it := range items {
		star, ok := it.Expr.(*StarExpr)
		if !ok {
			out = append(out, it)
			continue
		}
		found := false
		for _, b := range binds {
			if star.Table != "" && !strings.EqualFold(b.table, star.Table) {
				continue
			}
			found = true
			out = append(out, SelectItem{Expr: &ColumnExpr{Table: b.table, Name: b.name}})
		}
		if !found && star.Table != "" {
			return nil, fmt.Errorf("%w: %q for %s.*", ErrUnknownTable, star.Table, star.Table)
		}
	}
	return out, nil
}

func projectionNames(items []SelectItem) []string {
	names := make([]string, len(items))
	for i, it := range items {
		switch {
		case it.Alias != "":
			names[i] = it.Alias
		default:
			if ce, ok := it.Expr.(*ColumnExpr); ok {
				names[i] = ce.Name
			} else {
				names[i] = it.Expr.SQL()
			}
		}
	}
	return names
}

func itemsHaveAggregate(items []SelectItem) bool {
	for _, it := range items {
		if exprHasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

func exprHasAggregate(e Expr) bool {
	switch v := e.(type) {
	case *FuncExpr:
		if v.IsAggregate() {
			return true
		}
		for _, a := range v.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	case *UnaryExpr:
		return exprHasAggregate(v.Expr)
	case *BinaryExpr:
		return exprHasAggregate(v.Left) || exprHasAggregate(v.Right)
	case *BetweenExpr:
		return exprHasAggregate(v.Expr) || exprHasAggregate(v.Lo) || exprHasAggregate(v.Hi)
	case *CastExpr:
		return exprHasAggregate(v.Expr)
	case *CaseExpr:
		for _, w := range v.Whens {
			if exprHasAggregate(w.Cond) || exprHasAggregate(w.Then) {
				return true
			}
		}
		if v.Else != nil {
			return exprHasAggregate(v.Else)
		}
	case *InExpr:
		if exprHasAggregate(v.Expr) {
			return true
		}
		for _, it := range v.List {
			if exprHasAggregate(it) {
				return true
			}
		}
	case *IsNullExpr:
		return exprHasAggregate(v.Expr)
	}
	return false
}

// aggFold folds one aggregate over a group's values in row order, for both
// engines: NULLs skipped, DISTINCT by grouping key, SUM and AVG in a numSum,
// MIN and MAX keeping the first of equal values.
type aggFold struct {
	name     string
	distinct bool
	seen     map[string]bool // DISTINCT's keys
	cnt      int
	sum      numSum
	best     Value
}

func (a *aggFold) add(v Value) error {
	if v.IsNull() {
		return nil
	}
	if a.distinct {
		k := v.key()
		if a.seen[k] {
			return nil
		}
		if a.seen == nil {
			a.seen = make(map[string]bool)
		}
		a.seen[k] = true
	}
	a.cnt++
	switch a.name {
	case "SUM", "AVG":
		if v.Kind() == KindInt {
			a.sum.addInt(v.i64())
			return nil
		}
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("%w: %s over non-numeric value %q", ErrType, a.name, v.String())
		}
		a.sum.addFloat(f)
	case "MIN", "MAX":
		if a.cnt == 1 {
			a.best = v
			return nil
		}
		c, ok := v.Compare(a.best)
		if !ok {
			return fmt.Errorf("%w: %s over incomparable values", ErrType, a.name)
		}
		if (a.name == "MIN" && c < 0) || (a.name == "MAX" && c > 0) {
			a.best = v
		}
	}
	return nil
}

func (a *aggFold) result() (Value, error) {
	switch a.name {
	case "COUNT":
		return Int(int64(a.cnt)), nil
	case "SUM", "AVG":
		return a.sum.result(a.name, a.cnt)
	case "MIN", "MAX":
		return a.best, nil
	}
	return Null(), fmt.Errorf("%w: aggregate %s", ErrUnsupported, a.name)
}

func applyUnary(op string, v Value) (Value, error) {
	switch op {
	case "-":
		switch v.Kind() {
		case KindInt:
			i, _ := v.AsInt()
			return Int(-i), nil
		case KindFloat:
			f, _ := v.AsFloat()
			return Float(-f), nil
		case KindNull:
			return Null(), nil
		}
		return Null(), fmt.Errorf("%w: unary - on %s", ErrType, v.Kind())
	case "NOT":
		if v.IsNull() {
			return Null(), nil
		}
		return Bool(!v.AsBool()), nil
	}
	return Null(), fmt.Errorf("%w: unary operator %q", ErrUnsupported, op)
}

func applyBinary(op string, l, r Value) (Value, error) {
	switch op {
	case "+", "-", "*", "/", "%":
		return applyArith(op, l, r)
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Bool(false), nil
		}
		c, ok := l.Compare(r)
		if !ok {
			// Incomparable values are unequal rather than an error: LLM
			// queries routinely compare text columns to numbers.
			return Bool(op == "<>"), nil
		}
		switch op {
		case "=":
			return Bool(c == 0), nil
		case "<>":
			return Bool(c != 0), nil
		case "<":
			return Bool(c < 0), nil
		case "<=":
			return Bool(c <= 0), nil
		case ">":
			return Bool(c > 0), nil
		case ">=":
			return Bool(c >= 0), nil
		}
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return Bool(false), nil
		}
		return Bool(likeMatch(l.Text(), r.Text())), nil
	case "||":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Text(l.Text() + r.Text()), nil
	}
	return Null(), fmt.Errorf("%w: operator %q", ErrUnsupported, op)
}

func applyArith(op string, l, r Value) (Value, error) {
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}
	lf, ok1 := l.AsFloat()
	rf, ok2 := r.AsFloat()
	if !ok1 || !ok2 {
		return Null(), fmt.Errorf("%w: %s %s %s", ErrType, l.Kind(), op, r.Kind())
	}
	if l.Kind() == KindInt && r.Kind() == KindInt {
		return intArith(op, l.i64(), r.i64())
	}
	return floatArith(op, lf, rf), nil
}

// intArith applies an arithmetic operator to two integers exactly, failing
// with ErrOverflow where the result does not fit in an int64, as DuckDB does
// for BIGINT. Division by zero yields NULL, and division yields a float
// unless the divisor divides exactly (DuckDB's division, so percentage
// queries like COUNT(...)*100.0/COUNT(...) behave as expected).
func intArith(op string, a, b int64) (Value, error) {
	var c int64
	overflow := false
	switch op {
	case "+":
		c = a + b
		overflow = (c^a)&(c^b) < 0
	case "-":
		c = a - b
		overflow = (a^b)&(a^c) < 0
	case "*":
		c = a * b
		overflow = a != 0 && (c/a != b || (a == -1 && b == math.MinInt64))
	case "/", "%":
		switch {
		case b == 0:
			return Null(), nil
		case op == "%":
			return Int(a % b), nil
		case a%b != 0:
			return Float(float64(a) / float64(b)), nil
		}
		c = a / b
		overflow = a == math.MinInt64 && b == -1
	}
	if overflow {
		return Null(), fmt.Errorf("%w: %d %s %d", ErrOverflow, a, op, b)
	}
	return Int(c), nil
}

// floatArith applies an arithmetic operator in float64, the operands of any
// pair that is not two integers. Division or modulo by zero yields NULL.
func floatArith(op string, a, b float64) Value {
	switch op {
	case "+":
		return Float(a + b)
	case "-":
		return Float(a - b)
	case "*":
		return Float(a * b)
	}
	if b == 0 {
		return Null()
	}
	if op == "/" {
		return Float(a / b)
	}
	return Float(math.Mod(a, b))
}

// numSum accumulates SUM and AVG for both engines. AVG, and a SUM with any
// non-integer addend, come from the float64 total. A SUM of integers comes
// from an exact 128-bit total, so it does not depend on the order of the
// addends, and fails with ErrOverflow only when the result does not fit in
// an int64.
type numSum struct {
	f     float64
	hi    int64  // high word of the integer total
	lo    uint64 // low word of the integer total
	mixed bool   // some addend was not an integer
}

func (s *numSum) addInt(x int64) {
	var carry uint64
	s.lo, carry = bits.Add64(s.lo, uint64(x), 0)
	s.hi += x>>63 + int64(carry)
	s.f += float64(x)
}

func (s *numSum) addFloat(x float64) {
	s.f += x
	s.mixed = true
}

// result finishes aggregate name over cnt addends: NULL over none, AVG
// always a float.
func (s *numSum) result(name string, cnt int) (Value, error) {
	switch {
	case cnt == 0:
		return Null(), nil
	case name == "AVG":
		return Float(s.f / float64(cnt)), nil
	case s.mixed:
		return Float(s.f), nil
	case s.hi != int64(s.lo)>>63:
		return Null(), fmt.Errorf("%w: SUM of %d integers", ErrOverflow, cnt)
	}
	return Int(int64(s.lo)), nil
}

// likeMatch implements SQL LIKE with % and _ wildcards, case-insensitively
// (the common configuration for the engines CEDAR targets).
func likeMatch(s, pattern string) bool {
	s = strings.ToLower(s)
	pattern = strings.ToLower(pattern)
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

func applyScalarFunc(name string, args []Value) (Value, error) {
	argc := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%w: %s expects %d argument(s), got %d", ErrType, name, n, len(args))
		}
		return nil
	}
	switch name {
	case "ABS":
		if err := argc(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		if args[0].Kind() == KindInt {
			i, _ := args[0].AsInt()
			if i < 0 {
				i = -i
			}
			return Int(i), nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return Null(), fmt.Errorf("%w: ABS of %s", ErrType, args[0].Kind())
		}
		return Float(math.Abs(f)), nil
	case "ROUND":
		if len(args) != 1 && len(args) != 2 {
			return Null(), fmt.Errorf("%w: ROUND expects 1 or 2 arguments", ErrType)
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return Null(), fmt.Errorf("%w: ROUND of %s", ErrType, args[0].Kind())
		}
		prec := int64(0)
		if len(args) == 2 {
			p, ok := args[1].AsInt()
			if !ok {
				return Null(), fmt.Errorf("%w: ROUND precision", ErrType)
			}
			prec = p
		}
		pow := math.Pow(10, float64(prec))
		r := math.Round(f*pow) / pow
		if prec <= 0 && r == math.Trunc(r) {
			return Int(int64(r)), nil
		}
		return Float(r), nil
	case "LOWER":
		if err := argc(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.ToLower(args[0].Text())), nil
	case "UPPER":
		if err := argc(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.ToUpper(args[0].Text())), nil
	case "LENGTH":
		if err := argc(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Int(int64(len(args[0].Text()))), nil
	case "TRIM":
		if err := argc(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.TrimSpace(args[0].Text())), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null(), nil
	case "NULLIF":
		if err := argc(2); err != nil {
			return Null(), err
		}
		if args[0].Equal(args[1]) {
			return Null(), nil
		}
		return args[0], nil
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return Null(), fmt.Errorf("%w: %s expects 2 or 3 arguments", ErrType, name)
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		s := args[0].Text()
		start, ok := args[1].AsInt()
		if !ok {
			return Null(), fmt.Errorf("%w: %s start", ErrType, name)
		}
		i := int(start) - 1 // SQL is 1-based
		if i < 0 {
			i = 0
		}
		if i > len(s) {
			return Text(""), nil
		}
		out := s[i:]
		if len(args) == 3 {
			n, ok := args[2].AsInt()
			if !ok {
				return Null(), fmt.Errorf("%w: %s length", ErrType, name)
			}
			if int(n) < len(out) {
				out = out[:n]
			}
		}
		return Text(out), nil
	}
	return Null(), fmt.Errorf("%w: function %s", ErrUnsupported, name)
}

func castValue(v Value, k Kind) (Value, error) {
	if v.IsNull() {
		return Null(), nil
	}
	switch k {
	case KindInt:
		if f, ok := v.AsFloat(); ok {
			return Int(int64(f)), nil
		}
		return Null(), fmt.Errorf("%w: cannot cast %q to INTEGER", ErrType, v.String())
	case KindFloat:
		if f, ok := v.AsFloat(); ok {
			return Float(f), nil
		}
		return Null(), fmt.Errorf("%w: cannot cast %q to REAL", ErrType, v.String())
	case KindText:
		return Text(v.String()), nil
	case KindBool:
		return Bool(v.AsBool()), nil
	}
	return Null(), fmt.Errorf("%w: cast to %s", ErrUnsupported, k)
}
