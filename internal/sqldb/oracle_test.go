package sqldb

import (
	"fmt"
	"strings"
)

// oracle_test.go is the row-at-a-time executor, the semantic oracle the
// vectorized engine is held to: it walks the parsed statement one row at a
// time, evaluating expressions by name against an environment of the current
// row and, through parent, the rows of enclosing queries. It shares every
// kernel with the product (applyBinary, aggFold, applyScalarFunc, castValue,
// selectTail, ...), so the differential tests compare the two evaluation
// orders, not two copies of the arithmetic.

// Exec executes a parsed statement against db on the row-at-a-time
// evaluator — the semantic oracle the vectorized engine is differentially
// tested against.
func Exec(db *Database, stmt *SelectStmt) (*Result, error) {
	ex := &executor{db: db}
	return ex.execSelect(stmt, nil)
}

// env gives expression evaluation access to the current working row and,
// through parent, to outer rows of enclosing (correlated) queries.
type env struct {
	binds  []colBind
	row    []Value
	parent *env
}

func (e *env) lookup(table, name string) (Value, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		for i, b := range cur.binds {
			if table != "" && !strings.EqualFold(b.table, table) {
				continue
			}
			if strings.EqualFold(b.name, name) {
				return cur.row[i], true
			}
		}
	}
	return Null(), false
}

type executor struct {
	db *Database
}

// workingSet is the row stream produced by FROM/JOIN evaluation.
type workingSet struct {
	binds []colBind
	rows  [][]Value
}

func (ex *executor) execSelect(stmt *SelectStmt, outer *env) (*Result, error) {
	ws, err := ex.buildFrom(stmt, outer)
	if err != nil {
		return nil, err
	}
	// WHERE
	if stmt.Where != nil {
		filtered := ws.rows[:0:0]
		for _, row := range ws.rows {
			e := &env{binds: ws.binds, row: row, parent: outer}
			v, err := ex.eval(stmt.Where, e)
			if err != nil {
				return nil, err
			}
			if v.AsBool() {
				filtered = append(filtered, row)
			}
		}
		ws.rows = filtered
	}
	items, err := expandStars(stmt.Items, ws.binds)
	if err != nil {
		return nil, err
	}
	aggregated := len(stmt.GroupBy) > 0 || stmt.Having != nil || itemsHaveAggregate(items)

	var out []outRow
	cols := projectionNames(items)

	if aggregated {
		groups, err := ex.groupRows(stmt, ws, outer)
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			genv := &groupEnv{ex: ex, ws: ws, rows: g, outer: outer}
			if stmt.Having != nil {
				hv, err := genv.eval(stmt.Having)
				if err != nil {
					return nil, err
				}
				if !hv.AsBool() {
					continue
				}
			}
			row := outRow{}
			for _, it := range items {
				v, err := genv.eval(it.Expr)
				if err != nil {
					return nil, err
				}
				row.cells = append(row.cells, v)
			}
			for _, o := range stmt.OrderBy {
				v, err := ex.orderKey(o.Expr, items, row.cells, func(e Expr) (Value, error) { return genv.eval(e) })
				if err != nil {
					return nil, err
				}
				row.keys = append(row.keys, v)
			}
			out = append(out, row)
		}
	} else {
		for _, r := range ws.rows {
			e := &env{binds: ws.binds, row: r, parent: outer}
			row := outRow{}
			for _, it := range items {
				v, err := ex.eval(it.Expr, e)
				if err != nil {
					return nil, err
				}
				row.cells = append(row.cells, v)
			}
			for _, o := range stmt.OrderBy {
				v, err := ex.orderKey(o.Expr, items, row.cells, func(x Expr) (Value, error) { return ex.eval(x, e) })
				if err != nil {
					return nil, err
				}
				row.keys = append(row.keys, v)
			}
			out = append(out, row)
		}
		// Table-less SELECT (FROM absent) evaluates once over no bindings.
		if stmt.From == nil {
			e := &env{parent: outer}
			row := outRow{}
			for _, it := range items {
				v, err := ex.eval(it.Expr, e)
				if err != nil {
					return nil, err
				}
				row.cells = append(row.cells, v)
			}
			out = []outRow{row}
		}
	}

	return finishSelect(stmt, cols, out), nil
}

// finishSelect applies the statement tail and assembles the row engine's
// result.
func finishSelect(stmt *SelectStmt, cols []string, out []outRow) *Result {
	tail := tailOf(stmt)
	out = tail.apply(out)
	res := &Result{Cols: cols}
	for _, r := range out {
		res.Rows = append(res.Rows, r.cells)
	}
	return res
}

// orderKey evaluates an ORDER BY expression, resolving bare names that match
// a projection alias to the already-computed cell.
func (ex *executor) orderKey(e Expr, items []SelectItem, cells []Value, evalFn func(Expr) (Value, error)) (Value, error) {
	if ce, ok := e.(*ColumnExpr); ok && ce.Table == "" {
		for i, it := range items {
			if strings.EqualFold(it.Alias, ce.Name) {
				return cells[i], nil
			}
		}
	}
	// ORDER BY ordinal (1-based).
	if le, ok := e.(*LiteralExpr); ok {
		if n, ok := le.Val.AsInt(); ok && n >= 1 && int(n) <= len(cells) {
			return cells[n-1], nil
		}
	}
	return evalFn(e)
}

func (ex *executor) buildFrom(stmt *SelectStmt, outer *env) (*workingSet, error) {
	if stmt.From == nil {
		return &workingSet{}, nil
	}
	ws, err := ex.scanTable(*stmt.From)
	if err != nil {
		return nil, err
	}
	for _, j := range stmt.Joins {
		if j.Kind == "RIGHT" {
			return nil, fmt.Errorf("%w: RIGHT JOIN", ErrUnsupported)
		}
		right, err := ex.scanTable(j.Table)
		if err != nil {
			return nil, err
		}
		joined, err := ex.joinSets(ws, right, j, outer)
		if err != nil {
			return nil, err
		}
		ws = joined
	}
	return ws, nil
}

// joinSets combines two working sets under a join clause. Simple equi-joins
// (ON a.x = b.y with one side per input) run as hash joins; everything else
// falls back to a nested loop with the ON predicate as filter.
func (ex *executor) joinSets(left, right *workingSet, j JoinClause, outer *env) (*workingSet, error) {
	joined := &workingSet{binds: append(append([]colBind{}, left.binds...), right.binds...)}
	if li, ri, ok := equiJoinColumns(j.On, left.binds, right.binds); ok {
		// Hash join: build on the right side, probe with the left.
		build := make(map[string][]int, len(right.rows))
		for idx, rr := range right.rows {
			v := rr[ri]
			if v.IsNull() {
				continue // NULL keys never match in SQL equality
			}
			build[joinKey(v)] = append(build[joinKey(v)], idx)
		}
		for _, lr := range left.rows {
			v := lr[li]
			var matches []int
			if !v.IsNull() {
				matches = build[joinKey(v)]
			}
			for _, idx := range matches {
				joined.rows = append(joined.rows, append(append([]Value{}, lr...), right.rows[idx]...))
			}
			if len(matches) == 0 && j.Kind == "LEFT" {
				joined.rows = append(joined.rows, append(append([]Value{}, lr...), nullRow(len(right.binds))...))
			}
		}
		return joined, nil
	}
	for _, lr := range left.rows {
		matched := false
		for _, rr := range right.rows {
			combined := append(append([]Value{}, lr...), rr...)
			if j.On != nil {
				e := &env{binds: joined.binds, row: combined, parent: outer}
				v, err := ex.eval(j.On, e)
				if err != nil {
					return nil, err
				}
				if !v.AsBool() {
					continue
				}
			}
			matched = true
			joined.rows = append(joined.rows, combined)
		}
		if !matched && j.Kind == "LEFT" {
			joined.rows = append(joined.rows, append(append([]Value{}, lr...), nullRow(len(right.binds))...))
		}
	}
	return joined, nil
}

func nullRow(n int) []Value {
	nulls := make([]Value, n)
	for i := range nulls {
		nulls[i] = Null()
	}
	return nulls
}

func (ex *executor) scanTable(ref TableRef) (*workingSet, error) {
	t := ex.db.Table(ref.Name)
	if t == nil {
		var names []string
		for _, t := range ex.db.Tables() {
			names = append(names, t.Name)
		}
		return nil, fmt.Errorf("%w: %q (available: %s)", ErrUnknownTable, ref.Name, strings.Join(names, ", "))
	}
	eff := ref.EffectiveName()
	ws := &workingSet{}
	for _, c := range t.Columns {
		ws.binds = append(ws.binds, colBind{table: eff, name: c.Name})
	}
	ws.rows = tableRows(t)
	return ws, nil
}

// tableRows returns t's cells row by row, as the oracle's working sets hold
// them.
func tableRows(t *Table) [][]Value {
	rows := make([][]Value, t.NumRows())
	for r := range rows {
		rows[r] = make([]Value, len(t.Columns))
		for c := range rows[r] {
			rows[r][c] = t.Cell(r, c)
		}
	}
	return rows
}

// groupRows partitions the working set by the GROUP BY keys. With no GROUP
// BY the entire set forms one group (even when empty, so that aggregates
// over empty inputs produce a row).
func (ex *executor) groupRows(stmt *SelectStmt, ws *workingSet, outer *env) ([][][]Value, error) {
	if len(stmt.GroupBy) == 0 {
		return [][][]Value{ws.rows}, nil
	}
	index := make(map[string]int)
	var groups [][][]Value
	for _, row := range ws.rows {
		e := &env{binds: ws.binds, row: row, parent: outer}
		var key strings.Builder
		for _, g := range stmt.GroupBy {
			v, err := ex.eval(g, e)
			if err != nil {
				return nil, err
			}
			key.WriteString(v.key())
		}
		k := key.String()
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], row)
	}
	return groups, nil
}

// groupEnv evaluates expressions in aggregate context: aggregate calls fold
// over the group's rows, column references and subqueries evaluate against
// the group's first row, and every other operator applies to its operands'
// aggregate-context values.
type groupEnv struct {
	ex    *executor
	ws    *workingSet
	rows  [][]Value
	outer *env
}

func (g *groupEnv) firstEnv() *env {
	if len(g.rows) == 0 {
		// Empty group (aggregate over empty input): all columns NULL.
		nulls := make([]Value, len(g.ws.binds))
		for i := range nulls {
			nulls[i] = Null()
		}
		return &env{binds: g.ws.binds, row: nulls, parent: g.outer}
	}
	return &env{binds: g.ws.binds, row: g.rows[0], parent: g.outer}
}

func (g *groupEnv) eval(e Expr) (Value, error) {
	switch v := e.(type) {
	case *FuncExpr:
		if v.IsAggregate() {
			return g.evalAggregate(v)
		}
		args := make([]Value, len(v.Args))
		for i, a := range v.Args {
			av, err := g.eval(a)
			if err != nil {
				return Null(), err
			}
			args[i] = av
		}
		return applyScalarFunc(v.Name, args)
	case *UnaryExpr:
		inner, err := g.eval(v.Expr)
		if err != nil {
			return Null(), err
		}
		return applyUnary(v.Op, inner)
	case *BinaryExpr:
		if v.Op == "AND" || v.Op == "OR" {
			l, err := g.eval(v.Left)
			if err != nil {
				return Null(), err
			}
			if v.Op == "AND" && !l.AsBool() {
				return Bool(false), nil
			}
			if v.Op == "OR" && l.AsBool() {
				return Bool(true), nil
			}
			r, err := g.eval(v.Right)
			if err != nil {
				return Null(), err
			}
			return Bool(r.AsBool()), nil
		}
		l, err := g.eval(v.Left)
		if err != nil {
			return Null(), err
		}
		r, err := g.eval(v.Right)
		if err != nil {
			return Null(), err
		}
		return applyBinary(v.Op, l, r)
	case *CastExpr:
		inner, err := g.eval(v.Expr)
		if err != nil {
			return Null(), err
		}
		return castValue(inner, v.Type)
	case *CaseExpr:
		for _, w := range v.Whens {
			c, err := g.eval(w.Cond)
			if err != nil {
				return Null(), err
			}
			if c.AsBool() {
				return g.eval(w.Then)
			}
		}
		if v.Else != nil {
			return g.eval(v.Else)
		}
		return Null(), nil
	case *BetweenExpr:
		return evalBetween(v, g.eval)
	case *InExpr:
		return g.ex.evalIn(v, g.eval, g.firstEnv())
	case *IsNullExpr:
		x, err := g.eval(v.Expr)
		if err != nil {
			return Null(), err
		}
		return Bool(x.IsNull() != v.Not), nil
	default:
		return g.ex.eval(e, g.firstEnv())
	}
}

func (g *groupEnv) evalAggregate(f *FuncExpr) (Value, error) {
	// COUNT(*) counts rows.
	if f.Star {
		return Int(int64(len(g.rows))), nil
	}
	if len(f.Args) != 1 {
		return Null(), fmt.Errorf("%w: %s takes one argument", ErrType, f.Name)
	}
	// Every argument is evaluated before any is folded, so an evaluation
	// error outranks a fold's type error.
	vals := make([]Value, len(g.rows))
	for i, row := range g.rows {
		e := &env{binds: g.ws.binds, row: row, parent: g.outer}
		v, err := g.ex.eval(f.Args[0], e)
		if err != nil {
			return Null(), err
		}
		vals[i] = v
	}
	agg := aggFold{name: f.Name, distinct: f.Distinct}
	for _, v := range vals {
		if err := agg.add(v); err != nil {
			return Null(), err
		}
	}
	return agg.result()
}

// eval evaluates an expression in row context.
func (ex *executor) eval(e Expr, en *env) (Value, error) {
	switch v := e.(type) {
	case *LiteralExpr:
		return v.Val, nil
	case *ColumnExpr:
		val, ok := en.lookup(v.Table, v.Name)
		if !ok {
			return Null(), fmt.Errorf("%w: %q", ErrUnknownColumn, v.SQL())
		}
		return val, nil
	case *UnaryExpr:
		inner, err := ex.eval(v.Expr, en)
		if err != nil {
			return Null(), err
		}
		return applyUnary(v.Op, inner)
	case *BinaryExpr:
		if v.Op == "AND" || v.Op == "OR" {
			l, err := ex.eval(v.Left, en)
			if err != nil {
				return Null(), err
			}
			if v.Op == "AND" && !l.AsBool() {
				return Bool(false), nil
			}
			if v.Op == "OR" && l.AsBool() {
				return Bool(true), nil
			}
			r, err := ex.eval(v.Right, en)
			if err != nil {
				return Null(), err
			}
			return Bool(r.AsBool()), nil
		}
		l, err := ex.eval(v.Left, en)
		if err != nil {
			return Null(), err
		}
		r, err := ex.eval(v.Right, en)
		if err != nil {
			return Null(), err
		}
		return applyBinary(v.Op, l, r)
	case *BetweenExpr:
		return evalBetween(v, func(x Expr) (Value, error) { return ex.eval(x, en) })
	case *InExpr:
		return ex.evalIn(v, func(x Expr) (Value, error) { return ex.eval(x, en) }, en)
	case *IsNullExpr:
		x, err := ex.eval(v.Expr, en)
		if err != nil {
			return Null(), err
		}
		res := x.IsNull()
		if v.Not {
			res = !res
		}
		return Bool(res), nil
	case *FuncExpr:
		if v.IsAggregate() {
			return Null(), fmt.Errorf("%w: aggregate %s outside aggregate context", ErrType, v.Name)
		}
		args := make([]Value, len(v.Args))
		for i, a := range v.Args {
			av, err := ex.eval(a, en)
			if err != nil {
				return Null(), err
			}
			args[i] = av
		}
		return applyScalarFunc(v.Name, args)
	case *CastExpr:
		inner, err := ex.eval(v.Expr, en)
		if err != nil {
			return Null(), err
		}
		return castValue(inner, v.Type)
	case *CaseExpr:
		for _, w := range v.Whens {
			c, err := ex.eval(w.Cond, en)
			if err != nil {
				return Null(), err
			}
			if c.AsBool() {
				return ex.eval(w.Then, en)
			}
		}
		if v.Else != nil {
			return ex.eval(v.Else, en)
		}
		return Null(), nil
	case *SubqueryExpr:
		res, err := ex.execSelect(v.Stmt, en)
		if err != nil {
			return Null(), err
		}
		if len(res.Cols) != 1 {
			return Null(), fmt.Errorf("%w: scalar subquery with %d columns", ErrNotScalar, len(res.Cols))
		}
		if len(res.Rows) == 0 {
			return Null(), nil
		}
		if len(res.Rows) > 1 {
			return Null(), fmt.Errorf("%w: scalar subquery returned %d rows", ErrNotScalar, len(res.Rows))
		}
		return res.Rows[0][0], nil
	case *ExistsExpr:
		res, err := ex.execSelect(v.Stmt, en)
		if err != nil {
			return Null(), err
		}
		return Bool(len(res.Rows) > 0), nil
	case *StarExpr:
		return Null(), fmt.Errorf("%w: * outside SELECT list", ErrSyntax)
	}
	return Null(), fmt.Errorf("%w: unhandled expression %T", ErrUnsupported, e)
}

// evalBetween evaluates x BETWEEN lo AND hi, its operands through eval.
func evalBetween(v *BetweenExpr, eval func(Expr) (Value, error)) (Value, error) {
	x, err := eval(v.Expr)
	if err != nil {
		return Null(), err
	}
	lo, err := eval(v.Lo)
	if err != nil {
		return Null(), err
	}
	hi, err := eval(v.Hi)
	if err != nil {
		return Null(), err
	}
	c1, ok1 := x.Compare(lo)
	c2, ok2 := x.Compare(hi)
	res := ok1 && ok2 && c1 >= 0 && c2 <= 0
	if v.Not {
		res = !res
	}
	return Bool(res), nil
}

// evalIn evaluates x IN (...), the operand and a list's items through eval;
// a subquery runs in en.
func (ex *executor) evalIn(v *InExpr, eval func(Expr) (Value, error), en *env) (Value, error) {
	x, err := eval(v.Expr)
	if err != nil {
		return Null(), err
	}
	var candidates []Value
	if v.Sub != nil {
		res, err := ex.execSelect(v.Sub, en)
		if err != nil {
			return Null(), err
		}
		if len(res.Cols) != 1 {
			return Null(), fmt.Errorf("%w: IN subquery with %d columns", ErrNotScalar, len(res.Cols))
		}
		for _, r := range res.Rows {
			candidates = append(candidates, r[0])
		}
	} else {
		for _, item := range v.List {
			c, err := eval(item)
			if err != nil {
				return Null(), err
			}
			candidates = append(candidates, c)
		}
	}
	found := false
	for _, c := range candidates {
		if x.Equal(c) {
			found = true
			break
		}
	}
	if v.Not {
		found = !found
	}
	return Bool(found), nil
}
