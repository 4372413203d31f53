package sqldb

import (
	"fmt"
	"strings"
)

// plan.go compiles parsed SELECT statements into vectorized plans: column
// references are bound to working-set slot positions once, WHERE conjuncts
// that provably cannot raise errors are pushed down into table scans, joins
// are classified as hash or nested-loop, and every subquery gets its own
// plan, run once per execution of the statement or, when it reads the
// enclosing row, once per enclosing row. Row context and aggregate context
// compile to one tree of vexpr nodes: in aggregate context an aggregate call
// is a leaf folding the group and a column reference a leaf reading the
// group's first row, and every operator is the node it is in row context.
// Compilation is total: every statement the parser accepts gets a plan, and a
// name that does not resolve, an aggregate outside aggregate context or a *
// outside the select list compiles to a node that raises the row engine's
// error when a row reaches it. A table or join the row engine would refuse
// ends the plan with that refusal. A plan binds the table images of the
// catalog it is compiled against; it is immutable and safe for concurrent
// execution.

// windowRows is how many rows of a table image a filtered scan evaluates its
// pushed-down predicates over at a time. It bounds the predicates'
// temporaries to cache-sized vectors; on a 16k-row filtered aggregate 1024
// measured fastest, and 64 or the whole column at once 25-30% slower.
const windowRows = 1024

// planScan describes one FROM/JOIN relation: its slot range in the full
// working-set layout plus any filter conjuncts pushed below the join.
type planScan struct {
	base   int      // first slot index in the working-set layout
	n      int      // column count
	pushed []vexpr  // pushdown filters, evaluated per scan window
	eq     []planEq // the pushed filters an equality index can answer, ascending by k
}

// planEq marks pushed[k] as "column = literal" (in either operand order) over
// column col of the scan's table, with a non-NULL text or numeric literal:
// the shape an equality index answers when the image has one (access.go).
type planEq struct {
	k, col int
	lit    Value
}

// planJoin describes how the i+1'th relation joins the accumulated working
// set: a hash join on two key columns, or a nested loop over the compiled ON
// predicate (none for CROSS).
type planJoin struct {
	kind       string // "INNER", "CROSS", "LEFT"
	on         vexpr  // a nested-loop join's ON clause; nil for CROSS and hash joins
	lkey, rkey *vcol  // a hash join's key columns; nil for a nested loop
}

// vecPlan is a compiled, immutable, concurrently executable query plan.
type vecPlan struct {
	images   []*tableImage // the scanned tables' images in the catalog compiled against, parallel to scans
	scans    []planScan
	joins    []planJoin
	width    int // working-set slots
	residual []vexpr

	// fail, when set, is the error the row engine stops with after the
	// WHERE filter: a table it does not hold or a RIGHT JOIN (the working
	// set then ends before that relation and there is no WHERE), or a
	// qualified * naming no table.
	fail func(*catalog) error

	cols       []string
	aggregated bool
	tail       selectTail

	// itemsV is the items, then the ORDER BY keys that are not an item; it
	// and having are in aggregate context when the plan is aggregated.
	itemsV []vexpr
	// orderV holds each ORDER BY key's index in itemsV: an alias or ordinal
	// reference is the item's (resolved at plan time exactly like the row
	// engine's orderKey). A table-less SELECT evaluates no key (-1).
	orderV []int

	groupByV []vexpr
	having   vexpr
}

// planCompiler carries one statement's compilation state. A subquery's
// compiler reaches the enclosing statement's through up, which is where the
// names it cannot resolve itself are looked up, as the row engine's env does
// through its parent.
type planCompiler struct {
	cat    *catalog
	tables []string // the lowercased table names looked up, subqueries included
	p      *vecPlan
	binds  []colBind // the working set's slots, in FROM order
	vis    int       // how many of binds the expression being compiled sees
	agg    bool      // expressions are compiled in aggregate context
	reads  int       // nodes compiled so far that read a row: see compile

	up    *planCompiler // the enclosing statement's compiler, for a subquery
	upVis int           // how many of up's binds the subquery sees
	corr  int           // outermost enclosing level a reference reads; 0 for none
}

// compilePlan binds stmt against cat, returning its plan and the lowercased
// name of every table the compilation looked up, found or not, subqueries
// included: the plan reads nothing else of cat.
func compilePlan(cat *catalog, stmt *SelectStmt) (*vecPlan, []string) {
	c := &planCompiler{cat: cat}
	return c.compileStmt(stmt), c.tables
}

// compileStmt lowers stmt in the row engine's order: the FROM relations and
// their joins, WHERE, * expansion, then the projection.
func (c *planCompiler) compileStmt(stmt *SelectStmt) *vecPlan {
	p := &vecPlan{tail: tailOf(stmt)}
	c.p = p
	var refs []TableRef
	if stmt.From != nil {
		refs = append(refs, *stmt.From)
		for _, j := range stmt.Joins {
			refs = append(refs, j.Table)
		}
	}

	// Working-set layout: buildFrom's bind order, up to the first relation
	// the row engine refuses.
	for i, r := range refs {
		if i > 0 && stmt.Joins[i-1].Kind == "RIGHT" {
			p.fail = constFail(fmt.Errorf("%w: RIGHT JOIN", ErrUnsupported))
			break
		}
		key := strings.ToLower(r.Name)
		c.tables = append(c.tables, key)
		img := c.cat.images[key]
		if img == nil {
			// The error lists the tables of the catalog the plan runs in: a
			// carried-over plan runs in a later one than it was compiled in.
			p.fail = func(cat *catalog) error {
				names := make([]string, len(cat.order))
				for i, k := range cat.order {
					names[i] = cat.images[k].t.Name
				}
				return fmt.Errorf("%w: %q (available: %s)", ErrUnknownTable, r.Name, strings.Join(names, ", "))
			}
			break
		}
		p.images = append(p.images, img)
		p.scans = append(p.scans, planScan{base: len(c.binds), n: len(img.t.schema)})
		for _, col := range img.t.schema {
			c.binds = append(c.binds, colBind{table: r.EffectiveName(), name: col.Name})
		}
	}
	p.width = len(c.binds)
	c.vis = p.width
	for ji := 0; ji+1 < len(p.scans); ji++ {
		j, right := stmt.Joins[ji], p.scans[ji+1]
		pj := planJoin{kind: j.Kind}
		if li, ri, ok := equiJoinColumns(j.On, c.binds[:right.base], c.binds[right.base:right.base+right.n]); ok {
			pj.lkey, pj.rkey = p.column(li), p.column(right.base+ri)
		} else if j.On != nil {
			// An ON clause sees the tables joined so far and its own.
			c.vis = right.base + right.n
			pj.on = c.compile(j.On)
			c.vis = p.width
		}
		p.joins = append(p.joins, pj)
	}
	if p.fail != nil {
		return p
	}

	if stmt.Where != nil {
		c.compileWhere(stmt)
	}
	items, err := expandStars(stmt.Items, c.binds)
	if err != nil {
		p.fail = constFail(err)
		return p
	}
	p.cols = projectionNames(items)
	p.aggregated = len(stmt.GroupBy) > 0 || stmt.Having != nil || itemsHaveAggregate(items)

	for _, g := range stmt.GroupBy {
		p.groupByV = append(p.groupByV, c.compile(g))
	}
	c.agg = p.aggregated
	if stmt.Having != nil {
		p.having = c.compile(stmt.Having)
	}
	for _, it := range items {
		p.itemsV = append(p.itemsV, c.compile(it.Expr))
	}
	for _, o := range stmt.OrderBy {
		k := staticOrderKey(o.Expr, items)
		if k < 0 && (stmt.From != nil || p.aggregated) {
			k = len(p.itemsV)
			p.itemsV = append(p.itemsV, c.compile(o.Expr))
		}
		p.orderV = append(p.orderV, k)
	}
	return p
}

// constFail is a plan failure that does not depend on the catalog.
func constFail(err error) func(*catalog) error {
	return func(*catalog) error { return err }
}

// compileWhere splits WHERE's top-level AND chain. Conjuncts are pushed into
// scans only when the *entire* filter and every nested-loop ON clause is in
// the error-free expression subset — otherwise early filtering could skip
// rows on which the row engine would have raised an error, and the two would
// diverge on which queries fail at all.
func (c *planCompiler) compileWhere(stmt *SelectStmt) {
	p := c.p
	conjuncts := splitConjuncts(stmt.Where)
	pushdownOK := true
	for _, cj := range conjuncts {
		pushdownOK = pushdownOK && safeExpr(cj, c.binds)
	}
	for ji, j := range p.joins {
		right := p.scans[ji+1]
		if pushdownOK && j.on != nil && !safeExpr(stmt.Joins[ji].On, c.binds[:right.base+right.n]) {
			pushdownOK = false
		}
	}
	for _, cj := range conjuncts {
		si := -1
		if pushdownOK {
			si = c.pushTarget(cj)
		}
		if si >= 0 {
			s := &p.scans[si]
			if col, lit, ok := eqLiteral(cj, c.binds); ok {
				s.eq = append(s.eq, planEq{k: len(s.pushed), col: col - s.base, lit: lit})
			}
			s.pushed = append(s.pushed, c.compile(cj))
		} else {
			p.residual = append(p.residual, c.compile(cj))
		}
	}
}

// column returns the stored column at working-set slot slot.
func (p *vecPlan) column(slot int) *vcol {
	si := len(p.scans) - 1
	for p.scans[si].base > slot {
		si--
	}
	return &vcol{slot: slot, si: si, c: slot - p.scans[si].base}
}

// staticOrderKey resolves the row engine's orderKey shortcuts at plan time:
// a bare name matching a projection alias, or a literal ordinal within range,
// reuses the already-computed cell. It returns -1 when the key needs its own
// evaluation.
func staticOrderKey(e Expr, items []SelectItem) int {
	if ce, ok := e.(*ColumnExpr); ok && ce.Table == "" {
		for i, it := range items {
			if strings.EqualFold(it.Alias, ce.Name) {
				return i
			}
		}
	}
	if le, ok := e.(*LiteralExpr); ok {
		if n, ok := le.Val.AsInt(); ok && n >= 1 && int(n) <= len(items) {
			return int(n) - 1
		}
	}
	return -1
}

// eqLiteral recognizes a conjunct of the form column = literal or literal =
// column whose literal is text or a number other than NaN, returning the
// column's slot.
func eqLiteral(e Expr, binds []colBind) (slot int, lit Value, ok bool) {
	be, isBin := e.(*BinaryExpr)
	if !isBin || be.Op != "=" {
		return 0, Null(), false
	}
	ce, isCol := be.Left.(*ColumnExpr)
	le, isLit := be.Right.(*LiteralExpr)
	if !isCol || !isLit {
		if ce, isCol = be.Right.(*ColumnExpr); !isCol {
			return 0, Null(), false
		}
		if le, isLit = be.Left.(*LiteralExpr); !isLit {
			return 0, Null(), false
		}
	}
	if f, _ := le.Val.AsFloat(); le.Val.Kind() != KindText && (!le.Val.IsNumeric() || f != f) {
		return 0, Null(), false
	}
	slot, ok = resolveBind(binds, ce.Table, ce.Name)
	return slot, le.Val, ok
}

// splitConjuncts flattens a left-associative AND chain into its conjuncts.
func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.Left), splitConjuncts(b.Right)...)
	}
	return []Expr{e}
}

// resolveBind mirrors env.lookup over a static bind list: first match wins,
// with case-insensitive table-qualifier and name comparison.
func resolveBind(binds []colBind, table, name string) (int, bool) {
	for i, b := range binds {
		if table != "" && !strings.EqualFold(b.table, table) {
			continue
		}
		if strings.EqualFold(b.name, name) {
			return i, true
		}
	}
	return 0, false
}

// compile lowers an expression: in row context, or in aggregate context
// while c.agg is set, where an aggregate call folds the group and a column
// reference or a subquery reads the group's first row, as the row engine's
// groupEnv does, and every other node is the row-context one. A node that
// reads no row — over literals, outer references and uncorrelated subqueries
// only — is wrapped in vconst: its value is the same at every row. Lowering
// is total: a name that resolves nowhere, an aggregate outside aggregate
// context and a * all compile to the row engine's error, raised when a row
// reaches the node.
func (c *planCompiler) compile(e Expr) vexpr {
	reads := c.reads
	x := c.lower(e)
	switch x.(type) {
	case *vlit, *vouter, *verr:
		return x
	}
	if c.reads == reads {
		return &vconst{x}
	}
	return x
}

func (c *planCompiler) lower(e Expr) vexpr {
	switch v := e.(type) {
	case *LiteralExpr:
		return &vlit{val: v.Val}
	case *ColumnExpr:
		x := c.column(v)
		if col, ok := x.(*vcol); ok && c.agg {
			return &gfirst{col: col}
		}
		return x
	case *UnaryExpr:
		return &vunary{op: v.Op, x: c.compile(v.Expr)}
	case *BinaryExpr:
		switch v.Op {
		case "AND":
			return &vand{l: c.compile(v.Left), r: c.compile(v.Right)}
		case "OR":
			return &vor{l: c.compile(v.Left), r: c.compile(v.Right)}
		case "=", "<>", "<", "<=", ">", ">=":
			return &vcmp{op: v.Op, truth: cmpTruth[v.Op], l: c.compile(v.Left), r: c.compile(v.Right)}
		}
		return &vbin{op: v.Op, l: c.compile(v.Left), r: c.compile(v.Right)}
	case *BetweenExpr:
		return &vbetween{x: c.compile(v.Expr), lo: c.compile(v.Lo), hi: c.compile(v.Hi), not: v.Not}
	case *InExpr:
		if v.Sub != nil {
			x := c.compile(v.Expr)
			return &vinsub{x: x, sub: c.subquery(v.Sub), not: v.Not}
		}
		in := &vin{x: c.compile(v.Expr), not: v.Not}
		for _, it := range v.List {
			in.list = append(in.list, c.compile(it))
		}
		return in
	case *IsNullExpr:
		return &visnull{x: c.compile(v.Expr), not: v.Not}
	case *FuncExpr:
		if v.IsAggregate() {
			return c.aggregate(v)
		}
		fn := &vfunc{name: v.Name}
		for _, a := range v.Args {
			fn.args = append(fn.args, c.compile(a))
		}
		return fn
	case *CastExpr:
		return &vcast{x: c.compile(v.Expr), kind: v.Type}
	case *CaseExpr:
		cs := &vcase{}
		for _, w := range v.Whens {
			cs.conds = append(cs.conds, c.compile(w.Cond))
			cs.thens = append(cs.thens, c.compile(w.Then))
		}
		if v.Else != nil {
			cs.els = c.compile(v.Else)
		}
		return cs
	case *SubqueryExpr:
		return &vsub{sub: c.subquery(v.Stmt)}
	case *ExistsExpr:
		return &vsub{sub: c.subquery(v.Stmt), exists: true}
	case *StarExpr:
		return &verr{fmt.Errorf("%w: * outside SELECT list", ErrSyntax)}
	}
	return &verr{fmt.Errorf("%w: unhandled expression %T", ErrUnsupported, e)}
}

// column binds a column reference the way env.lookup resolves it: against
// the slots this expression sees, then against each enclosing statement's
// (a correlated reference), innermost first.
func (c *planCompiler) column(v *ColumnExpr) vexpr {
	if slot, ok := resolveBind(c.binds[:c.vis], v.Table, v.Name); ok {
		c.reads++
		return c.p.column(slot)
	}
	level := 1
	for cur := c; cur.up != nil; cur = cur.up {
		if slot, ok := resolveBind(cur.up.binds[:cur.upVis], v.Table, v.Name); ok {
			c.corr = max(c.corr, level)
			return &vouter{level: level, col: cur.up.p.column(slot)}
		}
		level++
	}
	return &verr{fmt.Errorf("%w: %q", ErrUnknownColumn, v.SQL())}
}

// subquery compiles a subquery's own plan, whatever the size of the tables
// it reads: a subquery over a scan window runs on the same kernels as the
// statement around it, and one over a larger image takes its access paths
// (access.go). It is correlated when it, or a subquery inside it, reads a row
// of this statement or of one enclosing it; in aggregate context that row is
// the group's first.
func (c *planCompiler) subquery(stmt *SelectStmt) subq {
	sc := &planCompiler{cat: c.cat, up: c, upVis: c.vis}
	p := sc.compileStmt(stmt)
	c.tables = append(c.tables, sc.tables...)
	c.corr = max(c.corr, sc.corr-1)
	if sc.corr > 0 {
		c.reads++
	}
	return subq{plan: p, corr: sc.corr > 0, first: c.agg}
}

// aggregate lowers an aggregate call: outside aggregate context the row
// engine's error, inside it a fold over the group of its argument, which is
// compiled in row context.
func (c *planCompiler) aggregate(v *FuncExpr) vexpr {
	if !c.agg {
		return &verr{fmt.Errorf("%w: aggregate %s outside aggregate context", ErrType, v.Name)}
	}
	g := &gagg{name: v.Name, star: v.Star, distinct: v.Distinct, nargs: len(v.Args)}
	if !v.Star && len(v.Args) == 1 {
		c.agg = false
		g.arg = c.compile(v.Args[0])
		c.agg = true
	}
	c.reads++
	return g
}

// pushTarget returns the index of the single scan whose slots cover every
// column the conjunct references, provided that scan is not the padded side
// of a LEFT join (filtering it early would suppress padding the row engine
// emits and then filters). -1 means the conjunct stays in the residual
// filter.
func (c *planCompiler) pushTarget(e Expr) int {
	slots := map[int]bool{}
	if !collectSlots(e, c.binds, slots) || len(slots) == 0 {
		return -1
	}
	for si, s := range c.p.scans {
		if si > 0 && c.p.joins[si-1].kind == "LEFT" {
			continue
		}
		all := true
		for slot := range slots {
			if slot < s.base || slot >= s.base+s.n {
				all = false
				break
			}
		}
		if all {
			return si
		}
	}
	return -1
}

// collectSlots resolves every column reference in e against binds, recording
// the slots. It reports false when any reference fails to resolve (the
// conjunct then cannot be pushed).
func collectSlots(e Expr, binds []colBind, out map[int]bool) bool {
	switch v := e.(type) {
	case *LiteralExpr:
		return true
	case *ColumnExpr:
		slot, ok := resolveBind(binds, v.Table, v.Name)
		if !ok {
			return false
		}
		out[slot] = true
		return true
	case *UnaryExpr:
		return collectSlots(v.Expr, binds, out)
	case *BinaryExpr:
		return collectSlots(v.Left, binds, out) && collectSlots(v.Right, binds, out)
	case *BetweenExpr:
		return collectSlots(v.Expr, binds, out) && collectSlots(v.Lo, binds, out) && collectSlots(v.Hi, binds, out)
	case *InExpr:
		if v.Sub != nil {
			return false
		}
		if !collectSlots(v.Expr, binds, out) {
			return false
		}
		for _, it := range v.List {
			if !collectSlots(it, binds, out) {
				return false
			}
		}
		return true
	case *IsNullExpr:
		return collectSlots(v.Expr, binds, out)
	case *FuncExpr:
		for _, a := range v.Args {
			if !collectSlots(a, binds, out) {
				return false
			}
		}
		return true
	case *CaseExpr:
		for _, w := range v.Whens {
			if !collectSlots(w.Cond, binds, out) || !collectSlots(w.Then, binds, out) {
				return false
			}
		}
		if v.Else != nil {
			return collectSlots(v.Else, binds, out)
		}
		return true
	default:
		return false
	}
}

// safeExpr reports whether evaluating e can never return an error, for any
// row values. Only such expressions may be evaluated on a different row set
// than the row engine would evaluate them on (pushdown), because skipping an
// erroring row would change whether the whole query fails. The subset is
// deliberately conservative: column and literal operands, comparisons, LIKE,
// string concatenation, BETWEEN, IN over literals/columns, IS NULL, NOT,
// AND/OR, CASE over safe arms, and the scalar functions whose implementations
// are total once their (statically known) arity is right.
func safeExpr(e Expr, binds []colBind) bool {
	switch v := e.(type) {
	case *LiteralExpr:
		return true
	case *ColumnExpr:
		_, ok := resolveBind(binds, v.Table, v.Name)
		return ok
	case *UnaryExpr:
		return v.Op == "NOT" && safeExpr(v.Expr, binds)
	case *BinaryExpr:
		switch v.Op {
		case "=", "<>", "<", "<=", ">", ">=", "LIKE", "||", "AND", "OR":
			return safeExpr(v.Left, binds) && safeExpr(v.Right, binds)
		}
		return false // arithmetic can raise type errors
	case *BetweenExpr:
		return safeExpr(v.Expr, binds) && safeExpr(v.Lo, binds) && safeExpr(v.Hi, binds)
	case *InExpr:
		if v.Sub != nil {
			return false
		}
		if !safeExpr(v.Expr, binds) {
			return false
		}
		for _, it := range v.List {
			if !safeExpr(it, binds) {
				return false
			}
		}
		return true
	case *IsNullExpr:
		return safeExpr(v.Expr, binds)
	case *FuncExpr:
		switch v.Name {
		case "LOWER", "UPPER", "LENGTH", "TRIM":
			if len(v.Args) != 1 {
				return false
			}
		case "NULLIF":
			if len(v.Args) != 2 {
				return false
			}
		case "COALESCE":
		default:
			return false
		}
		for _, a := range v.Args {
			if !safeExpr(a, binds) {
				return false
			}
		}
		return true
	case *CaseExpr:
		for _, w := range v.Whens {
			if !safeExpr(w.Cond, binds) || !safeExpr(w.Then, binds) {
				return false
			}
		}
		if v.Else != nil {
			return safeExpr(v.Else, binds)
		}
		return true
	default:
		return false
	}
}
