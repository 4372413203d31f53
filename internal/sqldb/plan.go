package sqldb

import "strings"

// plan.go compiles parsed SELECT statements into vectorized plans: column
// references are bound to working-set slot positions once, WHERE conjuncts
// that provably cannot raise errors are pushed down into table scans, joins
// are classified as hash or nested-loop, and every uncorrelated subquery gets
// its own plan, run once per execution of the statement. Compilation never
// fails: expressions outside the vectorizable surface compile to row-engine
// fallback nodes, and a nil plan means "run the whole statement on the row
// engine" — the answer for RIGHT joins, unknown tables, malformed
// projections, and statements with a subquery that has no plan of its own.
// The compiled plan is immutable and safe for concurrent execution.

// windowRows is how many rows of a table image a filtered scan evaluates its
// pushed-down predicates over at a time. It bounds the predicates'
// temporaries to cache-sized vectors; on a 16k-row filtered aggregate 1024
// measured fastest, and 64 or the whole column at once 25-30% slower.
const windowRows = 1024

// planScan describes one FROM/JOIN relation: its slot range in the full
// working-set layout plus any filter conjuncts pushed below the join.
type planScan struct {
	base   int      // first slot index in the working-set layout
	n      int      // column count (validated against the live table at exec)
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
// set. Hash joins carry the two bound key slots; everything else keeps the
// original ON expression for the row-engine nested-loop mirror.
type planJoin struct {
	kind      string // "INNER", "CROSS", "LEFT"
	on        Expr   // a nested-loop join's ON clause; nil for CROSS and hash joins
	hash      bool
	li, ri    int    // key slots (full layout) when hash
	leftWidth int    // slots visible to the ON clause from the left side
	carry     []bool // slots an operator after this join reads
}

// orderPlan is one compiled ORDER BY key. Exactly one of the three fields is
// active: cellIdx >= 0 reuses an already-projected cell (alias or ordinal
// reference, resolved at plan time exactly like the row engine's orderKey);
// otherwise ev (non-aggregated) or gv (aggregated) evaluates the key.
type orderPlan struct {
	cellIdx int
	ev      vexpr
	gv      gexpr
}

// vecPlan is a compiled, immutable, concurrently executable query plan.
type vecPlan struct {
	version uint64 // catalog version the plan was bound against

	names    []string // the scans' catalog table names, parallel to scans
	scans    []planScan
	joins    []planJoin
	width    int       // working-set slots
	binds    []colBind // the slots' names, kept only for row-fallback nodes
	needed   []bool    // slots that must be materialized
	residual []vexpr

	cols       []string
	aggregated bool
	tail       selectTail

	// rowNodes records a row-fallback node anywhere in the plan, its
	// subqueries' plans included: a vrowfb or gfirstrow node, or a
	// nested-loop join, each evaluating the AST on the row engine.
	rowNodes bool
	// selAgg and selRows say that the final stage reads every column it
	// needs at the rows a scan selected, so the survivors of a scan that
	// neither joins nor meets a residual filter are never gathered: an
	// aggregate without GROUP BY whose aggregates take a bare column (or *),
	// or a projection of bare columns and literals.
	selAgg, selRows bool

	// Non-aggregated pipeline.
	itemsV []vexpr
	orderV []orderPlan

	// Aggregated pipeline.
	groupByV []vexpr
	itemsG   []gexpr
	havingG  gexpr
	orderG   []orderPlan
}

// compilePlan binds stmt against db's current catalog. It returns nil when
// the statement must run entirely on the row engine (RIGHT joins, unknown
// tables, malformed projections, or a subquery that has no plan — the row
// engine then produces its canonical answer or error).
func compilePlan(db *Database, stmt *SelectStmt) *vecPlan {
	p := &vecPlan{tail: tailOf(stmt)}

	var names []string
	if stmt.From != nil {
		names = append(names, stmt.From.Name)
		for _, j := range stmt.Joins {
			if j.Kind == "RIGHT" {
				return nil
			}
			names = append(names, j.Table.Name)
		}
	} else if len(stmt.Joins) > 0 {
		return nil
	}
	tables := make([]*Table, len(names))
	p.version = db.snapshotTables(names, tables, make([]*tableImage, len(names)))
	p.names = names
	for _, t := range tables {
		if t == nil {
			return nil
		}
	}

	// Working-set layout: mirror buildFrom/scanTable bind order exactly.
	if stmt.From != nil {
		addScan := func(ref TableRef, t *Table) {
			s := planScan{base: len(p.binds), n: len(t.Columns)}
			eff := ref.EffectiveName()
			for _, c := range t.Columns {
				p.binds = append(p.binds, colBind{table: eff, name: c.Name})
			}
			p.scans = append(p.scans, s)
		}
		addScan(*stmt.From, tables[0])
		for i, j := range stmt.Joins {
			leftWidth := len(p.binds)
			addScan(j.Table, tables[i+1])
			pj := planJoin{kind: j.Kind, leftWidth: leftWidth}
			if li, ri, ok := equiJoinColumns(j.On,
				&workingSet{binds: p.binds[:leftWidth]},
				&workingSet{binds: p.binds[leftWidth:]}); ok {
				pj.hash, pj.li, pj.ri = true, li, leftWidth+ri
			} else {
				pj.on = j.On
			}
			p.joins = append(p.joins, pj)
		}
	}

	items, err := expandStars(stmt.Items, p.binds)
	if err != nil {
		return nil
	}
	p.cols = projectionNames(items)
	p.aggregated = len(stmt.GroupBy) > 0 || stmt.Having != nil || itemsHaveAggregate(items)

	c := &planCompiler{db: db, p: p, needed: make([]bool, len(p.binds))}

	// WHERE: split the top-level AND chain. Conjuncts are pushed into scans
	// only when the *entire* filter and every non-hash ON clause is in the
	// error-free expression subset — otherwise early filtering could skip
	// rows on which the row engine would have raised an error, and the two
	// engines would diverge on which queries fail at all.
	if stmt.Where != nil {
		conjuncts := splitConjuncts(stmt.Where)
		pushdownOK := true
		for _, cj := range conjuncts {
			if !safeExpr(cj, p.binds) {
				pushdownOK = false
				break
			}
		}
		if pushdownOK {
			for ji, j := range p.joins {
				// An ON clause sees the binds of the tables joined so far
				// plus its own right table.
				onEnd := p.scans[ji+1].base + p.scans[ji+1].n
				if !j.hash && j.on != nil && !safeExpr(j.on, p.binds[:onEnd]) {
					pushdownOK = false
					break
				}
			}
		}
		for _, cj := range conjuncts {
			si := -1
			if pushdownOK {
				si = c.pushTarget(cj)
			}
			if si >= 0 {
				s := &p.scans[si]
				if col, lit, ok := eqLiteral(cj, p.binds); ok {
					s.eq = append(s.eq, planEq{k: len(s.pushed), col: col - s.base, lit: lit})
				}
				s.pushed = append(s.pushed, c.compile(cj))
			} else {
				p.residual = append(p.residual, c.compile(cj))
			}
		}
	}

	if p.aggregated {
		for _, g := range stmt.GroupBy {
			p.groupByV = append(p.groupByV, c.compile(g))
		}
		if stmt.Having != nil {
			p.havingG = c.compileGroup(stmt.Having)
		}
		for _, it := range items {
			p.itemsG = append(p.itemsG, c.compileGroup(it.Expr))
		}
		for _, o := range stmt.OrderBy {
			op := staticOrderKey(o.Expr, items)
			if op.cellIdx < 0 {
				op.gv = c.compileGroup(o.Expr)
			}
			p.orderG = append(p.orderG, op)
		}
	} else {
		for _, it := range items {
			p.itemsV = append(p.itemsV, c.compile(it.Expr))
		}
		for _, o := range stmt.OrderBy {
			op := staticOrderKey(o.Expr, items)
			if op.cellIdx < 0 {
				op.ev = c.compile(o.Expr)
			}
			p.orderV = append(p.orderV, op)
		}
	}

	// Nested-loop joins and row-engine fallback nodes rebuild full rows, so
	// every slot must be materialized; otherwise scan only referenced slots.
	for _, j := range p.joins {
		if !j.hash {
			c.needsAll = true
		}
	}
	if c.needsAll {
		for i := range c.needed {
			c.needed[i] = true
		}
	}
	// A join carries forward what the expressions read plus the keys of the
	// joins after it; its own keys are dead once it has matched.
	for ji := len(p.joins) - 1; ji >= 0; ji-- {
		j := &p.joins[ji]
		j.carry = append([]bool(nil), c.needed...)
		if j.hash {
			c.needed[j.li], c.needed[j.ri] = true, true
		}
	}
	p.needed = c.needed
	if c.declined {
		return nil
	}
	p.rowNodes = p.rowNodes || c.needsAll
	p.width = len(p.binds)
	if !p.rowNodes {
		p.binds = nil
	}
	p.selAgg = len(p.groupByV) == 0 && !c.denseAgg
	p.selRows = allRowFree(p.itemsV)
	for _, o := range p.orderV {
		p.selRows = p.selRows && (o.cellIdx >= 0 || rowFree(o.ev))
	}
	return p
}

// rowFree reports whether e reads nothing but a stored column or a literal:
// the expressions whose value at any row of a scan's image is its value at
// that row of the scan, selected or not.
func rowFree(e vexpr) bool {
	switch e.(type) {
	case *vcol, *vlit:
		return true
	}
	return false
}

func allRowFree(es []vexpr) bool {
	for _, e := range es {
		if !rowFree(e) {
			return false
		}
	}
	return true
}

// staticOrderKey resolves the row engine's orderKey shortcuts at plan time:
// a bare name matching a projection alias, or a literal ordinal within range,
// reuses the already-computed cell. cellIdx is -1 when the key needs its own
// evaluation.
func staticOrderKey(e Expr, items []SelectItem) orderPlan {
	if ce, ok := e.(*ColumnExpr); ok && ce.Table == "" {
		for i, it := range items {
			if strings.EqualFold(it.Alias, ce.Name) {
				return orderPlan{cellIdx: i}
			}
		}
	}
	if le, ok := e.(*LiteralExpr); ok {
		if n, ok := le.Val.AsInt(); ok && n >= 1 && int(n) <= len(items) {
			return orderPlan{cellIdx: int(n) - 1}
		}
	}
	return orderPlan{cellIdx: -1}
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

// planCompiler carries shared state while lowering expressions.
type planCompiler struct {
	db       *Database
	p        *vecPlan
	needed   []bool
	needsAll bool
	declined bool // a subquery has no plan: the statement is row-only
	denseAgg bool // an aggregate's argument is more than a bare column
}

// fallback lowers e to per-row evaluation on the row engine: the node
// gathers each row of the batch into an env and delegates to executor.eval,
// so any expression shape stays supported with identical semantics.
func (c *planCompiler) fallback(e Expr) vexpr {
	c.needsAll = true
	return &vrowfb{e: e}
}

// compile lowers a row-context expression. It is total: unsupported or
// unresolvable shapes become row-engine fallback nodes.
func (c *planCompiler) compile(e Expr) vexpr {
	switch v := e.(type) {
	case *LiteralExpr:
		return &vlit{val: v.Val}
	case *ColumnExpr:
		slot, ok := resolveBind(c.p.binds, v.Table, v.Name)
		if !ok {
			return c.fallback(e)
		}
		c.needed[slot] = true
		return &vcol{slot: slot}
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
			if c.uncorrelated(v.Sub) {
				return &vinsub{x: c.compile(v.Expr), plan: c.subPlan(v.Sub), not: v.Not}
			}
			return c.fallback(e)
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
			// Aggregate outside aggregate context: let the row engine raise
			// its canonical error if (and only if) a row reaches it.
			return c.fallback(e)
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
		if c.uncorrelated(v.Stmt) {
			return &vsub{plan: c.subPlan(v.Stmt)}
		}
		return c.fallback(e)
	case *ExistsExpr:
		if c.uncorrelated(v.Stmt) {
			return &vexists{plan: c.subPlan(v.Stmt), not: v.Not}
		}
		return c.fallback(e)
	default:
		return c.fallback(e)
	}
}

// compileGroup lowers an aggregate-context expression, mirroring
// groupEnv.eval's dispatch: aggregate calls fold over the group, the
// recognized scalar shapes recurse, and every other node evaluates against
// the group's first row on the row engine.
func (c *planCompiler) compileGroup(e Expr) gexpr {
	switch v := e.(type) {
	case *LiteralExpr:
		return &glit{val: v.Val}
	case *ColumnExpr:
		// groupEnv delegates bare columns to the first row's env; binding
		// the slot statically is the same lookup done once.
		slot, ok := resolveBind(c.p.binds, v.Table, v.Name)
		if !ok {
			return c.gdefault(e)
		}
		c.needed[slot] = true
		return &gcolfirst{slot: slot}
	case *FuncExpr:
		if v.IsAggregate() {
			g := &gagg{name: v.Name, star: v.Star, distinct: v.Distinct, nargs: len(v.Args)}
			if !v.Star && len(v.Args) == 1 {
				g.arg = c.compile(v.Args[0])
				c.denseAgg = c.denseAgg || !rowFree(g.arg)
			}
			return g
		}
		fn := &gscalar{name: v.Name}
		for _, a := range v.Args {
			fn.args = append(fn.args, c.compileGroup(a))
		}
		return fn
	case *UnaryExpr:
		return &gunary{op: v.Op, x: c.compileGroup(v.Expr)}
	case *BinaryExpr:
		return &gbin{op: v.Op, l: c.compileGroup(v.Left), r: c.compileGroup(v.Right)}
	case *CastExpr:
		return &gcast{x: c.compileGroup(v.Expr), kind: v.Type}
	case *CaseExpr:
		cs := &gcase{}
		for _, w := range v.Whens {
			cs.conds = append(cs.conds, c.compileGroup(w.Cond))
			cs.thens = append(cs.thens, c.compileGroup(w.Then))
		}
		if v.Else != nil {
			cs.els = c.compileGroup(v.Else)
		}
		return cs
	default:
		return c.gdefault(e)
	}
}

func (c *planCompiler) gdefault(e Expr) gexpr {
	c.needsAll = true
	return &gfirstrow{e: e}
}

// pushTarget returns the index of the single scan whose slots cover every
// column the conjunct references, provided that scan is not the padded side
// of a LEFT join (filtering it early would suppress padding the row engine
// emits and then filters). -1 means the conjunct stays in the residual
// filter.
func (c *planCompiler) pushTarget(e Expr) int {
	slots := map[int]bool{}
	if !collectSlots(e, c.p.binds, slots) || len(slots) == 0 {
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

// uncorrelated reports whether every column reference inside sub (and its
// nested subqueries) resolves against the subquery chain's own FROM tables,
// i.e. the subquery never reads the enclosing query's row. Uncorrelated
// subqueries are evaluated once per statement execution instead of once per
// outer row. Unknown tables or unresolvable names conservatively count as
// correlated; per-row evaluation then reproduces the row engine's errors.
func (c *planCompiler) uncorrelated(sub *SelectStmt) bool {
	return c.subLocal(sub, nil)
}

// subPlan compiles an uncorrelated subquery's own plan, whatever the size of
// the tables it reads: a subquery over a scan window runs on the same kernels
// as the statement around it, and one over a larger image takes its access
// paths (access.go), so each half of a percentage is a scan, a probe or a
// memoised fold. A subquery without a plan declines the whole statement,
// which the row engine then answers.
func (c *planCompiler) subPlan(sub *SelectStmt) *vecPlan {
	sp := compilePlan(c.db, sub)
	if sp == nil {
		c.declined = true
		return nil
	}
	c.p.rowNodes = c.p.rowNodes || sp.rowNodes
	return sp
}

// subLocal checks sub with the bind lists of enclosing *subqueries* stacked
// below it (the outer statement's binds are deliberately absent: resolving
// against them is what correlation means).
func (c *planCompiler) subLocal(sub *SelectStmt, outer [][]colBind) bool {
	binds, ok := c.subBinds(sub)
	if !ok {
		return false
	}
	stack := append([][]colBind{binds}, outer...)
	resolve := func(table, name string) bool {
		for _, bs := range stack {
			if _, ok := resolveBind(bs, table, name); ok {
				return true
			}
		}
		return false
	}
	var exprLocal func(e Expr) bool
	exprLocal = func(e Expr) bool {
		switch v := e.(type) {
		case nil:
			return true
		case *LiteralExpr, *StarExpr:
			return true
		case *ColumnExpr:
			return resolve(v.Table, v.Name)
		case *UnaryExpr:
			return exprLocal(v.Expr)
		case *BinaryExpr:
			return exprLocal(v.Left) && exprLocal(v.Right)
		case *BetweenExpr:
			return exprLocal(v.Expr) && exprLocal(v.Lo) && exprLocal(v.Hi)
		case *InExpr:
			if !exprLocal(v.Expr) {
				return false
			}
			for _, it := range v.List {
				if !exprLocal(it) {
					return false
				}
			}
			if v.Sub != nil {
				return c.subLocal(v.Sub, stack)
			}
			return true
		case *IsNullExpr:
			return exprLocal(v.Expr)
		case *FuncExpr:
			for _, a := range v.Args {
				if !exprLocal(a) {
					return false
				}
			}
			return true
		case *CastExpr:
			return exprLocal(v.Expr)
		case *CaseExpr:
			for _, w := range v.Whens {
				if !exprLocal(w.Cond) || !exprLocal(w.Then) {
					return false
				}
			}
			if v.Else != nil {
				return exprLocal(v.Else)
			}
			return true
		case *SubqueryExpr:
			return c.subLocal(v.Stmt, stack)
		case *ExistsExpr:
			return c.subLocal(v.Stmt, stack)
		default:
			return false
		}
	}
	if !exprLocal(sub.Where) || !exprLocal(sub.Having) {
		return false
	}
	for _, it := range sub.Items {
		if !exprLocal(it.Expr) {
			return false
		}
	}
	for _, j := range sub.Joins {
		if !exprLocal(j.On) {
			return false
		}
	}
	for _, g := range sub.GroupBy {
		if !exprLocal(g) {
			return false
		}
	}
	for _, o := range sub.OrderBy {
		if !exprLocal(o.Expr) {
			return false
		}
	}
	return true
}

// subBinds builds the bind list a subquery's FROM clause would produce, or
// reports failure for unknown tables.
func (c *planCompiler) subBinds(sub *SelectStmt) ([]colBind, bool) {
	if sub.From == nil {
		return nil, true
	}
	var binds []colBind
	add := func(ref TableRef) bool {
		t := c.db.Table(ref.Name)
		if t == nil {
			return false
		}
		eff := ref.EffectiveName()
		for _, col := range t.Columns {
			binds = append(binds, colBind{table: eff, name: col.Name})
		}
		return true
	}
	if !add(*sub.From) {
		return nil, false
	}
	for _, j := range sub.Joins {
		if !add(j.Table) {
			return nil, false
		}
	}
	return binds, true
}
