package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// vexec.go is the vectorized runtime for plans produced by compilePlan. A
// stage's working set (vbatch) is one row list per scan over that scan's
// table image, never a copy of it: a scan's pushed-down filters make its
// list, a join composes both sides' lists through its match lists, and every
// other filter composes them through its survivors. A column is gathered
// once per batch, when an expression reads it as a vector; a bare column
// read at a row, a GROUP BY key, an aggregate's argument or an item reads
// the image through its scan's list. The final stage yields cells: Query
// wraps them in a Result, and QueryScalar takes the one cell.
//
// The answer is the row-at-a-time one (DESIGN.md §12). Every node has one
// semantics, its row method: the row engine's, short-circuits included. A
// few nodes also have a batch kernel for the shapes claim queries run —
// columns, literals, arithmetic, comparisons as selections, subqueries, the
// typed aggregate folds — which shares the row functions' arithmetic
// (applyBinary, aggFold, ...) and so computes the same values, but may raise
// an error no row reaches: it runs operands over every row, in batch order.
// Every other node's batch value is its row method run row by row (rowVec),
// or once when it reads no row (vconst). A stage that fails is replayed one
// row at a time through the same nodes' row methods, in the row engine's
// order; the replay's values or first error are the answer.

// errPlanStale reports that the catalog changed after the plan was compiled.
// The statement is compiled again and rerun against the live catalog.
var errPlanStale = errors.New("sqldb: plan compiled against stale catalog")

// ExecVec compiles and executes a parsed statement, bypassing the plan
// cache. It is the entry point the differential tests drive; Query runs the
// same plans from the cache.
func ExecVec(db *Database, stmt *SelectStmt) (*Result, error) {
	for {
		p := compilePlan(db, stmt)
		out, err := p.run(db, nil, nil)
		if errors.Is(err, errPlanStale) {
			continue
		}
		if err != nil {
			return nil, err
		}
		return p.result(out), nil
	}
}

// output is what a plan's final stage yields: n rows of len(vecPlan.cols)
// cells, stored flat in cells, row after row, or — once a statement tail has
// reordered them — as rows.
type output struct {
	cells []Value
	rows  []outRow
	n     int
}

// first returns the first cell of the first row; n must be positive.
func (o *output) first() Value {
	if o.rows != nil {
		return o.rows[0].cells[0]
	}
	return o.cells[0]
}

// result wraps a run's output as a Result.
func (p *vecPlan) result(o output) *Result {
	res := &Result{Cols: p.cols}
	if o.n > 0 {
		w := len(p.cols)
		res.Rows = make([][]Value, o.n)
		for i := range res.Rows {
			if o.rows != nil {
				res.Rows[i] = o.rows[i].cells
			} else {
				res.Rows[i] = o.cells[i*w : (i+1)*w : (i+1)*w]
			}
		}
	}
	return res
}

// vbatch is a stage's working set: n rows, each one row of every scan's
// table image. It is one row list per scan (vside), which filters and joins
// compose and never gather. A column is gathered at most once per batch,
// into cols, when an expression reads it as a vector (vcol.eval); a bare
// column read at one row reads the image through its scan's list.
type vbatch struct {
	n     int
	scans []vside // per scan of the plan; a scan's own batch sets only its own
	cols  []*Vec  // per working-set slot: the column gathered over the n rows
}

// vside is one scan's part of a batch: its image columns (or a window of
// them) and the row of them each batch row is. A nil list means every row in
// order, and -1 is a LEFT join's NULL row.
type vside struct {
	cols []*Vec
	rows []int32
}

// pick returns the batch of b's rows idx, each scan's list composed through
// them.
func (b *vbatch) pick(idx []int32) *vbatch {
	out := &vbatch{n: len(idx), scans: make([]vside, len(b.scans)), cols: make([]*Vec, len(b.cols))}
	for si, s := range b.scans {
		out.scans[si] = vside{cols: s.cols, rows: through(s.rows, idx)}
	}
	return out
}

// through composes a row list with rows of it: list[rows[k]], -1 staying -1.
// A nil list is every row, so rows itself is the answer; the answer is never
// nil, which would mean every row.
func through(list, rows []int32) []int32 {
	if rows == nil {
		return []int32{}
	}
	if list == nil {
		return rows
	}
	out := make([]int32, len(rows))
	for k, r := range rows {
		out[k] = -1
		if r >= 0 {
			out[k] = list[r]
		}
	}
	return out
}

// vview is a column over a batch's rows read without gathering it: row i is
// row index(i) of col, or NULL where that is -1.
type vview struct {
	col  *Vec
	rows []int32 // nil: row i is col's row i
}

// index returns the row of col that the batch's row i reads, -1 for NULL.
func (v vview) index(i int) int {
	if v.rows == nil {
		return i
	}
	return int(v.rows[i])
}

// at returns the value at the batch's row i.
func (v vview) at(i int) Value {
	if r := v.index(i); r >= 0 {
		return v.col.At(r)
	}
	return Null()
}

// appendKey appends the grouping key of the batch's row i to dst.
func (v vview) appendKey(i int, dst []byte) []byte {
	if r := v.index(i); r >= 0 {
		return v.col.appendKey(r, dst)
	}
	return append(dst, Null().key()...)
}

// viewOf is e over b's rows as the final stage reads it: a bare column
// through its scan's list, any other node evaluated as a vector.
func viewOf(ctx *vecCtx, b *vbatch, e vexpr) (vview, error) {
	if c, ok := e.(*vcol); ok {
		return c.view(b), nil
	}
	v, err := e.eval(ctx, b)
	return vview{col: v}, err
}

// vecCtx carries one execution's state: the database, the enclosing row a
// correlated subquery's run reads, the scans' table images, and scratch
// space — scan batches and selections, constants, the one group of an
// ungrouped aggregate — that a run takes from idleCtxs and hands back, so a
// warm query reuses the previous run's instead of allocating its own. The
// cached plan stays immutable and race-free, and nothing a run returns points
// into its ctx.
type vecCtx struct {
	db     *Database
	p      *vecPlan
	outer  *outerRow     // the enclosing row of a correlated subquery's run
	images []*tableImage // the scans' table images, parallel to p.scans
	replay bool          // the per-group stage is being replayed (gagg.row)
	groups []vgroup      // the groups an aggregated plan projects

	tabBuf [4]*Table
	imgBuf [4]*tableImage
	scans  []vscan // per scan: its batch and selection buffers
	consts []*Vec  // constant vectors; the first nconst are in use
	nconst int
	items  []vview   // runRows' projected columns
	none   vbatch    // the empty working set of a table-less SELECT
	unit   vbatch    // the one row a table-less SELECT projects
	group  [1]vgroup // the one group of an aggregate without GROUP BY
	cell   [1]Value  // a scalar subquery's output
	aggs   map[*gagg]*Vec
	memos  []subMemo // the uncorrelated subqueries' values
}

// outerRow is the enclosing row a correlated subquery's run reads its outer
// references from: row r of batch b, itself enclosed by up.
type outerRow struct {
	b  *vbatch
	r  int
	up *outerRow
}

// vscan is one scan's reusable batch and selection buffers.
type vscan struct {
	b         vbatch
	sel, next []int32
}

// idleCtxs holds the contexts of finished runs for the next runs to take:
// about as many as ran at once, a subquery's run included. It is a locked
// stack rather than a sync.Pool, which under the race detector drops a
// random quarter of what it is handed, so that a warm query allocates the
// same in every build.
var idleCtxs struct {
	sync.Mutex
	ctxs []*vecCtx
}

const (
	maxIdleCtxs = 64
	// maxIdleSel bounds the selection buffers an idle ctx keeps: a scan of a
	// large image allocates its own rather than pinning one.
	maxIdleSel = windowRows
)

// takeCtx returns an idle ctx, or a new one.
func takeCtx() *vecCtx {
	idleCtxs.Lock()
	if n := len(idleCtxs.ctxs); n > 0 {
		ctx := idleCtxs.ctxs[n-1]
		idleCtxs.ctxs[n-1] = nil
		idleCtxs.ctxs = idleCtxs.ctxs[:n-1]
		idleCtxs.Unlock()
		return ctx
	}
	idleCtxs.Unlock()
	return &vecCtx{unit: vbatch{n: 1}}
}

// release drops what the run referenced and hands ctx back to idleCtxs.
func (ctx *vecCtx) release() {
	clear(ctx.tabBuf[:])
	clear(ctx.imgBuf[:])
	for i := range ctx.scans {
		sc := &ctx.scans[i]
		clear(sc.b.cols)
		clear(sc.b.scans)
		if cap(sc.sel) > maxIdleSel || cap(sc.next) > maxIdleSel {
			sc.sel, sc.next = nil, nil
		}
	}
	clear(ctx.items)
	clear(ctx.memos)
	ctx.memos = ctx.memos[:0]
	ctx.db, ctx.p, ctx.outer, ctx.images, ctx.nconst, ctx.aggs, ctx.replay, ctx.groups = nil, nil, nil, nil, 0, nil, false, nil
	ctx.group[0], ctx.cell[0] = vgroup{}, Value{}
	idleCtxs.Lock()
	if len(idleCtxs.ctxs) < maxIdleCtxs {
		idleCtxs.ctxs = append(idleCtxs.ctxs, ctx)
	}
	idleCtxs.Unlock()
}

// konst returns val as a constant vector, reusing one of ctx's.
func (ctx *vecCtx) konst(val Value) *Vec {
	if ctx.nconst == len(ctx.consts) {
		ctx.consts = append(ctx.consts, new(Vec))
	}
	v := ctx.consts[ctx.nconst]
	ctx.nconst++
	v.setConst(val)
	return v
}

// noRows is the value of an expression over a batch of no rows.
var noRows = new(Vec)

// run executes the plan against db; outer is the enclosing row of a
// correlated subquery's run, nil otherwise. A statement without a tail
// appends its output cells to dst, so a caller expecting one cell can pass
// room for it. errPlanStale means the catalog changed since compilation.
func (p *vecPlan) run(db *Database, outer *outerRow, dst []Value) (output, error) {
	ctx := takeCtx()
	defer ctx.release()
	ctx.db, ctx.p, ctx.outer = db, p, outer

	k := len(p.names)
	tables, images := ctx.tabBuf[:], ctx.imgBuf[:]
	if k > len(tables) {
		tables, images = make([]*Table, k), make([]*tableImage, k)
	}
	tables, images = tables[:k], images[:k]
	// The stamp moves with every AddTable of a named table, and a
	// registered table is frozen: the same stamp means the same columns.
	if db.snapshotTables(p.names, tables, images) != p.version {
		return output{}, errPlanStale
	}
	ctx.images = images
	for len(ctx.scans) < len(p.scans) {
		ctx.scans = append(ctx.scans, vscan{})
	}

	b, err := p.buildBatch(ctx)
	if err != nil {
		return output{}, err
	}
	if len(p.residual) > 0 {
		if b, err = filterStage(ctx, b, p.residual); err != nil {
			return output{}, err
		}
	}
	if p.fail != nil {
		return output{}, p.fail(db)
	}
	if p.aggregated {
		return p.runAgg(ctx, b, dst)
	}
	return p.runRows(ctx, b, dst)
}

// filterStage keeps the rows of b every filter selects, filter after filter
// over the previous one's survivors. If one fails, the stage is replayed.
func filterStage(ctx *vecCtx, b *vbatch, filters []vexpr) (*vbatch, error) {
	fb := b
	var err error
	for _, f := range filters {
		if fb, err = filterBatch(ctx, fb, f); err != nil {
			break
		}
	}
	if err == nil {
		return fb, nil
	}
	keep, err := replayFilter(ctx, b, filters)
	if err != nil {
		return nil, err
	}
	return b.pick(keep), nil
}

// replayFilter is a failed filter stage run again the row engine's way: row
// by row, each row's conjuncts in order up to the first that rejects it. The
// rows kept, or the first error, are the stage's answer.
func replayFilter(ctx *vecCtx, b *vbatch, filters []vexpr) ([]int32, error) {
	var keep []int32
	for i := 0; i < b.n; i++ {
		ok := true
		for _, f := range filters {
			v, err := f.row(ctx, b, i)
			if err != nil {
				return nil, err
			}
			if ok = v.AsBool(); !ok {
				break
			}
		}
		if ok {
			keep = append(keep, int32(i))
		}
	}
	return keep, nil
}

// replayViews is a failed projection stage run again the row engine's way:
// row by row, each row's expressions in order. It returns one vector per
// expression over b's rows, or the first error.
func replayViews(ctx *vecCtx, b *vbatch, exprs []vexpr) ([]vview, error) {
	views := make([]vview, len(exprs))
	for k := range views {
		views[k].col = NewVec(KindNull, b.n)
	}
	for i := 0; i < b.n; i++ {
		for k, e := range exprs {
			v, err := e.row(ctx, b, i)
			if err != nil {
				return nil, err
			}
			views[k].col.Append(v)
		}
	}
	return views, nil
}

// buildBatch scans and joins the FROM clause into one batch.
func (p *vecPlan) buildBatch(ctx *vecCtx) (*vbatch, error) {
	if len(p.scans) == 0 {
		return &ctx.none, nil
	}
	left, err := p.scanBatch(ctx, 0)
	if err != nil {
		return nil, err
	}
	for ji := range p.joins {
		right, err := p.scanBatch(ctx, ji+1)
		if err != nil {
			return nil, err
		}
		left, err = p.joinBatch(ctx, left, right, ji)
		if err != nil {
			return nil, err
		}
	}
	return left, nil
}

// scanBatch hands operators scan si straight from the table image, its list
// nil. With pushed-down filters it evaluates them over windows of windowRows
// rows — over the image columns themselves when the image is one window — and
// keeps the rows every filter selects as the scan's list, so filtered rows
// never reach join or aggregation operators. Pushed filters cannot raise
// errors (safeExpr), which is what lets each one see the whole window instead
// of the previous filter's survivors, and a conjunct of the form column =
// literal be answered from the column's equality index (access.go) with the
// others run over the index's survivors only.
func (p *vecPlan) scanBatch(ctx *vecCtx, si int) (*vbatch, error) {
	s, img, sc := &p.scans[si], ctx.images[si], &ctx.scans[si]
	out := &sc.b
	out.n = img.n
	if cap(out.scans) < len(p.scans) || cap(out.cols) < p.width {
		out.scans, out.cols = make([]vside, len(p.scans)), make([]*Vec, p.width)
	}
	out.scans, out.cols = out.scans[:len(p.scans)], out.cols[:p.width] // zero: release clears them
	out.scans[si].cols = img.cols
	if len(s.pushed) == 0 {
		return out, nil
	}
	keep, rest, probed := p.probeScan(ctx, si)
	if !probed {
		var err error
		if keep, err = filterScan(ctx, si, s.pushed, out, sc); err != nil {
			return nil, err
		}
	}
	if len(keep) < img.n {
		if keep == nil {
			keep = []int32{} // a list of no rows is still a list
		}
		out.scans[si].rows, out.n = keep, len(keep)
	}
	b := out
	for _, f := range rest {
		var err error
		if b, err = filterBatch(ctx, b, f); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// filterScan returns the rows of scan si's whole-image batch out that every
// pushed filter selects, in sc's buffer. An image of one window is filtered
// in place; a larger one window by window, over views of its columns.
func filterScan(ctx *vecCtx, si int, pushed []vexpr, out *vbatch, sc *vscan) ([]int32, error) {
	if out.n <= windowRows {
		keep, err := selectPushed(ctx, pushed, out, sc.sel, &sc.next)
		sc.sel = keep
		return keep, err
	}
	img := out.scans[si].cols
	win := &vbatch{scans: make([]vside, len(out.scans))} // its lists are nil: it gathers nothing
	views, wcols := make([]Vec, len(img)), make([]*Vec, len(img))
	for c := range wcols {
		wcols[c] = &views[c]
	}
	win.scans[si].cols = wcols
	keep := sc.sel[:0]
	var sel, next []int32
	for lo := 0; lo < out.n; lo += windowRows {
		hi := min(lo+windowRows, out.n)
		win.n = hi - lo
		for c, cv := range img {
			views[c].window(cv, lo, hi)
		}
		var err error
		if sel, err = selectPushed(ctx, pushed, win, sel, &next); err != nil {
			return nil, err
		}
		for _, i := range sel {
			keep = append(keep, int32(lo)+i)
		}
	}
	sc.sel = keep
	return keep, nil
}

// selectPushed returns, in sel's storage, the rows of b that every pushed
// filter selects; next is the scratch the second and later filters select
// into.
func selectPushed(ctx *vecCtx, pushed []vexpr, b *vbatch, sel []int32, next *[]int32) ([]int32, error) {
	var err error
	for k, f := range pushed {
		if k == 0 {
			sel, err = selectRows(ctx, b, f, sel[:0])
		} else if len(sel) > 0 {
			*next, err = selectRows(ctx, b, f, (*next)[:0])
			sel = intersect(sel, *next)
		}
		if err != nil {
			return nil, err
		}
	}
	return sel, nil
}

// probeScan answers scan si's index-eligible pushed conjuncts from their
// columns' equality indexes. keep is the intersection of the probed row lists
// and rest the pushed conjuncts still to be evaluated; ok is false when no
// conjunct could be probed and the scan should run as a scan.
func (p *vecPlan) probeScan(ctx *vecCtx, si int) (keep []int32, rest []vexpr, ok bool) {
	s := &p.scans[si]
	if len(s.eq) == 0 || ctx.images[si].paths == nil {
		return nil, nil, false
	}
	next := 0 // s.eq ascends by k
	for k, f := range s.pushed {
		if next < len(s.eq) && s.eq[next].k == k {
			e := s.eq[next]
			next++
			if rows, probed := ctx.probe(ctx.images[si], e.col, e.lit); probed {
				if ok {
					keep = intersect(keep, rows)
				} else {
					keep, ok = rows, true
				}
				continue
			}
		}
		rest = append(rest, f)
	}
	return keep, rest, ok
}

// intersect keeps the elements of a that also occur in b; both ascend.
func intersect(a, b []int32) []int32 {
	out := a[:0]
	for _, x := range a {
		for len(b) > 0 && b[0] < x {
			b = b[1:]
		}
		if len(b) > 0 && b[0] == x {
			out = append(out, x)
		}
	}
	return out
}

// selectRows appends to dst the rows of b for which f evaluates truthy
// (Value.AsBool, so NULL filters out — the row engine's WHERE semantics).
func selectRows(ctx *vecCtx, b *vbatch, f vexpr, dst []int32) ([]int32, error) {
	if c, ok := f.(*vcmp); ok {
		return c.sel(ctx, b, dst)
	}
	fv, err := f.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	for i := 0; i < b.n; i++ {
		if fv.At(i).AsBool() {
			dst = append(dst, int32(i))
		}
	}
	return dst, nil
}

// filterBatch keeps the rows f selects.
func filterBatch(ctx *vecCtx, b *vbatch, f vexpr) (*vbatch, error) {
	idx, err := selectRows(ctx, b, f, nil)
	if err != nil {
		return nil, err
	}
	if len(idx) == b.n {
		return b, nil
	}
	return b.pick(idx), nil
}

// hashPairs lists equi-join ji's (left row, right row) pairs in joinSets'
// order: left-major, each left row's matches in right-scan order, and -1 as
// the right row of a LEFT join's unmatched left row. Every match is found in
// an eqIndex (access.go). Typed numeric keys probe one over the right key:
// the image's own when the right scan's list is nil (the key is a whole image
// column), one built for this query otherwise, unless an INNER join can walk
// its small right side through the left key's image index instead
// (walkIndex). Every other key (text, which joinKey coerces, mixed, bool, or
// a right side holding a NaN) probes an index over both sides' joinKey
// strings.
func (p *vecPlan) hashPairs(ctx *vecCtx, left, right *vbatch, ji int) (li, ri []int32) {
	j := &p.joins[ji]
	pad := j.kind == "LEFT"
	leftKey, _ := j.lkey.eval(ctx, left) // a column's eval cannot fail
	rightKey, _ := j.rkey.eval(ctx, right)
	var ix *eqIndex
	if typedNum(leftKey) && typedNum(rightKey) {
		if cp := ctx.wholePaths(right, j.rkey); cp != nil {
			if ix = ctx.index(cp, rightKey); ix != nil {
				ctx.db.plans.indexJoins.Add(1)
			}
		} else {
			if cp := ctx.wholePaths(left, j.lkey); cp != nil && !pad && right.n < windowRows {
				if li, ri, ok := ctx.walkIndex(cp, leftKey, rightKey); ok {
					return li, ri
				}
			}
			ix = buildEqIndex(rightKey)
		}
	}
	if ix == nil {
		leftKey, rightKey = joinKeys(leftKey), joinKeys(rightKey)
		ix = buildEqIndex(rightKey)
	}
	li, ri = make([]int32, 0, left.n), make([]int32, 0, left.n)
	for i := 0; i < left.n; i++ {
		head := ix.lookup(leftKey, i)
		if head == 0 && pad {
			li, ri = append(li, int32(i)), append(ri, -1)
		}
		for ; head != 0; head = ix.after(head) {
			li, ri = append(li, int32(i)), append(ri, head-1)
		}
	}
	return li, ri
}

// joinKeys returns v's joinKey strings as a text vector, NULL where v is.
func joinKeys(v *Vec) *Vec {
	n := v.Len()
	out := &Vec{kind: KindText, strs: make([]string, n), nulls: make([]bool, n)}
	for i := 0; i < n; i++ {
		if x := v.At(i); x.IsNull() {
			out.nulls[i] = true
		} else {
			out.strs[i] = joinKey(x)
		}
	}
	return out
}

// joinBatch joins the accumulated left batch with the freshly scanned right
// batch under join ji, mirroring joinSets: on the recognized equi-join key a
// hash join (an index over the right key, probed in left order, LEFT padding
// with NULLs), a nested loop over the compiled ON clause for every other
// join. The joined batch is the match lists composed into both sides' lists.
func (p *vecPlan) joinBatch(ctx *vecCtx, left, right *vbatch, ji int) (*vbatch, error) {
	var li, ri []int32
	if p.joins[ji].lkey != nil {
		li, ri = p.hashPairs(ctx, left, right, ji)
	} else {
		var err error
		if li, ri, err = p.loopPairs(ctx, left, right, ji); err != nil {
			return nil, err
		}
	}
	return joined(left, right, ji+1, li, ri), nil
}

// joined is the batch of the pairs (li[k], ri[k]): left's rows li, with
// right's scan si read through ri.
func joined(left, right *vbatch, si int, li, ri []int32) *vbatch {
	out := left.pick(li)
	r := right.scans[si]
	out.scans[si] = vside{cols: r.cols, rows: through(r.rows, ri)}
	return out
}

// loopPairs lists nested-loop join ji's (left row, right row) pairs in
// joinSets' order, left-major, with -1 as the right row of a LEFT join's
// unmatched left row. A CROSS join lists every pair. An ON clause runs as a
// filter stage over windows of whole left rows' candidate pairs, so a window
// that fails is replayed pair by pair before any later pair is looked at: the
// first error is the row engine's.
func (p *vecPlan) loopPairs(ctx *vecCtx, left, right *vbatch, ji int) (li, ri []int32, err error) {
	j := &p.joins[ji]
	if j.on == nil {
		li, ri = make([]int32, 0, left.n*right.n), make([]int32, 0, left.n*right.n)
		for i := 0; i < left.n; i++ {
			for k := 0; k < right.n; k++ {
				li, ri = append(li, int32(i)), append(ri, int32(k))
			}
		}
		return li, ri, nil
	}
	per := max(windowRows/max(right.n, 1), 1) // left rows per window
	var pl, pr []int32
	for i0 := 0; i0 < left.n; i0 += per {
		i1 := min(i0+per, left.n)
		pl, pr = pl[:0], pr[:0]
		for i := i0; i < i1; i++ {
			for k := 0; k < right.n; k++ {
				pl, pr = append(pl, int32(i)), append(pr, int32(k))
			}
		}
		pb := joined(left, right, ji+1, pl, pr)
		nconst := ctx.nconst // the window's constants die with it
		keep, err := selectRows(ctx, pb, j.on, nil)
		if err != nil {
			if keep, err = replayFilter(ctx, pb, []vexpr{j.on}); err != nil {
				return nil, nil, err
			}
		}
		ctx.nconst = nconst
		for i, next := i0, 0; i < i1; i++ {
			matched := false
			for end := int32((i - i0 + 1) * right.n); next < len(keep) && keep[next] < end; next++ {
				li, ri, matched = append(li, int32(i)), append(ri, pr[keep[next]]), true
			}
			if !matched && j.kind == "LEFT" {
				li, ri = append(li, int32(i)), append(ri, -1)
			}
		}
	}
	return li, ri, nil
}

// runRows projects a non-aggregated batch: straight into dst, or through the
// statement tail when it has one. The stage evaluates the items and then the
// ORDER BY keys that are not an item, the row engine's order within a row.
func (p *vecPlan) runRows(ctx *vecCtx, b *vbatch, dst []Value) (output, error) {
	if len(p.scans) == 0 {
		// Table-less SELECT: one row evaluated over no bindings, with no
		// ORDER BY keys — exactly the row engine's FROM-less branch.
		b = &ctx.unit
	}
	if cap(ctx.items) < len(p.itemsV) {
		ctx.items = make([]vview, len(p.itemsV))
	}
	views := ctx.items[:len(p.itemsV)]
	for k, iv := range p.itemsV {
		v, err := viewOf(ctx, b, iv)
		if err != nil {
			if views, err = replayViews(ctx, b, p.itemsV); err != nil {
				return output{}, err
			}
			break
		}
		views[k] = v
	}
	w := len(p.cols)
	if p.tail.none() {
		for i := 0; i < b.n; i++ {
			for _, v := range views[:w] {
				dst = append(dst, v.at(i))
			}
		}
		return output{cells: dst, n: b.n}, nil
	}
	flat := make([]Value, b.n*w)
	out := make([]outRow, b.n)
	for i := range out {
		row := &out[i]
		row.cells = flat[i*w : (i+1)*w : (i+1)*w]
		for k := range row.cells {
			row.cells[k] = views[k].at(i)
		}
		if len(p.orderV) > 0 {
			row.keys = make([]Value, len(p.orderV))
			for k, ci := range p.orderV {
				if ci >= 0 {
					row.keys[k] = views[ci].at(i)
				}
			}
		}
	}
	return p.finish(out), nil
}

// finish applies the statement tail to the projected rows.
func (p *vecPlan) finish(out []outRow) output {
	out = p.tail.apply(out)
	if out == nil {
		out = []outRow{}
	}
	return output{rows: out, n: len(out)}
}

// vgroup is one GROUP BY partition of the filtered batch: n rows, listed in
// rows, or every batch row in order when rows is nil.
type vgroup struct {
	b    *vbatch
	n    int
	rows []int32
}

// row returns the batch index of the group's k'th row.
func (g *vgroup) row(k int) int {
	if g.rows == nil {
		return k
	}
	return int(g.rows[k])
}

// runAgg partitions the batch and projects the groups. The per-group stage
// runs HAVING, the items and the ORDER BY keys group by group, as the row
// engine does; if it fails, it is replayed with every aggregate folding its
// group's arguments row by row (gagg.row).
func (p *vecPlan) runAgg(ctx *vecCtx, b *vbatch, dst []Value) (output, error) {
	groups, err := p.partition(ctx, b)
	if err != nil {
		return output{}, err
	}
	ctx.groups = groups
	out, err := p.projectGroups(ctx, dst)
	if err != nil {
		ctx.replay = true
		out, err = p.projectGroups(ctx, dst)
	}
	return out, err
}

// projectGroups applies HAVING and projects each surviving group: straight
// into dst, or through the statement tail when it has one. Group gi is row gi
// of the aggregate-context nodes, which read it through ctx.groups and are
// handed no batch.
func (p *vecPlan) projectGroups(ctx *vecCtx, dst []Value) (output, error) {
	direct := p.tail.none()
	var out []outRow
	n := 0
	for gi := range ctx.groups {
		if p.having != nil {
			hv, err := p.having.row(ctx, nil, gi)
			if err != nil {
				return output{}, err
			}
			if !hv.AsBool() {
				continue
			}
		}
		if direct {
			var err error
			if dst, err = p.groupItems(ctx, gi, dst); err != nil {
				return output{}, err
			}
			n++
			continue
		}
		cells, err := p.groupItems(ctx, gi, make([]Value, 0, len(p.itemsV)))
		if err != nil {
			return output{}, err
		}
		w := len(p.cols)
		row := outRow{cells: cells[:w:w]}
		if len(p.orderV) > 0 {
			row.keys = make([]Value, len(p.orderV))
			for k, ci := range p.orderV {
				row.keys[k] = cells[ci]
			}
		}
		out = append(out, row)
	}
	if direct {
		return output{cells: dst, n: n}, nil
	}
	return p.finish(out), nil
}

// groupItems appends group gi's items, then its ORDER BY keys that are not
// an item, to dst.
func (p *vecPlan) groupItems(ctx *vecCtx, gi int, dst []Value) ([]Value, error) {
	for _, e := range p.itemsV {
		v, err := e.row(ctx, nil, gi)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// partition groups batch rows by the GROUP BY key vectors in first-appearance
// order. With no GROUP BY the whole batch is one group, even when empty, so
// aggregates over empty inputs still produce a row.
func (p *vecPlan) partition(ctx *vecCtx, b *vbatch) ([]vgroup, error) {
	if len(p.groupByV) == 0 {
		ctx.group[0] = vgroup{b: b, n: b.n}
		return ctx.group[:], nil
	}
	keys := make([]vview, len(p.groupByV))
	for k, gv := range p.groupByV {
		kv, err := viewOf(ctx, b, gv)
		if err != nil {
			if keys, err = replayViews(ctx, b, p.groupByV); err != nil {
				return nil, err
			}
			break
		}
		keys[k] = kv
	}
	// Two passes, so the groups' row lists are slices of one exactly sized
	// array instead of each growing by doubling.
	index := make(map[string]int32)
	gids := make([]int32, b.n)
	var sizes []int
	var kb []byte
	for i := range gids {
		kb = kb[:0]
		for _, kv := range keys {
			kb = kv.appendKey(i, kb)
		}
		gi, ok := index[string(kb)] // alloc-free lookup
		if !ok {
			gi = int32(len(sizes))
			index[string(kb)] = gi
			sizes = append(sizes, 0)
		}
		gids[i] = gi
		sizes[gi]++
	}
	rows := make([]int32, b.n)
	groups := make([]vgroup, len(sizes))
	for gi, n := range sizes {
		groups[gi] = vgroup{b: b, rows: rows[:0:n]}
		rows = rows[n:]
	}
	for i, gi := range gids {
		g := &groups[gi]
		g.rows = append(g.rows, int32(i))
		g.n++
	}
	return groups, nil
}

// ---------------------------------------------------------------------------
// Row-context vectorized expressions.

// vexpr evaluates to one value per row. row evaluates the expression at
// row r of b alone, exactly as the row engine's eval would: AND, OR
// and CASE evaluate only the operands the row reaches, everything else its
// operands in order. In aggregate context r is a group of ctx.groups (and b
// is nil). eval is the stage's batch evaluation: a kernel for the shapes
// claim queries run, rowVec for the rest.
type vexpr interface {
	eval(ctx *vecCtx, b *vbatch) (*Vec, error)
	row(ctx *vecCtx, b *vbatch, r int) (Value, error)
}

// rowVec is the batch evaluation of every node without a kernel of its own:
// its row method, row by row in batch order. Over no rows it evaluates
// nothing.
func rowVec(ctx *vecCtx, b *vbatch, e vexpr) (*Vec, error) {
	return mapVec(b.n, func(i int) (Value, error) { return e.row(ctx, b, i) })
}

// vconst is a node that reads no row: its operands are literals, outer
// references, uncorrelated subqueries and nodes over nothing else, so its
// value is the same at every row of an execution. Its batch value is one
// constant vector, evaluated at the first row, which is what lets a
// comparison against it run a typed column-versus-scalar kernel.
type vconst struct{ vexpr }

func (v *vconst) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	if b.n == 0 {
		return noRows, nil
	}
	val, err := v.row(ctx, b, 0)
	if err != nil {
		return nil, err
	}
	return ctx.konst(val), nil
}

// typedNum reports whether the vector has unboxed numeric storage.
func typedNum(v *Vec) bool { return v.kind == KindInt || v.kind == KindFloat }

// numAt reads a typed vector's value as float64, the representation
// Value.Compare reduces numerics to.
func numAt(v *Vec, i int) float64 {
	if v.konst {
		i = 0
	}
	if v.kind == KindInt {
		return float64(v.ints[i])
	}
	return v.floats[i]
}

// intAt reads an integer vector's value.
func intAt(v *Vec, i int) int64 {
	if v.konst {
		i = 0
	}
	return v.ints[i]
}

// mapVec evaluates f element-wise into a vector stored unboxed under the
// first value's kind for as long as the values keep it, as an image column
// is, so the kernels reading it take their typed paths.
func mapVec(n int, f func(i int) (Value, error)) (*Vec, error) {
	out := noRows
	for i := 0; i < n; i++ {
		v, err := f(i)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			out = NewVec(v.Kind(), n)
		}
		out.Append(v)
	}
	return out, nil
}

type vlit struct{ val Value }

func (v *vlit) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	return ctx.konst(v.val), nil
}

func (v *vlit) row(ctx *vecCtx, b *vbatch, r int) (Value, error) { return v.val, nil }

// vcol is a stored column: column c of scan si, working-set slot slot.
type vcol struct{ slot, si, c int }

// view is the column over b's rows, read through its scan's list.
func (v *vcol) view(b *vbatch) vview {
	s := &b.scans[v.si]
	return vview{col: s.cols[v.c], rows: s.rows}
}

// eval is the column as a vector of b's rows: the image column itself when
// the scan's list is nil, else gathered through it once per batch.
func (v *vcol) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	s := &b.scans[v.si]
	if s.rows == nil {
		return s.cols[v.c], nil
	}
	if b.cols[v.slot] == nil {
		b.cols[v.slot] = s.cols[v.c].Gather(s.rows)
	}
	return b.cols[v.slot], nil
}

func (v *vcol) row(ctx *vecCtx, b *vbatch, r int) (Value, error) { return v.view(b).at(r), nil }

// vouter reads col of the enclosing row level statements out: a correlated
// subquery's reference to the row it runs for, a constant over its batch.
type vouter struct {
	level int
	col   *vcol
}

func (v *vouter) value(ctx *vecCtx) Value {
	o := ctx.outer
	for l := 1; l < v.level; l++ {
		o = o.up
	}
	return v.col.view(o.b).at(o.r)
}

func (v *vouter) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	return ctx.konst(v.value(ctx)), nil
}

func (v *vouter) row(ctx *vecCtx, b *vbatch, r int) (Value, error) { return v.value(ctx), nil }

// verr is an expression the row engine fails on whenever a row reaches it: an
// unresolvable name, an aggregate outside aggregate context, a misplaced *.
// Over no rows it fails nothing.
type verr struct{ err error }

func (v *verr) eval(ctx *vecCtx, b *vbatch) (*Vec, error) { return rowVec(ctx, b, v) }

func (v *verr) row(ctx *vecCtx, b *vbatch, r int) (Value, error) { return Null(), v.err }

type vunary struct {
	op string
	x  vexpr
}

func (v *vunary) eval(ctx *vecCtx, b *vbatch) (*Vec, error) { return rowVec(ctx, b, v) }

func (v *vunary) row(ctx *vecCtx, b *vbatch, r int) (Value, error) {
	x, err := v.x.row(ctx, b, r)
	if err != nil {
		return Null(), err
	}
	return applyUnary(v.op, x)
}

type vand struct{ l, r vexpr }

func (v *vand) eval(ctx *vecCtx, b *vbatch) (*Vec, error) { return rowVec(ctx, b, v) }

func (v *vand) row(ctx *vecCtx, b *vbatch, r int) (Value, error) {
	return shortCircuit(ctx, b, r, v.l, v.r, false)
}

// shortCircuit is the row engine's AND (stop on false) and OR (stop on true).
func shortCircuit(ctx *vecCtx, b *vbatch, r int, x, y vexpr, stopOn bool) (Value, error) {
	l, err := x.row(ctx, b, r)
	if err != nil || l.AsBool() == stopOn {
		return Bool(stopOn), err
	}
	rv, err := y.row(ctx, b, r)
	return Bool(rv.AsBool()), err
}

type vor struct{ l, r vexpr }

func (v *vor) eval(ctx *vecCtx, b *vbatch) (*Vec, error) { return rowVec(ctx, b, v) }

func (v *vor) row(ctx *vecCtx, b *vbatch, r int) (Value, error) {
	return shortCircuit(ctx, b, r, v.l, v.r, true)
}

// vbin is a binary operator other than AND, OR and the comparisons. Its
// kernel runs typed numeric arithmetic unboxed.
type vbin struct {
	op   string
	l, r vexpr
}

func (v *vbin) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	lv, err := v.l.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	rv, err := v.r.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	if typedNum(lv) && typedNum(rv) {
		switch v.op {
		case "+", "-", "*", "/", "%":
			return arithKernel(v.op, lv, rv, b.n)
		}
	}
	return mapVec(b.n, func(i int) (Value, error) { return applyBinary(v.op, lv.At(i), rv.At(i)) })
}

func (v *vbin) row(ctx *vecCtx, b *vbatch, r int) (Value, error) {
	return binaryRow(ctx, b, r, v.op, v.l, v.r)
}

// binaryRow evaluates both operands at row r, then applies op.
func binaryRow(ctx *vecCtx, b *vbatch, r int, op string, x, y vexpr) (Value, error) {
	l, err := x.row(ctx, b, r)
	if err != nil {
		return Null(), err
	}
	rv, err := y.row(ctx, b, r)
	if err != nil {
		return Null(), err
	}
	return applyBinary(op, l, rv)
}

// vcmp is a comparison. Its kernel is the selection of rows where it holds,
// which is what a filter consumes (selectRows); in every other context it
// evaluates row by row. A comparison never yields NULL or an error:
// applyBinary maps a NULL operand to false and incomparable kinds to
// op == "<>".
type vcmp struct {
	op    string
	truth [3]bool // whether "l op r" holds, indexed by Compare(l, r)+1
	l, r  vexpr
}

// cmpTruth maps each comparison operator to its vcmp.truth table.
var cmpTruth = map[string][3]bool{
	"=":  {false, true, false},
	"<>": {true, false, true},
	"<":  {true, false, false},
	"<=": {true, true, false},
	">":  {false, false, true},
	">=": {false, true, true},
}

func (v *vcmp) eval(ctx *vecCtx, b *vbatch) (*Vec, error) { return rowVec(ctx, b, v) }

func (v *vcmp) row(ctx *vecCtx, b *vbatch, r int) (Value, error) {
	return binaryRow(ctx, b, r, v.op, v.l, v.r)
}

// cmp3 is Value.Compare's three-way float64 ordering, shifted to index
// vcmp.truth. Both operands of every numeric comparison pass through float64
// — the same (lossy above 2^53) reduction Compare applies, NaN comparing
// "equal" to everything included — so kernel and row engine always agree.
func cmp3(a, b float64) int {
	switch {
	case a < b:
		return 0
	case a > b:
		return 2
	}
	return 1
}

// selNum is the column-versus-scalar numeric kernel.
func selNum[T int64 | float64](xs []T, nulls []bool, c float64, truth [3]bool, dst []int32) []int32 {
	for i, x := range xs {
		if truth[cmp3(float64(x), c)] && (nulls == nil || !nulls[i]) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// sel appends to dst the rows where the comparison holds. A typed column
// against a constant of matching storage, in either operand order (the
// shape of nearly every pushed-down claim predicate), runs a tight loop over
// the column's slice; other typed numeric pairs compare through numAt;
// everything else goes through applyBinary row by row.
func (v *vcmp) sel(ctx *vecCtx, b *vbatch, dst []int32) ([]int32, error) {
	lv, err := v.l.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	rv, err := v.r.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	// The column-versus-literal kernels take the literal from either side:
	// "lit op col" is "col op' lit" with the truth table mirrored.
	col, lit, truth := lv, rv, v.truth
	if lv.konst {
		col, lit, truth = rv, lv, [3]bool{truth[2], truth[1], truth[0]}
	}
	scalar := lit.konst && !col.konst // a typed constant is never NULL
	switch {
	case scalar && col.kind == KindText && lit.kind == KindText:
		s0 := lit.strs[0]
		if truth[0] == truth[2] {
			// = and <> only ask whether the strings are equal, which a length
			// mismatch settles without reading them.
			for i, s := range col.strs {
				if (s == s0) == truth[1] && (col.nulls == nil || !col.nulls[i]) {
					dst = append(dst, int32(i))
				}
			}
		} else {
			for i, s := range col.strs {
				if truth[strings.Compare(s, s0)+1] && (col.nulls == nil || !col.nulls[i]) {
					dst = append(dst, int32(i))
				}
			}
		}
	case scalar && col.kind == KindInt && typedNum(lit):
		dst = selNum(col.ints, col.nulls, numAt(lit, 0), truth, dst)
	case scalar && col.kind == KindFloat && typedNum(lit):
		dst = selNum(col.floats, col.nulls, numAt(lit, 0), truth, dst)
	case typedNum(lv) && typedNum(rv):
		for i := 0; i < b.n; i++ {
			if !lv.IsNullAt(i) && !rv.IsNullAt(i) && v.truth[cmp3(numAt(lv, i), numAt(rv, i))] {
				dst = append(dst, int32(i))
			}
		}
	default:
		for i := 0; i < b.n; i++ {
			if res, _ := applyBinary(v.op, lv.At(i), rv.At(i)); res.AsBool() {
				dst = append(dst, int32(i))
			}
		}
	}
	return dst, nil
}

// arithKernel applies applyArith's rules to typed numeric vectors: exact
// int64 arithmetic (intArith) when both sides are integers, float64
// (floatArith) otherwise.
func arithKernel(op string, lv, rv *Vec, n int) (*Vec, error) {
	bothInt := lv.kind == KindInt && rv.kind == KindInt
	hint := KindFloat
	if bothInt {
		hint = KindInt
	}
	out := NewVec(hint, n)
	for i := 0; i < n; i++ {
		switch {
		case lv.IsNullAt(i) || rv.IsNullAt(i):
			out.Append(Null())
		case bothInt:
			v, err := intArith(op, intAt(lv, i), intAt(rv, i))
			if err != nil {
				return nil, err
			}
			out.Append(v)
		default:
			out.Append(floatArith(op, numAt(lv, i), numAt(rv, i)))
		}
	}
	return out, nil
}

type vbetween struct {
	x, lo, hi vexpr
	not       bool
}

func (v *vbetween) eval(ctx *vecCtx, b *vbatch) (*Vec, error) { return rowVec(ctx, b, v) }

func (v *vbetween) row(ctx *vecCtx, b *vbatch, r int) (Value, error) {
	var buf [3]Value
	vals, err := rowArgs(ctx, b, r, buf[:0], v.x, v.lo, v.hi)
	if err != nil {
		return Null(), err
	}
	c1, ok1 := vals[0].Compare(vals[1])
	c2, ok2 := vals[0].Compare(vals[2])
	return Bool((ok1 && ok2 && c1 >= 0 && c2 <= 0) != v.not), nil
}

// rowArgs appends the values of es at row r to dst, evaluated in order up to
// the first error.
func rowArgs(ctx *vecCtx, b *vbatch, r int, dst []Value, es ...vexpr) ([]Value, error) {
	for _, e := range es {
		v, err := e.row(ctx, b, r)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

type vin struct {
	x    vexpr
	list []vexpr
	not  bool
}

func (v *vin) eval(ctx *vecCtx, b *vbatch) (*Vec, error) { return rowVec(ctx, b, v) }

func (v *vin) row(ctx *vecCtx, b *vbatch, r int) (Value, error) {
	x, err := v.x.row(ctx, b, r)
	if err != nil {
		return Null(), err
	}
	var buf [8]Value
	set, err := rowArgs(ctx, b, r, buf[:0], v.list...)
	if err != nil {
		return Null(), err
	}
	return Bool(member(x, set) != v.not), nil
}

// member reports whether x equals one of set.
func member(x Value, set []Value) bool {
	for _, c := range set {
		if x.Equal(c) {
			return true
		}
	}
	return false
}

type visnull struct {
	x   vexpr
	not bool
}

func (v *visnull) eval(ctx *vecCtx, b *vbatch) (*Vec, error) { return rowVec(ctx, b, v) }

func (v *visnull) row(ctx *vecCtx, b *vbatch, r int) (Value, error) {
	x, err := v.x.row(ctx, b, r)
	return Bool(x.IsNull() != v.not), err
}

type vfunc struct {
	name string
	args []vexpr
}

func (v *vfunc) eval(ctx *vecCtx, b *vbatch) (*Vec, error) { return rowVec(ctx, b, v) }

func (v *vfunc) row(ctx *vecCtx, b *vbatch, r int) (Value, error) {
	var buf [4]Value
	args, err := rowArgs(ctx, b, r, buf[:0], v.args...)
	if err != nil {
		return Null(), err
	}
	return applyScalarFunc(v.name, args)
}

type vcast struct {
	x    vexpr
	kind Kind
}

func (v *vcast) eval(ctx *vecCtx, b *vbatch) (*Vec, error) { return rowVec(ctx, b, v) }

func (v *vcast) row(ctx *vecCtx, b *vbatch, r int) (Value, error) {
	x, err := v.x.row(ctx, b, r)
	if err != nil {
		return Null(), err
	}
	return castValue(x, v.kind)
}

type vcase struct {
	conds []vexpr
	thens []vexpr
	els   vexpr
}

func (v *vcase) eval(ctx *vecCtx, b *vbatch) (*Vec, error) { return rowVec(ctx, b, v) }

func (v *vcase) row(ctx *vecCtx, b *vbatch, r int) (Value, error) {
	for k, cond := range v.conds {
		c, err := cond.row(ctx, b, r)
		if err != nil {
			return Null(), err
		}
		if c.AsBool() {
			return v.thens[k].row(ctx, b, r)
		}
	}
	if v.els != nil {
		return v.els.row(ctx, b, r)
	}
	return Null(), nil
}

// subq is a subquery operand. An uncorrelated one runs once per execution,
// when a row first reaches it, and every later row reads its memo
// (ctx.once); a correlated one runs once per enclosing row, its outer
// references reading that row — in aggregate context (first) the group's
// first row.
type subq struct {
	plan        *vecPlan
	corr, first bool
}

// run runs the subquery for row r of b.
func (s subq) run(ctx *vecCtx, b *vbatch, r int, dst []Value) (output, error) {
	var outer *outerRow
	if s.corr {
		if s.first {
			b, r = ctx.first(r)
		}
		outer = &outerRow{b: b, r: r, up: ctx.outer}
	}
	return s.plan.run(ctx.db, outer, dst)
}

// subMemo is what a subquery node computed: the value of a scalar or EXISTS
// subquery, an IN subquery's column, or the error it raised.
type subMemo struct {
	node vexpr
	val  Value
	set  []Value
	err  error
}

// once returns what node computes over subquery s: computed for every row
// when s is correlated, and once per execution when it is not.
func (ctx *vecCtx) once(node vexpr, s subq, compute func() subMemo) subMemo {
	if s.corr {
		return compute()
	}
	for _, m := range ctx.memos {
		if m.node == node {
			return m
		}
	}
	m := compute()
	m.node = node
	ctx.memos = append(ctx.memos, m)
	return m
}

// vsub is a scalar subquery, or with exists an EXISTS test. The scalar-shape
// checks mirror the row engine's SubqueryExpr case exactly.
type vsub struct {
	sub    subq
	exists bool
}

func (v *vsub) eval(ctx *vecCtx, b *vbatch) (*Vec, error) { return rowVec(ctx, b, v) }

func (v *vsub) row(ctx *vecCtx, b *vbatch, r int) (Value, error) {
	m := ctx.once(v, v.sub, func() subMemo {
		out, err := v.sub.run(ctx, b, r, ctx.cell[:0])
		switch {
		case err != nil:
			return subMemo{err: err}
		case v.exists:
			return subMemo{val: Bool(out.n > 0)}
		case len(v.sub.plan.cols) != 1:
			return subMemo{err: fmt.Errorf("%w: scalar subquery with %d columns", ErrNotScalar, len(v.sub.plan.cols))}
		case out.n > 1:
			return subMemo{err: fmt.Errorf("%w: scalar subquery returned %d rows", ErrNotScalar, out.n)}
		case out.n == 1:
			return subMemo{val: out.first()}
		}
		return subMemo{}
	})
	return m.val, m.err
}

type vinsub struct {
	x   vexpr
	sub subq
	not bool
}

// eval tests an uncorrelated subquery's set against the whole operand vector.
func (v *vinsub) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	if v.sub.corr {
		return rowVec(ctx, b, v)
	}
	xv, err := v.x.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	if b.n == 0 {
		return noRows, nil
	}
	set, err := v.set(ctx, b, 0)
	if err != nil {
		return nil, err
	}
	out := &Vec{kind: KindBool, bools: make([]bool, b.n)}
	for i := range out.bools {
		out.bools[i] = member(xv.At(i), set) != v.not
	}
	return out, nil
}

func (v *vinsub) row(ctx *vecCtx, b *vbatch, r int) (Value, error) {
	x, err := v.x.row(ctx, b, r)
	if err != nil {
		return Null(), err
	}
	set, err := v.set(ctx, b, r)
	if err != nil {
		return Null(), err
	}
	return Bool(member(x, set) != v.not), nil
}

// set returns the subquery's one column for row r of b.
func (v *vinsub) set(ctx *vecCtx, b *vbatch, r int) ([]Value, error) {
	m := ctx.once(v, v.sub, func() subMemo {
		out, err := v.sub.run(ctx, b, r, nil)
		if err != nil {
			return subMemo{err: err}
		}
		if len(v.sub.plan.cols) != 1 {
			return subMemo{err: fmt.Errorf("%w: IN subquery with %d columns", ErrNotScalar, len(v.sub.plan.cols))}
		}
		set := make([]Value, out.n)
		for i, row := range v.sub.plan.result(out).Rows {
			set[i] = row[0]
		}
		return subMemo{set: set}
	})
	return m.set, m.err
}

// ---------------------------------------------------------------------------
// Aggregate leaves. In aggregate context a node's row r is group r of
// ctx.groups, and the ordinary nodes combine two leaves: an aggregate folding
// its group and a column reading the group's first row.

// first returns group gi's first row as a batch and a row of it, or a row
// of NULLs when the group is empty (an aggregate over no rows).
func (ctx *vecCtx) first(gi int) (*vbatch, int) {
	g := &ctx.groups[gi]
	if g.n > 0 {
		return g.b, g.row(0)
	}
	return g.b.pick(nullList), 0
}

// nullList is the list of one NULL row. It is shared, and nothing writes to it.
var nullList = []int32{-1}

// gfirst is a column reference in aggregate context: the column at the
// group's first row, as the row engine's groupEnv reads it.
type gfirst struct{ col *vcol }

func (v *gfirst) eval(ctx *vecCtx, b *vbatch) (*Vec, error) { return rowVec(ctx, b, v) }

func (v *gfirst) row(ctx *vecCtx, b *vbatch, r int) (Value, error) {
	fb, fr := ctx.first(r)
	return v.col.view(fb).at(fr), nil
}

// gagg folds an aggregate over the group. A bare column argument is read
// through its scan's list; any other argument is evaluated once over
// the whole batch (memoized across groups and across the HAVING/items/ORDER
// BY positions that reference aggregates) and each group indexes into it.
// Typed vectors take unboxed fold paths that reproduce evalAggregate's
// float64 arithmetic exactly.
type gagg struct {
	name           string
	star, distinct bool
	nargs          int
	arg            vexpr
}

func (a *gagg) argView(ctx *vecCtx, b *vbatch) (vview, error) {
	if c, ok := a.arg.(*vcol); ok {
		return c.view(b), nil
	}
	if av, ok := ctx.aggs[a]; ok {
		return vview{col: av}, nil
	}
	av, err := a.arg.eval(ctx, b)
	if err != nil {
		return vview{}, err
	}
	if ctx.aggs == nil {
		ctx.aggs = make(map[*gagg]*Vec)
	}
	ctx.aggs[a] = av
	return vview{col: av}, nil
}

func (a *gagg) eval(ctx *vecCtx, b *vbatch) (*Vec, error) { return rowVec(ctx, b, a) }

// row folds group r.
func (a *gagg) row(ctx *vecCtx, b *vbatch, r int) (Value, error) {
	g := &ctx.groups[r]
	if a.star {
		return Int(int64(g.n)), nil
	}
	if a.nargs != 1 {
		return Null(), fmt.Errorf("%w: %s takes one argument", ErrType, a.name)
	}
	if ctx.replay {
		return a.replay(ctx, g)
	}
	av, err := a.argView(ctx, g.b)
	if err != nil {
		return Null(), err
	}
	name, col := a.name, av.col
	if !a.distinct && col.kind != KindNull && !col.konst {
		if name == "COUNT" {
			// The NULL mask of an unboxed vector already says how many values
			// the group holds.
			cnt := g.n
			if col.nulls != nil || av.rows != nil {
				for k := 0; k < g.n; k++ {
					if r := av.index(g.row(k)); r < 0 || col.nulls != nil && col.nulls[r] {
						cnt--
					}
				}
			}
			return Int(int64(cnt)), nil
		}
		if typedNum(col) {
			return finishFold(name, col, a.fold(ctx, av, g))
		}
	}
	// Generic fold: evalAggregate's, over the group's values in row order.
	agg := aggFold{name: name, distinct: a.distinct}
	for k := 0; k < g.n; k++ {
		if err := agg.add(av.at(g.row(k))); err != nil {
			return Null(), err
		}
	}
	return agg.result()
}

// replay folds the group the row engine's way: the argument evaluated at
// each of the group's rows in order, every one before any is folded, so an
// evaluation error outranks a fold's type error.
func (a *gagg) replay(ctx *vecCtx, g *vgroup) (Value, error) {
	vals := make([]Value, g.n)
	for k := range vals {
		var err error
		if vals[k], err = a.arg.row(ctx, g.b, g.row(k)); err != nil {
			return Null(), err
		}
	}
	agg := aggFold{name: a.name, distinct: a.distinct}
	for _, v := range vals {
		if err := agg.add(v); err != nil {
			return Null(), err
		}
	}
	return agg.result()
}

// fold returns the group's typed fold of av: from the column's memo when the
// group is the whole batch and the batch every row of the column's image
// (stored by the first such query and the same tuple for every later one),
// by one pass otherwise.
func (a *gagg) fold(ctx *vecCtx, av vview, g *vgroup) colFold {
	if c, ok := a.arg.(*vcol); ok && g.rows == nil && av.rows == nil {
		if f, fresh := ctx.imageFold(c.si, c.c); f != nil {
			if !fresh {
				ctx.db.plans.foldHits.Add(1)
			}
			return *f
		}
	}
	return foldCol(av, g)
}

// foldCol folds group g of the typed numeric column av.
func foldCol(av vview, g *vgroup) colFold {
	if av.col.kind == KindInt {
		return foldTyped(av, av.col.ints, g)
	}
	return foldTyped(av, av.col.floats, g)
}

// colFold is what one pass over a group of an unboxed numeric vector yields
// for every aggregate at once: the non-NULL count, their sum, the rows of the
// vector holding the first minimum and maximum (-1 over no values).
type colFold struct {
	cnt    int
	sum    numSum
	lo, hi int
}

// foldTyped folds group g of av (xs is av.col's storage) without boxing.
// MIN/MAX comparisons go through float64 because that is what evalAggregate
// does via Compare; like it, MIN and MAX keep the first of equal (or
// NaN-incomparable) values. SUM and AVG accumulate as evalAggregate does, in
// a numSum.
func foldTyped[T int64 | float64](av vview, xs []T, g *vgroup) colFold {
	cnt, lo, hi := 0, -1, -1
	var sum numSum
	nulls := av.col.nulls
	for k := 0; k < g.n; k++ {
		r := av.index(g.row(k))
		if r < 0 || nulls != nil && nulls[r] {
			continue
		}
		x := float64(xs[r])
		if av.col.kind == KindInt {
			sum.addInt(int64(xs[r]))
		} else {
			sum.addFloat(x)
		}
		if cnt == 0 || x < float64(xs[lo]) {
			lo = r
		}
		if cnt == 0 || x > float64(xs[hi]) {
			hi = r
		}
		cnt++
	}
	return colFold{cnt: cnt, sum: sum, lo: lo, hi: hi}
}

// finishFold reads one aggregate out of col's fold.
func finishFold(name string, col *Vec, f colFold) (Value, error) {
	switch name {
	case "SUM", "AVG":
		return f.sum.result(name, f.cnt)
	case "MIN", "MAX":
		if f.cnt == 0 {
			return Null(), nil
		}
		if name == "MIN" {
			return col.At(f.lo), nil
		}
		return col.At(f.hi), nil
	}
	return Null(), fmt.Errorf("%w: aggregate %s", ErrUnsupported, name)
}
