package sqldb

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// vexec.go is the vectorized runtime for plans produced by compilePlan: data
// flows through the operator tree as column batches (vbatch) instead of one
// row at a time. Scans read the table's column image without copying it and
// gather only the rows its pushed-down filters select; hash joins produce
// index pair lists and gather columns instead of materializing joined rows;
// aggregates fold typed vectors directly.
// Every scalar kernel either reuses the row engine's functions (applyBinary,
// applyScalarFunc, castValue, ...) or replicates their exact numeric
// behaviour — including the float64 coercion Value.Compare applies to
// integers — so that when vectorized execution succeeds its result is
// bit-identical to the row engine's. When it fails, callers fall back to the
// row engine, which reproduces the canonical error.

// errPlanStale reports that the catalog changed after the plan was compiled.
// Executors treat it like any vectorized-execution error: fall back to the
// row engine, which binds against the live catalog.
var errPlanStale = errors.New("sqldb: plan compiled against stale catalog")

// errImageStale reports that a scanned table has no column image or changed
// length since AddTable built it.
var errImageStale = errors.New("sqldb: table changed since its column image was built")

// ExecVec executes a parsed statement on the vectorized engine without row
// fallback. It is the entry point the differential test harness drives; the
// production path (Query) instead runs cached plans with fallback.
func ExecVec(db *Database, stmt *SelectStmt) (*Result, error) {
	p := compilePlan(db, stmt)
	if p == nil {
		return nil, fmt.Errorf("%w: statement is not vectorizable", ErrUnsupported)
	}
	return p.run(db)
}

// vbatch is a horizontal slice of the working set in columnar form. cols is
// indexed by working-set slot (the plan's full bind layout); slots the plan
// does not need are nil.
type vbatch struct {
	n    int
	cols []*Vec
}

// vecCtx carries per-execution state: the row-engine executor used by
// fallback nodes and subqueries, and memos for evaluate-once subqueries and
// aggregate argument vectors. A fresh ctx per run keeps the shared cached
// plan immutable and race-free.
type vecCtx struct {
	ex     *executor
	p      *vecPlan
	images []*tableImage // the scans' table images, parallel to p.scans

	subs map[interface{}]*subMemo
	aggs map[*gagg]*Vec
}

type subMemo struct {
	res *Result
	err error
}

// subResult executes an uncorrelated subquery at most once per statement
// execution, keyed by the plan node. Nodes call it only when at least one
// row reaches them, mirroring the row engine's reachability: a subquery the
// row engine never evaluates is never evaluated here either. The subquery
// runs on its own vectorized plan (nil when it has none), so it scans column
// images and takes their access paths like any statement; when that declines,
// the row engine answers, result or error.
func (ctx *vecCtx) subResult(key interface{}, sub *SelectStmt, plan *vecPlan) (*Result, error) {
	if m, ok := ctx.subs[key]; ok {
		return m.res, m.err
	}
	var res *Result
	var err error
	if plan != nil {
		res, err = plan.run(ctx.ex.db)
	}
	if plan == nil || err != nil {
		res, err = ctx.ex.execSelect(sub, nil)
	}
	if ctx.subs == nil {
		ctx.subs = make(map[interface{}]*subMemo)
	}
	ctx.subs[key] = &subMemo{res: res, err: err}
	return res, err
}

// run executes the plan against db. Any returned error means "the vectorized
// engine cannot produce the row engine's result here" — the caller falls
// back; it never means the query itself is known to fail.
func (p *vecPlan) run(db *Database) (*Result, error) {
	names := make([]string, len(p.scans))
	for i, s := range p.scans {
		names[i] = s.table
	}
	tables, images, ver := db.snapshotTables(names)
	if ver != p.version {
		return nil, errPlanStale
	}
	for i, t := range tables {
		if t == nil || len(t.Columns) != p.scans[i].n {
			return nil, errPlanStale
		}
		// Rows appended or dropped after AddTable break the registration
		// contract; the image no longer describes the table, so decline and
		// let the row engine read Rows. No rebuild here: a scan must not
		// write catalog state other scans are reading.
		if images[i] == nil || images[i].n != len(t.Rows) {
			return nil, errImageStale
		}
	}

	ctx := &vecCtx{ex: &executor{db: db}, p: p, images: images}

	b, err := p.buildBatch(ctx)
	if err != nil {
		return nil, err
	}
	for _, f := range p.residual {
		b, err = filterBatch(ctx, b, f)
		if err != nil {
			return nil, err
		}
	}
	if p.aggregated {
		return p.runAgg(ctx, b)
	}
	return p.runRows(ctx, b)
}

// buildBatch scans and joins the FROM clause into one batch.
func (p *vecPlan) buildBatch(ctx *vecCtx) (*vbatch, error) {
	if len(p.scans) == 0 {
		return &vbatch{cols: make([]*Vec, 0)}, nil
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

// scanBatch hands operators the needed columns of scan si straight from the
// table image. With pushed-down filters it evaluates them over windows of
// windowRows rows, keeps the rows every filter selects, and gathers only
// those, so filtered rows never reach join or aggregation operators. Pushed
// filters cannot raise errors (safeExpr), which is what lets each one see the
// whole window instead of the previous filter's survivors, and a conjunct of
// the form column = literal be answered from the column's equality index
// (access.go) with the others run over the index's survivors only.
func (p *vecPlan) scanBatch(ctx *vecCtx, si int) (*vbatch, error) {
	s, img := &p.scans[si], ctx.images[si]
	out := &vbatch{n: img.n, cols: make([]*Vec, len(p.binds))}
	for c := 0; c < s.n; c++ {
		if slot := s.base + c; p.needed[slot] {
			out.cols[slot] = img.cols[c]
		}
	}
	if len(s.pushed) == 0 {
		return out, nil
	}
	if keep, rest, ok := p.probeScan(ctx, si); ok {
		if len(keep) < img.n {
			out = gatherBatch(out, keep)
		}
		for _, f := range rest {
			var err error
			if out, err = filterBatch(ctx, out, f); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	win := &vbatch{cols: make([]*Vec, len(p.binds))}
	var keep, sel, next []int32
	for lo := 0; lo < img.n; lo += windowRows {
		hi := min(lo+windowRows, img.n)
		win.n = hi - lo
		for slot, cv := range out.cols {
			if cv == nil {
				continue
			}
			if win.cols[slot] == nil {
				win.cols[slot] = new(Vec)
			}
			win.cols[slot].window(cv, lo, hi)
		}
		var err error
		for k, f := range s.pushed {
			if k == 0 {
				sel, err = selectRows(ctx, win, f, sel[:0])
			} else if len(sel) > 0 {
				next, err = selectRows(ctx, win, f, next[:0])
				sel = intersect(sel, next)
			}
			if err != nil {
				return nil, err
			}
		}
		for _, i := range sel {
			keep = append(keep, int32(lo)+i)
		}
	}
	if len(keep) == img.n {
		return out, nil
	}
	return gatherBatch(out, keep), nil
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
	return gatherBatch(b, idx), nil
}

// gatherBatch builds a new batch keeping the selected row indices; nil
// (unneeded) columns stay nil.
func gatherBatch(b *vbatch, idx []int32) *vbatch {
	out := &vbatch{n: len(idx), cols: make([]*Vec, len(b.cols))}
	for slot, cv := range b.cols {
		if cv != nil {
			out.cols[slot] = cv.Gather(idx)
		}
	}
	return out
}

// hashMatch resolves a hash join's matches without a slice per key: heads[i]
// is the first right row whose key equals left row i's (-1 for none, and for
// a NULL key, which never matches in SQL equality), and next chains each
// right row to the following one with an equal key, so walking a chain visits
// matches in the right-scan order joinSets emits them in. lf and rf are the
// keys' memoised whole-column folds where they have one (nil otherwise), which
// spare the key statistics a rescan.
func hashMatch(leftKey, rightKey *Vec, ln, rn int, lf, rf *colFold) (heads, next []int32) {
	heads, next = make([]int32, ln), make([]int32, rn)
	if lo, span, ok := denseKeys(leftKey, rightKey, rf); ok {
		// Surrogate keys (the <entity>_id columns of a normalized schema):
		// an array indexed by key-lo replaces the hash table.
		first := make([]int32, span) // right row + 1, so 0 is "absent"
		for i := rn - 1; i >= 0; i-- {
			next[i] = -1
			if !rightKey.IsNullAt(i) {
				k := rightKey.ints[i] - lo
				next[i] = first[k] - 1
				first[k] = int32(i) + 1
			}
		}
		for i, x := range leftKey.ints {
			heads[i] = -1
			if k := uint64(x - lo); k < uint64(span) && !leftKey.IsNullAt(i) {
				heads[i] = first[k] - 1
			}
		}
		return heads, next
	}
	if fastJoinKeys(leftKey, lf) && fastJoinKeys(rightKey, rf) {
		// Typed numeric keys: joinKey reduces every numeric to its float64
		// image (Float(f).key()), under which two values share a key string
		// iff they are equal as float64s — I-form below 1e15, bit-exact
		// F-form above, NaN-bearing vectors excluded by fastJoinKeys. Hashing
		// the float64 directly is therefore match-identical and skips all
		// key-string allocation.
		first := make(map[float64]int32, rn) // right row + 1, so 0 is "absent"
		for i := rn - 1; i >= 0; i-- {
			next[i] = -1
			if !rightKey.IsNullAt(i) {
				k := numAt(rightKey, i)
				next[i] = first[k] - 1
				first[k] = int32(i) + 1
			}
		}
		for i := range heads {
			heads[i] = -1
			if !leftKey.IsNullAt(i) {
				heads[i] = first[numAt(leftKey, i)] - 1
			}
		}
		return heads, next
	}
	first := make(map[string]int32, rn)
	var kb []byte
	for i := rn - 1; i >= 0; i-- {
		next[i] = -1
		if v := rightKey.At(i); !v.IsNull() {
			kb = appendJoinKey(kb[:0], v)
			next[i] = first[string(kb)] - 1
			first[string(kb)] = int32(i) + 1
		}
	}
	for i := range heads {
		heads[i] = -1
		if v := leftKey.At(i); !v.IsNull() {
			kb = appendJoinKey(kb[:0], v)
			heads[i] = first[string(kb)] - 1 // alloc-free lookup
		}
	}
	return heads, next
}

// hashPairs lists hash join ji's (left row, right row) pairs from a match
// table over both sides, in joinSets' order, with -1 as the right row of a
// LEFT join's unmatched left row.
func (p *vecPlan) hashPairs(ctx *vecCtx, left, right *vbatch, ji int) (li, ri []int32) {
	j := &p.joins[ji]
	pad := j.kind == "LEFT"
	leftKey, rightKey := left.cols[j.li], right.cols[j.ri]
	lf, _ := ctx.imageFold(j.li, leftKey)
	rf, _ := ctx.imageFold(j.ri, rightKey)
	heads, next := hashMatch(leftKey, rightKey, left.n, right.n, lf, rf)
	total := 0
	for _, h := range heads {
		if h < 0 && pad {
			total++
		}
		for m := h; m >= 0; m = next[m] {
			total++
		}
	}
	li, ri = make([]int32, 0, total), make([]int32, 0, total)
	for i, h := range heads {
		if h < 0 && pad {
			li, ri = append(li, int32(i)), append(ri, -1)
		}
		for m := h; m >= 0; m = next[m] {
			li, ri = append(li, int32(i)), append(ri, m)
		}
	}
	return li, ri
}

// joinBatch joins the accumulated left batch with the freshly scanned right
// batch under join ji, mirroring joinSets: on the recognized equi-join key an
// index join where one applies (access.go) and a hash join otherwise (built
// on the right, probed in left order, LEFT padding with NULLs), nested loop
// with per-row ON evaluation for every other ON clause. Only the columns a
// later operator reads are gathered into the joined batch.
func (p *vecPlan) joinBatch(ctx *vecCtx, left, right *vbatch, ji int) (*vbatch, error) {
	j := &p.joins[ji]
	pad := j.kind == "LEFT"
	var li, ri []int32
	if j.hash {
		var indexed bool
		if li, ri, indexed = p.indexJoin(ctx, left, right, ji); !indexed {
			li, ri = p.hashPairs(ctx, left, right, ji)
		}
	} else {
		// Nested loop: combined rows are rebuilt and the ON predicate runs
		// on the row engine, over exactly the binds visible at this join
		// depth (matching env.lookup's scoping in joinSets).
		rightEnd := p.scans[ji+1].base + p.scans[ji+1].n
		binds := p.binds[:rightEnd]
		row := make([]Value, rightEnd)
		for i := 0; i < left.n; i++ {
			matched := false
			for k := 0; k < right.n; k++ {
				if j.on != nil {
					for s := 0; s < j.leftWidth; s++ {
						row[s] = left.cols[s].At(i)
					}
					for s := j.leftWidth; s < rightEnd; s++ {
						row[s] = right.cols[s].At(k)
					}
					en := &env{binds: binds, row: row}
					v, err := ctx.ex.eval(j.on, en)
					if err != nil {
						return nil, err
					}
					if !v.AsBool() {
						continue
					}
				}
				matched = true
				li, ri = append(li, int32(i)), append(ri, int32(k))
			}
			if !matched && pad {
				li, ri = append(li, int32(i)), append(ri, -1)
			}
		}
	}
	out := &vbatch{n: len(li), cols: make([]*Vec, len(p.binds))}
	for slot, cv := range left.cols {
		if cv != nil && j.carry[slot] {
			out.cols[slot] = cv.Gather(li)
		}
	}
	for slot, cv := range right.cols {
		if cv != nil && j.carry[slot] {
			out.cols[slot] = cv.Gather(ri)
		}
	}
	return out, nil
}

// denseKeys reports whether both key vectors are unboxed integers and the
// right side's non-NULL keys span a range [lo, lo+span) small enough to index
// an array by (at most a few slots per right row). The range must lie
// strictly inside ±2^53: there int64 equality is float64 equality, which is
// what joinKey matches on; from 2^53 on distinct integers share a float64
// image and only the hash paths reproduce that. rf, when not nil, is the
// right key's whole-column fold: its extremes are float64 extremes, which
// inside ±2^53 are the integer extremes and outside it fail the range test
// just the same.
func denseKeys(leftKey, rightKey *Vec, rf *colFold) (lo int64, span int, ok bool) {
	if leftKey.kind != KindInt || rightKey.kind != KindInt {
		return 0, 0, false
	}
	lo, hi, seen := int64(0), int64(0), false
	if rf != nil {
		if seen = rf.cnt > 0; seen {
			lo, hi = rightKey.ints[rf.lo], rightKey.ints[rf.hi]
		}
	} else {
		for i, x := range rightKey.ints {
			if rightKey.IsNullAt(i) {
				continue
			}
			if !seen || x < lo {
				lo = x
			}
			if !seen || x > hi {
				hi = x
			}
			seen = true
		}
	}
	const exact = 1 << 53
	if !seen || lo <= -exact || hi >= exact || uint64(hi-lo) >= uint64(4*len(rightKey.ints)+1024) {
		return 0, 0, false
	}
	return lo, int(hi-lo) + 1, true
}

// fastJoinKeys reports whether the vector's join keys can hash by float64
// image: typed int vectors always qualify; typed float vectors qualify unless
// they carry a NaN, whose joinKey string (bit-exact F-form) matches other
// identical NaNs while float64 map keys never would. f, when not nil, is the
// vector's whole-column fold, which already knows.
func fastJoinKeys(v *Vec, f *colFold) bool {
	switch v.kind {
	case KindInt:
		return true
	case KindFloat:
		if f != nil {
			return !f.nan
		}
		for _, f := range v.floats {
			if math.IsNaN(f) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// appendJoinKey appends joinKey(v) to dst without forcing a string
// allocation, mirroring joinKey/Float.key exactly: numerics (except BOOL)
// reduce to their float64 image — I-form for integral magnitudes below 1e15,
// bit-exact F-form otherwise — and everything else uses Value.key.
func appendJoinKey(dst []byte, v Value) []byte {
	if f, ok := v.AsFloat(); ok && v.Kind() != KindBool {
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			dst = append(dst, 0, 'I')
			return strconv.AppendInt(dst, int64(f), 10)
		}
		dst = append(dst, 0, 'F')
		return strconv.AppendFloat(dst, f, 'b', -1, 64)
	}
	return append(dst, v.key()...)
}

// runRows projects a non-aggregated batch into result rows and applies the
// shared statement tail.
func (p *vecPlan) runRows(ctx *vecCtx, b *vbatch) (*Result, error) {
	var out []outRow
	if len(p.scans) > 0 {
		cells := make([]*Vec, len(p.itemsV))
		for k, iv := range p.itemsV {
			cv, err := iv.eval(ctx, b)
			if err != nil {
				return nil, err
			}
			cells[k] = cv
		}
		keys := make([]*Vec, len(p.orderV))
		for k, op := range p.orderV {
			if op.cellIdx < 0 {
				kv, err := op.ev.eval(ctx, b)
				if err != nil {
					return nil, err
				}
				keys[k] = kv
			}
		}
		for i := 0; i < b.n; i++ {
			r := outRow{cells: make([]Value, len(cells))}
			for k := range cells {
				r.cells[k] = cells[k].At(i)
			}
			if len(p.orderV) > 0 {
				r.keys = make([]Value, len(p.orderV))
				for k, op := range p.orderV {
					if op.cellIdx >= 0 {
						r.keys[k] = r.cells[op.cellIdx]
					} else {
						r.keys[k] = keys[k].At(i)
					}
				}
			}
			out = append(out, r)
		}
	} else {
		// Table-less SELECT: one row evaluated over no bindings, with no
		// ORDER BY keys — exactly the row engine's FROM-less branch.
		one := &vbatch{n: 1}
		row := outRow{cells: make([]Value, len(p.itemsV))}
		for k, iv := range p.itemsV {
			cv, err := iv.eval(ctx, one)
			if err != nil {
				return nil, err
			}
			row.cells[k] = cv.At(0)
		}
		out = []outRow{row}
	}
	return finishSelect(p.stmt, p.cols, out), nil
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

// runAgg partitions the batch, applies HAVING, and projects each surviving
// group.
func (p *vecPlan) runAgg(ctx *vecCtx, b *vbatch) (*Result, error) {
	groups, err := p.partition(ctx, b)
	if err != nil {
		return nil, err
	}
	out := make([]outRow, 0, len(groups))
	for gi := range groups {
		g := &groups[gi]
		if p.havingG != nil {
			hv, err := p.havingG.eval(ctx, g)
			if err != nil {
				return nil, err
			}
			if !hv.AsBool() {
				continue
			}
		}
		row := outRow{cells: make([]Value, 0, len(p.itemsG)), keys: make([]Value, 0, len(p.orderG))}
		for _, ig := range p.itemsG {
			v, err := ig.eval(ctx, g)
			if err != nil {
				return nil, err
			}
			row.cells = append(row.cells, v)
		}
		for _, op := range p.orderG {
			if op.cellIdx >= 0 {
				row.keys = append(row.keys, row.cells[op.cellIdx])
			} else {
				v, err := op.gv.eval(ctx, g)
				if err != nil {
					return nil, err
				}
				row.keys = append(row.keys, v)
			}
		}
		out = append(out, row)
	}
	return finishSelect(p.stmt, p.cols, out), nil
}

// partition groups batch rows by the GROUP BY key vectors in first-appearance
// order. With no GROUP BY the whole batch is one group, even when empty, so
// aggregates over empty inputs still produce a row.
func (p *vecPlan) partition(ctx *vecCtx, b *vbatch) ([]vgroup, error) {
	if len(p.groupByV) == 0 {
		return []vgroup{{b: b, n: b.n}}, nil
	}
	keyVecs := make([]*Vec, len(p.groupByV))
	for k, gv := range p.groupByV {
		kv, err := gv.eval(ctx, b)
		if err != nil {
			return nil, err
		}
		keyVecs[k] = kv
	}
	// Two passes, so the groups' row lists are slices of one exactly sized
	// array instead of each growing by doubling.
	index := make(map[string]int32)
	gids := make([]int32, b.n)
	var sizes []int
	var kb []byte
	for i := range gids {
		kb = kb[:0]
		for _, kv := range keyVecs {
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

// vexpr evaluates to one value per batch row.
type vexpr interface {
	eval(ctx *vecCtx, b *vbatch) (*Vec, error)
}

// typedNum reports whether the vector has unboxed numeric storage.
func typedNum(v *Vec) bool { return v.kind == KindInt || v.kind == KindFloat }

// numAt reads a typed vector's value as float64, the representation
// Value.Compare and applyArith reduce numerics to.
func numAt(v *Vec, i int) float64 {
	if v.bcast > 0 {
		i = 0
	}
	if v.kind == KindInt {
		return float64(v.ints[i])
	}
	return v.floats[i]
}

// mapVec evaluates f element-wise into a generic vector.
func mapVec(n int, f func(i int) (Value, error)) (*Vec, error) {
	out := NewVec(KindNull, n)
	for i := 0; i < n; i++ {
		v, err := f(i)
		if err != nil {
			return nil, err
		}
		out.any = append(out.any, v)
	}
	return out, nil
}

// boolVec evaluates f element-wise into an unboxed, NULL-free bool vector.
func boolVec(n int, f func(i int) bool) *Vec {
	out := &Vec{kind: KindBool, bools: make([]bool, n)}
	for i := range out.bools {
		out.bools[i] = f(i)
	}
	return out
}

type vlit struct{ val Value }

func (v *vlit) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	return broadcast(v.val, b.n), nil
}

type vcol struct{ slot int }

func (v *vcol) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	return b.cols[v.slot], nil
}

type vunary struct {
	op string
	x  vexpr
}

func (v *vunary) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	xv, err := v.x.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	return mapVec(b.n, func(i int) (Value, error) { return applyUnary(v.op, xv.At(i)) })
}

// vand and vor evaluate both sides over the whole batch; the row engine
// short-circuits per row, but since its result is Bool(l) op Bool(r) with
// AsBool(NULL)=false, eager evaluation yields identical values — it can only
// add errors, which trigger row fallback.
type vand struct{ l, r vexpr }

func (v *vand) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	lv, err := v.l.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	rv, err := v.r.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	return boolVec(b.n, func(i int) bool { return lv.At(i).AsBool() && rv.At(i).AsBool() }), nil
}

type vor struct{ l, r vexpr }

func (v *vor) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	lv, err := v.l.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	rv, err := v.r.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	return boolVec(b.n, func(i int) bool { return lv.At(i).AsBool() || rv.At(i).AsBool() }), nil
}

// vbin is a binary operator other than AND, OR and the comparisons.
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
			return arithKernel(v.op, lv, rv, b.n), nil
		}
	}
	return mapVec(b.n, func(i int) (Value, error) { return applyBinary(v.op, lv.At(i), rv.At(i)) })
}

// vcmp is a comparison. Its native result is the selection of rows where it
// holds, which is what a filter consumes; eval scatters the selection into a
// bool vector for every other context. A comparison never yields NULL or an
// error: applyBinary maps a NULL operand to false and incomparable kinds to
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

func (v *vcmp) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	idx, err := v.sel(ctx, b, make([]int32, 0, b.n))
	if err != nil {
		return nil, err
	}
	out := &Vec{kind: KindBool, bools: make([]bool, b.n)}
	for _, i := range idx {
		out.bools[i] = true
	}
	return out, nil
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
// against a broadcast scalar of matching storage, in either operand order (the
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
	if lv.bcast > 0 {
		col, lit, truth = rv, lv, [3]bool{truth[2], truth[1], truth[0]}
	}
	scalar := lit.bcast > 0 && col.bcast == 0 // a typed broadcast is never NULL
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

// arithKernel mirrors applyArith on typed numeric vectors, including its
// int64(float64(x)) round-trips for the both-integer branches and the
// divide-by-zero-yields-NULL rule.
func arithKernel(op string, lv, rv *Vec, n int) *Vec {
	bothInt := lv.kind == KindInt && rv.kind == KindInt
	hint := KindFloat
	if bothInt {
		hint = KindInt
	}
	out := NewVec(hint, n)
	for i := 0; i < n; i++ {
		if lv.IsNullAt(i) || rv.IsNullAt(i) {
			out.Append(Null())
			continue
		}
		lf, rf := numAt(lv, i), numAt(rv, i)
		switch op {
		case "+":
			if bothInt {
				out.Append(Int(int64(lf) + int64(rf)))
			} else {
				out.Append(Float(lf + rf))
			}
		case "-":
			if bothInt {
				out.Append(Int(int64(lf) - int64(rf)))
			} else {
				out.Append(Float(lf - rf))
			}
		case "*":
			if bothInt {
				out.Append(Int(int64(lf) * int64(rf)))
			} else {
				out.Append(Float(lf * rf))
			}
		case "/":
			switch {
			case rf == 0:
				out.Append(Null())
			case bothInt && int64(lf)%int64(rf) == 0:
				out.Append(Int(int64(lf) / int64(rf)))
			default:
				out.Append(Float(lf / rf))
			}
		case "%":
			switch {
			case rf == 0:
				out.Append(Null())
			case bothInt:
				out.Append(Int(int64(lf) % int64(rf)))
			default:
				out.Append(Float(math.Mod(lf, rf)))
			}
		}
	}
	return out
}

type vbetween struct {
	x, lo, hi vexpr
	not       bool
}

func (v *vbetween) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	xv, err := v.x.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	lov, err := v.lo.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	hiv, err := v.hi.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	return boolVec(b.n, func(i int) bool {
		x := xv.At(i)
		c1, ok1 := x.Compare(lov.At(i))
		c2, ok2 := x.Compare(hiv.At(i))
		return (ok1 && ok2 && c1 >= 0 && c2 <= 0) != v.not
	}), nil
}

type vin struct {
	x    vexpr
	list []vexpr
	not  bool
}

func (v *vin) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	xv, err := v.x.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	lvs := make([]*Vec, len(v.list))
	for k, le := range v.list {
		lv, err := le.eval(ctx, b)
		if err != nil {
			return nil, err
		}
		lvs[k] = lv
	}
	return boolVec(b.n, func(i int) bool {
		x := xv.At(i)
		found := false
		for _, lv := range lvs {
			if x.Equal(lv.At(i)) {
				found = true
				break
			}
		}
		return found != v.not
	}), nil
}

type visnull struct {
	x   vexpr
	not bool
}

func (v *visnull) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	xv, err := v.x.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	return boolVec(b.n, func(i int) bool { return xv.IsNullAt(i) != v.not }), nil
}

type vfunc struct {
	name string
	args []vexpr
}

func (v *vfunc) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	avs := make([]*Vec, len(v.args))
	for k, ae := range v.args {
		av, err := ae.eval(ctx, b)
		if err != nil {
			return nil, err
		}
		avs[k] = av
	}
	argv := make([]Value, len(v.args))
	return mapVec(b.n, func(i int) (Value, error) {
		for k := range avs {
			argv[k] = avs[k].At(i)
		}
		return applyScalarFunc(v.name, argv)
	})
}

type vcast struct {
	x    vexpr
	kind Kind
}

func (v *vcast) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	xv, err := v.x.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	return mapVec(b.n, func(i int) (Value, error) { return castValue(xv.At(i), v.kind) })
}

// vcase evaluates every arm over the batch, then selects per row. The row
// engine stops at the first truthy WHEN; eager arm evaluation selects the
// same value and can only add errors (→ row fallback).
type vcase struct {
	conds []vexpr
	thens []vexpr
	els   vexpr
}

func (v *vcase) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	cvs := make([]*Vec, len(v.conds))
	tvs := make([]*Vec, len(v.thens))
	for k := range v.conds {
		cv, err := v.conds[k].eval(ctx, b)
		if err != nil {
			return nil, err
		}
		cvs[k] = cv
		tv, err := v.thens[k].eval(ctx, b)
		if err != nil {
			return nil, err
		}
		tvs[k] = tv
	}
	var ev *Vec
	if v.els != nil {
		var err error
		ev, err = v.els.eval(ctx, b)
		if err != nil {
			return nil, err
		}
	}
	return mapVec(b.n, func(i int) (Value, error) {
		for k := range cvs {
			if cvs[k].At(i).AsBool() {
				return tvs[k].At(i), nil
			}
		}
		if ev != nil {
			return ev.At(i), nil
		}
		return Null(), nil
	})
}

// vsub is an uncorrelated scalar subquery: executed once, its single cell is
// broadcast. The scalar-shape checks mirror the row engine's SubqueryExpr
// case exactly.
type vsub struct {
	sub  *SelectStmt
	plan *vecPlan
}

func (v *vsub) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	if b.n == 0 {
		return NewVec(KindNull, 0), nil
	}
	res, err := ctx.subResult(v, v.sub, v.plan)
	if err != nil {
		return nil, err
	}
	if len(res.Cols) != 1 {
		return nil, fmt.Errorf("%w: scalar subquery with %d columns", ErrNotScalar, len(res.Cols))
	}
	val := Null()
	if len(res.Rows) > 1 {
		return nil, fmt.Errorf("%w: scalar subquery returned %d rows", ErrNotScalar, len(res.Rows))
	}
	if len(res.Rows) == 1 {
		val = res.Rows[0][0]
	}
	return broadcast(val, b.n), nil
}

type vexists struct {
	sub  *SelectStmt
	plan *vecPlan
	not  bool
}

func (v *vexists) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	if b.n == 0 {
		return NewVec(KindNull, 0), nil
	}
	res, err := ctx.subResult(v, v.sub, v.plan)
	if err != nil {
		return nil, err
	}
	return broadcast(Bool((len(res.Rows) > 0) != v.not), b.n), nil
}

type vinsub struct {
	x    vexpr
	sub  *SelectStmt
	plan *vecPlan
	not  bool
}

func (v *vinsub) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	xv, err := v.x.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	if b.n == 0 {
		return NewVec(KindNull, 0), nil
	}
	res, err := ctx.subResult(v, v.sub, v.plan)
	if err != nil {
		return nil, err
	}
	if len(res.Cols) != 1 {
		return nil, fmt.Errorf("%w: IN subquery with %d columns", ErrNotScalar, len(res.Cols))
	}
	return boolVec(b.n, func(i int) bool {
		x := xv.At(i)
		found := false
		for _, r := range res.Rows {
			if x.Equal(r[0]) {
				found = true
				break
			}
		}
		return found != v.not
	}), nil
}

// vrowfb is the universal escape hatch: it rebuilds each batch row and
// evaluates the original expression on the row engine, preserving exact
// semantics (correlated subqueries, ambiguous shapes, canonical errors).
type vrowfb struct{ e Expr }

func (v *vrowfb) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	row := make([]Value, len(ctx.p.binds))
	return mapVec(b.n, func(i int) (Value, error) {
		for s := range row {
			row[s] = b.cols[s].At(i)
		}
		en := &env{binds: ctx.p.binds, row: row}
		return ctx.ex.eval(v.e, en)
	})
}

// ---------------------------------------------------------------------------
// Aggregate-context expressions.

// gexpr evaluates to one value per group, mirroring groupEnv.eval.
type gexpr interface {
	eval(ctx *vecCtx, g *vgroup) (Value, error)
}

type glit struct{ val Value }

func (v *glit) eval(ctx *vecCtx, g *vgroup) (Value, error) { return v.val, nil }

// gcolfirst reads a column from the group's first row (all-NULL for an empty
// group), the row engine's semantics for bare columns under aggregation.
type gcolfirst struct{ slot int }

func (v *gcolfirst) eval(ctx *vecCtx, g *vgroup) (Value, error) {
	if g.n == 0 {
		return Null(), nil
	}
	return g.b.cols[v.slot].At(g.row(0)), nil
}

type gunary struct {
	op string
	x  gexpr
}

func (v *gunary) eval(ctx *vecCtx, g *vgroup) (Value, error) {
	inner, err := v.x.eval(ctx, g)
	if err != nil {
		return Null(), err
	}
	return applyUnary(v.op, inner)
}

type gbin struct {
	op   string
	l, r gexpr
}

func (v *gbin) eval(ctx *vecCtx, g *vgroup) (Value, error) {
	if v.op == "AND" || v.op == "OR" {
		l, err := v.l.eval(ctx, g)
		if err != nil {
			return Null(), err
		}
		if v.op == "AND" && !l.AsBool() {
			return Bool(false), nil
		}
		if v.op == "OR" && l.AsBool() {
			return Bool(true), nil
		}
		r, err := v.r.eval(ctx, g)
		if err != nil {
			return Null(), err
		}
		return Bool(r.AsBool()), nil
	}
	l, err := v.l.eval(ctx, g)
	if err != nil {
		return Null(), err
	}
	r, err := v.r.eval(ctx, g)
	if err != nil {
		return Null(), err
	}
	return applyBinary(v.op, l, r)
}

type gscalar struct {
	name string
	args []gexpr
}

func (v *gscalar) eval(ctx *vecCtx, g *vgroup) (Value, error) {
	args := make([]Value, len(v.args))
	for i, a := range v.args {
		av, err := a.eval(ctx, g)
		if err != nil {
			return Null(), err
		}
		args[i] = av
	}
	return applyScalarFunc(v.name, args)
}

type gcast struct {
	x    gexpr
	kind Kind
}

func (v *gcast) eval(ctx *vecCtx, g *vgroup) (Value, error) {
	inner, err := v.x.eval(ctx, g)
	if err != nil {
		return Null(), err
	}
	return castValue(inner, v.kind)
}

type gcase struct {
	conds []gexpr
	thens []gexpr
	els   gexpr
}

func (v *gcase) eval(ctx *vecCtx, g *vgroup) (Value, error) {
	for k := range v.conds {
		c, err := v.conds[k].eval(ctx, g)
		if err != nil {
			return Null(), err
		}
		if c.AsBool() {
			return v.thens[k].eval(ctx, g)
		}
	}
	if v.els != nil {
		return v.els.eval(ctx, g)
	}
	return Null(), nil
}

// gfirstrow mirrors groupEnv.eval's default branch: evaluate the expression
// on the row engine against the group's first row (all-NULL when empty).
type gfirstrow struct{ e Expr }

func (v *gfirstrow) eval(ctx *vecCtx, g *vgroup) (Value, error) {
	row := make([]Value, len(ctx.p.binds))
	if g.n == 0 {
		for s := range row {
			row[s] = Null()
		}
	} else {
		r0 := g.row(0)
		for s := range row {
			row[s] = g.b.cols[s].At(r0)
		}
	}
	en := &env{binds: ctx.p.binds, row: row}
	return ctx.ex.eval(v.e, en)
}

// gagg folds an aggregate over the group. The argument expression is
// evaluated once over the whole batch (memoized across groups and across the
// HAVING/items/ORDER BY positions that reference aggregates) and each group
// indexes into it; typed vectors take unboxed fold paths that reproduce
// evalAggregate's float64 arithmetic exactly.
type gagg struct {
	f   *FuncExpr
	arg vexpr
}

func (a *gagg) argVec(ctx *vecCtx, b *vbatch) (*Vec, error) {
	if av, ok := ctx.aggs[a]; ok {
		return av, nil
	}
	av, err := a.arg.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	if ctx.aggs == nil {
		ctx.aggs = make(map[*gagg]*Vec)
	}
	ctx.aggs[a] = av
	return av, nil
}

func (a *gagg) eval(ctx *vecCtx, g *vgroup) (Value, error) {
	if a.f.Star {
		return Int(int64(g.n)), nil
	}
	if len(a.f.Args) != 1 {
		return Null(), fmt.Errorf("%w: %s takes one argument", ErrType, a.f.Name)
	}
	av, err := a.argVec(ctx, g.b)
	if err != nil {
		return Null(), err
	}
	name := a.f.Name
	if !a.f.Distinct && av.kind != KindNull && av.bcast == 0 {
		if name == "COUNT" {
			// The NULL mask of an unboxed vector already says how many values
			// the group holds.
			cnt := g.n
			if av.nulls != nil {
				for k := 0; k < g.n; k++ {
					if av.nulls[g.row(k)] {
						cnt--
					}
				}
			}
			return Int(int64(cnt)), nil
		}
		if typedNum(av) {
			return finishFold(name, av, a.fold(ctx, av, g))
		}
	}
	// Generic fold: mirror evalAggregate's rules over the group's non-NULL
	// values in row order (DISTINCT by grouping key), folding in place.
	var seen map[string]bool
	if a.f.Distinct {
		seen = make(map[string]bool)
	}
	cnt, sum, allInt, best := 0, 0.0, true, Null()
	for k := 0; k < g.n; k++ {
		v := av.At(g.row(k))
		if v.IsNull() {
			continue
		}
		if a.f.Distinct {
			key := v.key()
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		cnt++
		switch name {
		case "SUM", "AVG":
			fv, ok := v.AsFloat()
			if !ok {
				return Null(), fmt.Errorf("%w: %s over non-numeric value %q", ErrType, name, v.String())
			}
			allInt = allInt && v.Kind() == KindInt
			sum += fv
		case "MIN", "MAX":
			if cnt == 1 {
				best = v
				continue
			}
			c, ok := v.Compare(best)
			if !ok {
				return Null(), fmt.Errorf("%w: %s over incomparable values", ErrType, name)
			}
			if (name == "MIN" && c < 0) || (name == "MAX" && c > 0) {
				best = v
			}
		}
	}
	switch name {
	case "COUNT":
		return Int(int64(cnt)), nil
	case "SUM", "AVG":
		return sumResult(name, sum, cnt, allInt), nil
	case "MIN", "MAX":
		return best, nil
	}
	return Null(), fmt.Errorf("%w: aggregate %s", ErrUnsupported, name)
}

// sumResult finishes SUM and AVG the way evalAggregate does: NULL over no
// values, AVG always a float, SUM integral when every addend was and the
// float64 total still is.
func sumResult(name string, sum float64, cnt int, allInt bool) Value {
	switch {
	case cnt == 0:
		return Null()
	case name == "AVG":
		return Float(sum / float64(cnt))
	case allInt && sum == math.Trunc(sum):
		return Int(int64(sum))
	}
	return Float(sum)
}

// fold returns the group's typed fold of av: from the column's memo when the
// group is a whole, unselected image column (stored by the first such query
// and the same tuple for every later one), by one pass otherwise.
func (a *gagg) fold(ctx *vecCtx, av *Vec, g *vgroup) colFold {
	if c, ok := a.arg.(*vcol); ok && g.rows == nil {
		if f, fresh := ctx.imageFold(c.slot, av); f != nil {
			if !fresh {
				ctx.ex.db.plans.foldHits.Add(1)
			}
			return *f
		}
	}
	if av.kind == KindInt {
		return foldTyped(av, av.ints, g)
	}
	return foldTyped(av, av.floats, g)
}

// colFold is what one pass over a group of an unboxed numeric vector yields
// for every aggregate at once: the non-NULL count, their sum, the rows of the
// first minimum and maximum (-1 over no values), and whether a NaN was seen.
type colFold struct {
	cnt    int
	sum    float64
	lo, hi int
	nan    bool
}

// foldTyped folds group g of av (xs is av's storage) without boxing. All
// arithmetic goes through float64 — including MIN/MAX comparisons and SUM
// accumulation over integers — because that is what evalAggregate does via
// AsFloat/Compare; like it, MIN and MAX keep the first of equal (or
// NaN-incomparable) values.
func foldTyped[T int64 | float64](av *Vec, xs []T, g *vgroup) colFold {
	cnt, sum, lo, hi, nan := 0, 0.0, -1, -1, false
	for k := 0; k < g.n; k++ {
		r := g.row(k)
		if av.nulls != nil && av.nulls[r] {
			continue
		}
		x := float64(xs[r])
		sum += x
		nan = nan || x != x
		if cnt == 0 || x < float64(xs[lo]) {
			lo = r
		}
		if cnt == 0 || x > float64(xs[hi]) {
			hi = r
		}
		cnt++
	}
	return colFold{cnt: cnt, sum: sum, lo: lo, hi: hi, nan: nan}
}

// finishFold reads one aggregate out of av's fold.
func finishFold(name string, av *Vec, f colFold) (Value, error) {
	switch name {
	case "SUM", "AVG":
		return sumResult(name, f.sum, f.cnt, av.kind == KindInt), nil
	case "MIN", "MAX":
		if f.cnt == 0 {
			return Null(), nil
		}
		if name == "MIN" {
			return av.At(f.lo), nil
		}
		return av.At(f.hi), nil
	}
	return Null(), fmt.Errorf("%w: aggregate %s", ErrUnsupported, name)
}
