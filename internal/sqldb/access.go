package sqldb

import (
	"hash/maphash"
	"math"
	"slices"
	"sync"
)

// access.go holds the access paths a table image derives from its columns:
// an equality index and a whole-column fold memo, which filtered scans,
// unfiltered aggregates and lookup joins read instead of scanning. A path is
// built from an immutable column the first time a query wants it and lives
// exactly as long as the image: AddTable publishes a new image with no paths,
// so nothing is ever invalidated and the plan cache knows nothing of them.
//
// Whether a query scans or takes a path is decided by the image's row count
// alone: an image of at most windowRows rows is one scan window, which the
// kernels in vexec.go cross faster than a probe pays for itself, so it has no
// paths at all.

// colPaths is one image column's lazily derived paths. Each is built under
// its Once, whose completion is the single atomic store that publishes it to
// other queries; a nil result records that the column has no such path.
type colPaths struct {
	eqOnce   sync.Once
	eq       *eqIndex
	foldOnce sync.Once
	fold     *colFold
}

// path returns column c's access paths, or nil when the image is small
// enough that every query should scan it.
func (img *tableImage) path(c int) *colPaths {
	if img.paths == nil {
		return nil
	}
	return &img.paths[c]
}

// index returns the column's equality index, building it on first use; fresh
// reports that this call built one. nil means the column cannot be probed:
// its storage is not int, float or text, or it holds a NaN, which
// Value.Compare treats as equal to every number.
func (cp *colPaths) index(col *Vec) (ix *eqIndex, fresh bool) {
	cp.eqOnce.Do(func() {
		cp.eq = buildEqIndex(col)
		fresh = cp.eq != nil
	})
	return cp.eq, fresh
}

// folded returns the whole-column fold of a typed numeric column, computing it
// on first use; fresh reports that this call did.
func (cp *colPaths) folded(col *Vec) (f *colFold, fresh bool) {
	cp.foldOnce.Do(func() {
		all := &vgroup{n: col.Len()}
		var cf colFold
		if col.kind == KindInt {
			cf = foldTyped(col, col.ints, all)
		} else {
			cf = foldTyped(col, col.floats, all)
		}
		cp.fold, fresh = &cf, true
	})
	return cp.fold, fresh
}

// eqIndex maps a column's non-NULL values to the rows holding them, without
// copying a key: slots is an open-addressed table of row+1 (0 is empty)
// naming the first row of each distinct key, and next chains row r to the
// following row with r's key, again as row+1. Chains ascend, so matches come
// out in scan order. next stays nil while every key is unique.
//
// Keys are equal as the comparison kernels and joinKey hold them equal: text
// by ==, numbers by their float64 image, so -0.0 meets 0.0, an int column
// meets a float literal, and integers above 2^53 that share an image share a
// chain.
type eqIndex struct {
	col   *Vec
	slots []int32
	next  []int32
}

var eqSeed = maphash.MakeSeed()

// reduce maps a hash's high half onto a table of n slots.
func reduce(h uint64, n int) int { return int((h >> 32) * uint64(n) >> 32) }

// findText returns the slot where s lives or would be inserted, and the first
// row+1 holding it (0 when absent).
func (ix *eqIndex) findText(s string) (pos int, head int32) {
	pos = reduce(maphash.String(eqSeed, s), len(ix.slots))
	for {
		head = ix.slots[pos]
		if head == 0 || ix.col.strs[head-1] == s {
			return pos, head
		}
		if pos++; pos == len(ix.slots) {
			pos = 0
		}
	}
}

// findNum is findText for a numeric key, which must not be NaN.
func (ix *eqIndex) findNum(f float64) (pos int, head int32) {
	if f == 0 {
		f = 0 // -0.0 hashes as 0.0
	}
	// Small integers differ only in their image's high bits; fold those down
	// before the multiplication spreads the low bits back up.
	h := math.Float64bits(f)
	h = (h ^ h>>32) * 0x9e3779b97f4a7c15
	pos = reduce(h, len(ix.slots))
	for {
		head = ix.slots[pos]
		if head == 0 || numAt(ix.col, int(head-1)) == f {
			return pos, head
		}
		if pos++; pos == len(ix.slots) {
			pos = 0
		}
	}
}

// after returns the row+1 following head in its chain, 0 at the end.
func (ix *eqIndex) after(head int32) int32 {
	if ix.next == nil {
		return 0
	}
	return ix.next[head-1]
}

// rows lists the chain starting at head.
func (ix *eqIndex) rows(head int32) []int32 {
	var out []int32
	for ; head != 0; head = ix.after(head) {
		out = append(out, head-1)
	}
	return out
}

// buildEqIndex indexes col at a load of two thirds. Rows are inserted last to
// first, each becoming the head of its key's chain, which leaves every chain
// ascending.
func buildEqIndex(col *Vec) *eqIndex {
	if col.kind != KindText && !typedNum(col) {
		return nil
	}
	n := col.Len()
	ix := &eqIndex{col: col, slots: make([]int32, n+n/2+1)}
	for i := n - 1; i >= 0; i-- {
		if col.nulls != nil && col.nulls[i] {
			continue
		}
		var pos int
		var head int32
		if col.kind == KindText {
			pos, head = ix.findText(col.strs[i])
		} else {
			f := numAt(col, i)
			if f != f {
				return nil
			}
			pos, head = ix.findNum(f)
		}
		if head != 0 {
			if ix.next == nil {
				ix.next = make([]int32, n)
			}
			ix.next[i] = head
		}
		ix.slots[pos] = int32(i) + 1
	}
	return ix
}

// probe answers the pushed conjunct "column = lit" from the column's index:
// the matching rows, ascending. ok is false when the conjunct has to be
// evaluated by the scan instead: no index, or a literal the column's storage
// does not compare with by plain equality (text against a number coerces).
func (ctx *vecCtx) probe(img *tableImage, c int, lit Value) (rows []int32, ok bool) {
	cp, col := img.path(c), img.cols[c]
	if cp == nil {
		return nil, false
	}
	var f float64
	switch {
	case lit.Kind() == KindText && col.kind == KindText:
	case lit.IsNumeric() && typedNum(col):
		if f, _ = lit.AsFloat(); f != f {
			return nil, false
		}
	default:
		return nil, false
	}
	ix := ctx.index(cp, col)
	if ix == nil {
		return nil, false
	}
	ctx.ex.db.plans.indexProbes.Add(1)
	var head int32
	if col.kind == KindText {
		_, head = ix.findText(lit.Text())
	} else {
		_, head = ix.findNum(f)
	}
	return ix.rows(head), true
}

// index is colPaths.index with the build counted.
func (ctx *vecCtx) index(cp *colPaths, col *Vec) *eqIndex {
	ix, fresh := cp.index(col)
	if fresh {
		ctx.ex.db.plans.indexBuilds.Add(1)
	}
	return ix
}

// imagePaths returns the access paths of the image column that v is, or nil
// when v is anything else. Pointer identity is the whole test: every filter,
// gather and join builds new vectors, so a batch column that still is the
// image's vector is that column, whole and unselected.
func (ctx *vecCtx) imagePaths(slot int, v *Vec) *colPaths {
	for si := range ctx.p.scans {
		s := &ctx.p.scans[si]
		if c := slot - s.base; c >= 0 && c < s.n {
			if img := ctx.images[si]; img.cols[c] == v {
				return img.path(c)
			}
			return nil
		}
	}
	return nil
}

// imageFold returns the memoised fold of the typed numeric image column that
// v is, or nil when v is not one.
func (ctx *vecCtx) imageFold(slot int, v *Vec) (f *colFold, fresh bool) {
	if !typedNum(v) {
		return nil, false
	}
	cp := ctx.imagePaths(slot, v)
	if cp == nil {
		return nil, false
	}
	return cp.folded(v)
}

// indexJoin resolves hash join ji without building a match table, when one
// side is a whole image column with an equality index and the other has fewer
// rows than a scan window: it walks the small side's keys through the big
// side's index. Pairs come out as joinSets emits them, in left-row order with
// each left row's matches in right-scan order. ok is false when the join has
// to hash: no index on either side, keys that do not hash by float64 image
// (see fastJoinKeys), or more matches than an index walk is worth.
func (p *vecPlan) indexJoin(ctx *vecCtx, left, right *vbatch, ji int) (li, ri []int32, ok bool) {
	j := &p.joins[ji]
	leftKey, rightKey := left.cols[j.li], right.cols[j.ri]
	if !typedNum(leftKey) || !typedNum(rightKey) {
		return nil, nil, false
	}
	pad := j.kind == "LEFT"
	index := func(slot int, big, small *Vec) *eqIndex {
		cp := ctx.imagePaths(slot, big)
		if cp == nil || !fastJoinKeys(small, nil) {
			return nil
		}
		return ctx.index(cp, big)
	}
	switch {
	case left.n < windowRows:
		ix := index(j.ri, rightKey, leftKey)
		if ix == nil {
			return nil, nil, false
		}
		for i := 0; i < left.n; i++ {
			var head int32
			if !leftKey.IsNullAt(i) {
				_, head = ix.findNum(numAt(leftKey, i))
			}
			if head == 0 && pad {
				li, ri = append(li, int32(i)), append(ri, -1)
			}
			for ; head != 0; head = ix.after(head) {
				li, ri = append(li, int32(i)), append(ri, head-1)
			}
		}
	case right.n < windowRows && !pad:
		ix := index(j.li, leftKey, rightKey)
		if ix == nil {
			return nil, nil, false
		}
		// Matches arrive grouped by right row and are wanted by left row. Past
		// an eighth of the left side, sorting them costs more than hashing it.
		var pairs []int64 // left row << 32 | right row
		for k := 0; k < right.n; k++ {
			if rightKey.IsNullAt(k) {
				continue
			}
			_, head := ix.findNum(numAt(rightKey, k))
			for ; head != 0; head = ix.after(head) {
				pairs = append(pairs, int64(head-1)<<32|int64(k))
			}
			if len(pairs) > left.n/8 {
				return nil, nil, false
			}
		}
		slices.Sort(pairs)
		li, ri = make([]int32, len(pairs)), make([]int32, len(pairs))
		for k, pr := range pairs {
			li[k], ri[k] = int32(pr>>32), int32(pr)
		}
	default:
		return nil, nil, false
	}
	ctx.ex.db.plans.indexJoins.Add(1)
	return li, ri, true
}
