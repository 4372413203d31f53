package sqldb

import (
	"hash/maphash"
	"math"
	"slices"
	"sync"
)

// access.go holds the access paths a table image derives from its columns:
// an equality index and a whole-column fold memo, which filtered scans,
// unfiltered aggregates and equi-joins read instead of scanning. A path is
// built from an immutable column the first time a query wants it and lives
// exactly as long as the image: AddTable publishes a new image with no paths,
// so nothing is ever invalidated and the plan cache knows nothing of them.
// An equi-join over anything else builds an eqIndex for the one query
// (hashPairs in vexec.go).
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
		cf := foldCol(vview{col: col}, &vgroup{n: col.Len()})
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

// lookup returns the first row+1 holding row i of v's key, 0 when there is
// none. v is text for a text index and typed numeric for a numeric one; a
// NULL key matches nothing, and neither does a NaN, which a numeric index
// never holds and joinKey matches only to another NaN.
func (ix *eqIndex) lookup(v *Vec, i int) int32 {
	if v.IsNullAt(i) {
		return 0
	}
	if v.kind == KindText {
		_, head := ix.findText(v.strs[i])
		return head
	}
	f := numAt(v, i)
	if f != f {
		return 0
	}
	_, head := ix.findNum(f)
	return head
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
	ctx.cat.stats.indexProbes.Add(1)
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
		ctx.cat.stats.indexBuilds.Add(1)
	}
	return ix
}

// wholePaths returns the access paths of key column v when b holds every
// row of v's scan's image in order (its list is nil), nil otherwise.
func (ctx *vecCtx) wholePaths(b *vbatch, v *vcol) *colPaths {
	if b.scans[v.si].rows != nil {
		return nil
	}
	return ctx.p.images[v.si].path(v.c)
}

// imageFold returns the memoised fold of column c of scan si's image, or nil
// when it is not typed numeric or the image has no access paths.
func (ctx *vecCtx) imageFold(si, c int) (f *colFold, fresh bool) {
	img := ctx.p.images[si]
	cp, col := img.path(c), img.cols[c]
	if cp == nil || !typedNum(col) {
		return nil, false
	}
	return cp.folded(col)
}

// walkIndex resolves an INNER equi-join from the left key's index, cp's, when
// the left key is a whole image column and the right side is small: it looks
// each right key up and sorts the matches into joinSets' order, left row
// first. ok is false when the left key has no index, or past |left|/8
// matches, where sorting costs more than indexing the right side.
func (ctx *vecCtx) walkIndex(cp *colPaths, leftKey, rightKey *Vec) (li, ri []int32, ok bool) {
	ix := ctx.index(cp, leftKey)
	if ix == nil {
		return nil, nil, false
	}
	var pairs []int64 // left row << 32 | right row
	for k := 0; k < rightKey.Len(); k++ {
		for head := ix.lookup(rightKey, k); head != 0; head = ix.after(head) {
			pairs = append(pairs, int64(head-1)<<32|int64(k))
		}
		if len(pairs) > leftKey.Len()/8 {
			return nil, nil, false
		}
	}
	slices.Sort(pairs)
	li, ri = make([]int32, len(pairs)), make([]int32, len(pairs))
	for k, pr := range pairs {
		li[k], ri[k] = int32(pr>>32), int32(pr)
	}
	ctx.cat.stats.indexJoins.Add(1)
	return li, ri, true
}
