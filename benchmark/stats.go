package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the percentile is one or two outliers, not a tail.
const minBeyond = 10

// quantile is the nearest-rank q-quantile of sorted (ascending); 0 for an
// empty sample. Nearest rank returns an observed value, never an
// interpolation, so a reported latency is one some document really had.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples. The
// small subtraction keeps 0.9 × 100 = 90.00000000000001 at rank 90.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supported reports whether n samples leave at least minBeyond of them
// beyond the q-quantile.
func supported(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minBeyond
}

// sample is a set of measurements of one quantity.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s sample) q(q float64) float64 { return quantile(s.sorted(), q) }

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// interval is a half-open span of the run clock, in nanoseconds.
type interval struct{ start, end int64 }

// covered is the length of the union of children, each clipped to parent.
// Clipping matters twice: a child attributed to a parent it outlives (a
// stream session's handler under its first document) must not count time
// outside the parent, and concurrent children (eight workers translating at
// once under one batch) must count their overlap once.
func covered(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	cur := interval{-1, -1}
	for _, c := range clipped {
		if c.start > cur.end {
			total += cur.end - cur.start
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	return total + cur.end - cur.start
}

// selfTime is the part of parent no child covers; never negative.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent, children)
}

// per divides a total by a count, 0 when nothing was counted — a layer that
// did no work on a workload reports 0, not NaN.
func per(total float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	return total / float64(n)
}

// spread is the interquartile range of values over their median, the
// steadiness measure the benchmark's bounds are judged against. The
// quartiles follow Python's statistics.quantiles(values, n=4) (exclusive
// method), so the number printed here is the number the driver computes.
func spread(values []float64) float64 {
	s := sample(values).sorted()
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := at(2)
	if med == 0 {
		return 0
	}
	return math.Abs((at(3) - at(1)) / med)
}
