package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{7}, 0.95, 7},
		{"median of ten is the fifth", ten, 0.5, 5},
		{"p95 of ten is the last", ten, 0.95, 10},
		{"p90 of ten is the ninth", ten, 0.9, 9},
		{"p0 clamps to the first", ten, 0, 1},
		{"odd count median", []float64{1, 2, 3}, 0.5, 2},
	}
	for _, c := range cases {
		if got := quantile(c.sorted, c.q); got != c.want {
			t.Errorf("%s: quantile(%v, %v) = %v, want %v", c.name, c.sorted, c.q, got, c.want)
		}
	}
}

func TestTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{200, 0.95, true},
		{199, 0.95, false},
		{1000, 0.99, true},
		{999, 0.99, false},
		{100, 0.90, true},
		{20, 0.5, true},
		{19, 0.5, false},
	}
	for _, c := range cases {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// TestSelfTime walks hand-built span trees: the parent is one span, the
// children the spans under it.
func TestSelfTime(t *testing.T) {
	iv := func(s, e int64) interval { return interval{s, e} }
	cases := []struct {
		name     string
		parent   interval
		children []interval
		want     int64
	}{
		{"leaf", iv(0, 100), nil, 100},
		{"sequential children", iv(0, 100), []interval{iv(10, 30), iv(40, 60)}, 60},
		{"touching children", iv(0, 100), []interval{iv(10, 30), iv(30, 60)}, 50},
		{
			// One micro-batch, eight workers translating at once: the sum
			// of the children is 8 × 80 = 640, far more than the parent.
			"eight concurrent workers", iv(0, 100),
			[]interval{iv(10, 90), iv(10, 90), iv(11, 91), iv(12, 88), iv(10, 90), iv(15, 85), iv(10, 90), iv(9, 89)},
			18,
		},
		{"staggered overlap", iv(0, 100), []interval{iv(0, 50), iv(25, 75), iv(70, 80)}, 20},
		{"child nested in child", iv(0, 100), []interval{iv(20, 80), iv(30, 40)}, 40},
		{"child outlives parent", iv(50, 100), []interval{iv(60, 400)}, 10},
		{"child starts before parent", iv(50, 100), []interval{iv(0, 60)}, 40},
		{"child covers parent", iv(50, 100), []interval{iv(0, 400)}, 0},
		{"child outside parent", iv(50, 100), []interval{iv(0, 40), iv(120, 130)}, 50},
		{"unsorted children", iv(0, 100), []interval{iv(60, 70), iv(10, 20), iv(15, 65)}, 40},
		{"empty child", iv(0, 100), []interval{iv(30, 30)}, 100},
		{"starts at zero", iv(0, 10), []interval{iv(0, 4)}, 6},
	}
	for _, c := range cases {
		got := selfTime(c.parent, c.children)
		if got != c.want {
			t.Errorf("%s: self time = %d, want %d", c.name, got, c.want)
		}
		if got < 0 {
			t.Errorf("%s: negative self time %d", c.name, got)
		}
	}
}

func TestPerClaim(t *testing.T) {
	if got := per(84, 7); got != 12 {
		t.Errorf("per(84, 7) = %v, want 12", got)
	}
	if got := per(84, 0); got != 0 {
		t.Errorf("per(84, 0) = %v, want 0: a layer with no work reports 0, not NaN", got)
	}
}

// TestSpreadMatchesPython pins spread to statistics.quantiles(v, n=4): for
// 1..10 Python gives [2.75, 5.5, 8.25]; for the five values below
// [1.5, 3.0, 7.5].
func TestSpreadMatchesPython(t *testing.T) {
	cases := []struct {
		values []float64
		want   float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, (8.25 - 2.75) / 5.5},
		{[]float64{1, 2, 3, 5, 10}, (7.5 - 1.5) / 3.0},
		{[]float64{4, 4, 4, 4}, 0},
		{[]float64{4}, 0},
	}
	for _, c := range cases {
		if got := spread(c.values); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.values, got, c.want)
		}
	}
}
