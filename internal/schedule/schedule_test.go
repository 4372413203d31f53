package schedule

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func stats3() []MethodStats {
	return []MethodStats{
		{Name: "cheap", Cost: 0.001, Accuracy: 0.6, Wall: time.Second},
		{Name: "mid", Cost: 0.01, Accuracy: 0.8, Wall: 3 * time.Second},
		{Name: "strong", Cost: 0.05, Accuracy: 0.95, Wall: 10 * time.Second},
	}
}

func TestCostAndAccuracyModels(t *testing.T) {
	// Theorem 6.1/6.2 by hand for a two-try sequence.
	seq := []MethodStats{
		{Cost: 1, Accuracy: 0.5},
		{Cost: 10, Accuracy: 0.9},
	}
	wantCost := 1 + 0.5*10.0
	if got := Cost(seq); math.Abs(got-wantCost) > 1e-12 {
		t.Errorf("Cost = %v want %v", got, wantCost)
	}
	wantAcc := 1 - 0.5*0.1
	if got := Accuracy(seq); math.Abs(got-wantAcc) > 1e-12 {
		t.Errorf("Accuracy = %v want %v", got, wantAcc)
	}
}

func TestAppendMatchesExplicitSequence(t *testing.T) {
	// Schedule.append's geometric-series shortcut must agree with the
	// explicit per-try expansion.
	m1 := MethodStats{Name: "a", Cost: 0.3, Accuracy: 0.4}
	m2 := MethodStats{Name: "b", Cost: 2, Accuracy: 0.85}
	s := Schedule{}
	s = s.append(m1, 3)
	s = s.append(m2, 2)
	var seq []MethodStats
	for i := 0; i < 3; i++ {
		seq = append(seq, m1)
	}
	for i := 0; i < 2; i++ {
		seq = append(seq, m2)
	}
	if math.Abs(s.Cost-Cost(seq)) > 1e-12 {
		t.Errorf("append cost %v vs explicit %v", s.Cost, Cost(seq))
	}
	if math.Abs(s.Accuracy-Accuracy(seq)) > 1e-12 {
		t.Errorf("append accuracy %v vs explicit %v", s.Accuracy, Accuracy(seq))
	}
}

func TestAppendZeroTriesIsNeutral(t *testing.T) {
	s := Schedule{}
	s = s.append(MethodStats{Name: "a", Cost: 1, Accuracy: 0.5}, 0)
	if s.Cost != 0 || s.Accuracy != 0 {
		t.Errorf("zero tries changed metrics: %+v", s)
	}
}

func TestOptimizeParetoProperties(t *testing.T) {
	pareto, err := Optimize(stats3(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pareto) == 0 {
		t.Fatal("empty Pareto set")
	}
	// Sorted by cost; accuracy must be strictly increasing along the
	// frontier (otherwise a schedule would be dominated).
	for i := 1; i < len(pareto); i++ {
		if pareto[i].Cost < pareto[i-1].Cost {
			t.Fatal("not sorted by cost")
		}
		if pareto[i].Accuracy <= pareto[i-1].Accuracy+1e-15 {
			t.Errorf("dominated schedule on frontier: %v then %v", pareto[i-1], pareto[i])
		}
	}
}

// TestOptimizeMatchesBruteForce compares the DP against brute-force
// enumeration of all method orders and retry counts for small instances.
func TestOptimizeMatchesBruteForce(t *testing.T) {
	stats := []MethodStats{
		{Name: "a", Cost: 0.002, Accuracy: 0.55},
		{Name: "b", Cost: 0.02, Accuracy: 0.75},
		{Name: "c", Cost: 0.09, Accuracy: 0.97},
	}
	maxTries := 2
	// Brute force: all permutations, all tries vectors.
	var best []Schedule
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, perm := range perms {
		for t1 := 0; t1 <= maxTries; t1++ {
			for t2 := 0; t2 <= maxTries; t2++ {
				for t3 := 0; t3 <= maxTries; t3++ {
					var seq []MethodStats
					tries := []int{t1, t2, t3}
					s := Schedule{}
					for i, p := range perm {
						s = s.append(stats[p], tries[i])
						for k := 0; k < tries[i]; k++ {
							seq = append(seq, stats[p])
						}
					}
					best = prune(best, s)
				}
			}
		}
	}
	pareto, err := Optimize(stats, maxTries)
	if err != nil {
		t.Fatal(err)
	}
	// Every brute-force Pareto point must be matched (same cost/accuracy)
	// by the DP frontier and vice versa.
	match := func(a, b []Schedule) {
		for _, s := range a {
			found := false
			for _, o := range b {
				if math.Abs(s.Cost-o.Cost) < 1e-9 && math.Abs(s.Accuracy-o.Accuracy) < 1e-9 {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("frontier point missing: %v", s)
			}
		}
	}
	match(best, pareto)
	match(pareto, best)
}

func TestSelectAccuracyConstraint(t *testing.T) {
	pareto, err := Optimize(stats3(), 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Select(pareto, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if s.Accuracy < 0.99 {
		t.Errorf("selected accuracy %v below constraint", s.Accuracy)
	}
	// A lower constraint must never cost more.
	cheap, err := Select(pareto, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if cheap.Cost > s.Cost {
		t.Errorf("lower constraint costs more: %v vs %v", cheap.Cost, s.Cost)
	}
}

func TestSelectUnreachableAccuracy(t *testing.T) {
	pareto, err := Optimize(stats3(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Impossible constraint: fall back to maximal accuracy.
	s, err := Select(pareto, 0.999999999)
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for _, p := range pareto {
		if p.Accuracy > best {
			best = p.Accuracy
		}
	}
	if math.Abs(s.Accuracy-best) > 1e-12 {
		t.Errorf("fallback accuracy %v, maximal %v", s.Accuracy, best)
	}
}

func TestSelectPrefersDiverseMethods(t *testing.T) {
	// Two methods with identical stats: repeating one or mixing both gives
	// identical modeled metrics, but Select must prefer the mix
	// (Section 6.4's diversity rule).
	stats := []MethodStats{
		{Name: "a", Cost: 0.01, Accuracy: 0.7},
		{Name: "b", Cost: 0.01, Accuracy: 0.7},
	}
	pareto, err := Optimize(stats, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Select(pareto, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if s.DistinctMethods() < 2 {
		t.Errorf("expected diverse schedule, got %v", s)
	}
}

func TestCheaperMethodsFirst(t *testing.T) {
	// With a loose constraint the optimizer must start with the cheap
	// method — the core cost-saving behaviour of multi-stage verification.
	s, err := Plan(stats3(), 3, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	first := ""
	for _, st := range s.Steps {
		if st.Tries > 0 {
			first = st.Method
			break
		}
	}
	if first != "cheap" {
		t.Errorf("first method = %q, schedule %v", first, s)
	}
}

// Theorem 6.3 (principle of optimality): improving a prefix never worsens
// the whole schedule — checked as a property over random instances.
func TestPrefixReplacementProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func() bool {
		mk := func() MethodStats {
			return MethodStats{Cost: 0.001 + rng.Float64(), Accuracy: 0.05 + 0.9*rng.Float64()}
		}
		prefixA := []MethodStats{mk(), mk()}
		prefixB := []MethodStats{mk(), mk()}
		suffix := []MethodStats{mk(), mk(), mk()}
		costA, accA := Cost(prefixA), Accuracy(prefixA)
		costB, accB := Cost(prefixB), Accuracy(prefixB)
		if !(costB <= costA && accB >= accA) {
			return true // precondition of the theorem not met; skip
		}
		fullA := Cost(append(append([]MethodStats{}, prefixA...), suffix...))
		fullB := Cost(append(append([]MethodStats{}, prefixB...), suffix...))
		accFullA := Accuracy(append(append([]MethodStats{}, prefixA...), suffix...))
		accFullB := Accuracy(append(append([]MethodStats{}, prefixB...), suffix...))
		return fullB <= fullA+1e-9 && accFullB >= accFullA-1e-9
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rng}
	if err := quick.Check(func() bool { return f() }, cfg); err != nil {
		t.Error(err)
	}
}

func TestSelectBudget(t *testing.T) {
	pareto, err := Optimize(stats3(), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Generous budget: must reach the frontier's maximal accuracy.
	rich, err := SelectBudget(pareto, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	bestAcc := 0.0
	for _, s := range pareto {
		if s.Accuracy > bestAcc {
			bestAcc = s.Accuracy
		}
	}
	if math.Abs(rich.Accuracy-bestAcc) > 1e-12 {
		t.Errorf("rich budget accuracy %v, frontier max %v", rich.Accuracy, bestAcc)
	}
	// Tight budget: stays within it, buys less accuracy.
	tight, err := SelectBudget(pareto, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Cost > 0.002 {
		t.Errorf("tight budget exceeded: %v", tight.Cost)
	}
	if tight.Accuracy >= rich.Accuracy {
		t.Errorf("tight budget cannot match rich accuracy: %v vs %v", tight.Accuracy, rich.Accuracy)
	}
	// Budget below everything: falls back to the cheapest schedule.
	floor, err := SelectBudget(pareto, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range pareto {
		if s.Cost < floor.Cost {
			t.Errorf("fallback not cheapest: %v vs %v", floor.Cost, s.Cost)
		}
	}
	// Monotonicity: more budget never buys less accuracy.
	prev := -1.0
	for _, b := range []float64{0.0005, 0.001, 0.005, 0.02, 0.1, 1} {
		s, err := PlanBudget(stats3(), 3, b)
		if err != nil {
			t.Fatal(err)
		}
		if s.Accuracy < prev-1e-12 {
			t.Errorf("budget %v decreased accuracy: %v < %v", b, s.Accuracy, prev)
		}
		prev = s.Accuracy
	}
	if _, err := SelectBudget(nil, 1); !errors.Is(err, ErrNoMethods) {
		t.Errorf("err = %v", err)
	}
}

func TestOptimizeErrors(t *testing.T) {
	if _, err := Optimize(nil, 3); !errors.Is(err, ErrNoMethods) {
		t.Errorf("err = %v", err)
	}
	if _, err := Select(nil, 0.5); !errors.Is(err, ErrNoMethods) {
		t.Errorf("err = %v", err)
	}
	many := make([]MethodStats, 17)
	if _, err := Optimize(many, 1); err == nil {
		t.Error("expected error for too many methods")
	}
}

func TestScheduleString(t *testing.T) {
	s := Schedule{Steps: []Step{{Method: "a", Tries: 2}, {Method: "b", Tries: 0}, {Method: "c", Tries: 1}}, Cost: 0.5, Accuracy: 0.9}
	out := s.String()
	if !strings.Contains(out, "a x2") || !strings.Contains(out, "c x1") || strings.Contains(out, "b x0") {
		t.Errorf("String = %q", out)
	}
	empty := Schedule{}
	if empty.String() != "(empty)" {
		t.Errorf("empty = %q", empty.String())
	}
	if s.DistinctMethods() != 2 {
		t.Error("distinct counting")
	}
}
