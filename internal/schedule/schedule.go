// Package schedule implements CEDAR's cost-based scheduling (Section 6):
// the expected-cost and accuracy models of Theorems 6.1/6.2, Pareto pruning,
// the dynamic-programming optimizer of Algorithm 10 over method subsets and
// per-method retry counts, and the final schedule selection rules.
package schedule

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// MethodStats is the profiling record of one verification method: expected
// cost per claim attempt and success probability, estimated on labeled
// samples (Section 6.1).
type MethodStats struct {
	// Name identifies the verification method.
	Name string
	// Cost is the expected dollar fee of one attempt on one claim.
	Cost float64
	// Accuracy is the probability that one attempt verifies the claim.
	Accuracy float64
	// Wall is the average simulated latency of one attempt, used for
	// throughput reporting (not part of the optimization objective).
	Wall time.Duration
}

// Step is one schedule entry: a method applied with a number of tries.
type Step struct {
	Method string
	Tries  int
}

// Schedule is an ordered list of steps with its modeled metrics.
type Schedule struct {
	Steps []Step
	// Cost is the modeled expected cost per claim (Theorem 6.1).
	Cost float64
	// Accuracy is the modeled verification probability (Theorem 6.2).
	Accuracy float64
}

// failProb returns 1 - Accuracy guarded against float drift.
func (s *Schedule) failProb() float64 {
	f := 1 - s.Accuracy
	if f < 0 {
		return 0
	}
	return f
}

// DistinctMethods counts steps with at least one try.
func (s *Schedule) DistinctMethods() int {
	n := 0
	for _, st := range s.Steps {
		if st.Tries > 0 {
			n++
		}
	}
	return n
}

// String renders the schedule compactly: "m1 x2 -> m2 x1".
func (s *Schedule) String() string {
	var parts []string
	for _, st := range s.Steps {
		if st.Tries > 0 {
			parts = append(parts, fmt.Sprintf("%s x%d", st.Method, st.Tries))
		}
	}
	if len(parts) == 0 {
		return "(empty)"
	}
	return strings.Join(parts, " -> ") + fmt.Sprintf("  [cost=$%.4f acc=%.3f]", s.Cost, s.Accuracy)
}

// append extends a schedule with k tries of a method, updating the modeled
// metrics per Theorems 6.1/6.2. With per-try success probability A and cost
// C, the k tries contribute expected cost f * C * (1-(1-A)^k)/A (a geometric
// series over failures so far) and multiply the failure probability by
// (1-A)^k.
func (s *Schedule) append(m MethodStats, k int) Schedule {
	out := Schedule{
		Steps:    make([]Step, 0, len(s.Steps)+1),
		Cost:     s.Cost,
		Accuracy: s.Accuracy,
	}
	out.Steps = append(out.Steps, s.Steps...)
	out.Steps = append(out.Steps, Step{Method: m.Name, Tries: k})
	if k == 0 {
		return out
	}
	f := s.failProb()
	failK := math.Pow(1-m.Accuracy, float64(k))
	var expectTries float64
	if m.Accuracy > 0 {
		expectTries = (1 - failK) / m.Accuracy
	} else {
		expectTries = float64(k)
	}
	out.Cost = s.Cost + f*m.Cost*expectTries
	out.Accuracy = 1 - f*failK
	return out
}

// Cost computes the expected cost of an arbitrary attempt sequence (one
// entry per try) under Theorem 6.1; exposed for model validation tests.
func Cost(tries []MethodStats) float64 {
	cost, fail := 0.0, 1.0
	for _, t := range tries {
		cost += fail * t.Cost
		fail *= 1 - t.Accuracy
	}
	return cost
}

// Accuracy computes the success probability of an attempt sequence under
// Theorem 6.2.
func Accuracy(tries []MethodStats) float64 {
	fail := 1.0
	for _, t := range tries {
		fail *= 1 - t.Accuracy
	}
	return 1 - fail
}

// ErrNoMethods indicates Optimize was called with an empty stats list.
var ErrNoMethods = errors.New("schedule: no verification methods")

// Optimize implements Algorithm 10: dynamic programming over subsets of
// verification methods, appending each candidate last method with every
// retry count 0..maxTries, and pruning Pareto-dominated schedules. It
// returns the Pareto-optimal schedules over the full method set, sorted by
// ascending cost.
func Optimize(stats []MethodStats, maxTries int) ([]Schedule, error) {
	n := len(stats)
	if n == 0 {
		return nil, ErrNoMethods
	}
	if n > 16 {
		return nil, fmt.Errorf("schedule: %d methods exceed the supported maximum of 16", n)
	}
	if maxTries < 1 {
		maxTries = 1
	}
	// dp[mask] holds Pareto-optimal schedules using exactly the methods in
	// mask as steps (steps may have zero tries).
	dp := make([][]Schedule, 1<<n)
	// Initialization: single-method schedules with 0..m tries.
	for i := 0; i < n; i++ {
		var list []Schedule
		empty := Schedule{}
		for k := 0; k <= maxTries; k++ {
			list = prune(list, empty.append(stats[i], k))
		}
		dp[1<<i] = list
	}
	// Build subsets of increasing cardinality.
	for mask := 1; mask < 1<<n; mask++ {
		if bitsSet(mask) < 2 {
			continue
		}
		var list []Schedule
		for last := 0; last < n; last++ {
			if mask&(1<<last) == 0 {
				continue
			}
			rest := mask &^ (1 << last)
			for _, p := range dp[rest] {
				for k := 0; k <= maxTries; k++ {
					list = prune(list, p.append(stats[last], k))
				}
			}
		}
		dp[mask] = list
	}
	out := dp[(1<<n)-1]
	sort.Slice(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out, nil
}

func bitsSet(mask int) int {
	n := 0
	for mask != 0 {
		mask &= mask - 1
		n++
	}
	return n
}

// prune inserts cand into a Pareto set over (cost down, accuracy up),
// discarding dominated schedules — the Prune function of Algorithm 10. On
// exact metric ties the schedule using more distinct methods is kept, so the
// diversity preference of SelectSchedule can still find it on the frontier.
func prune(list []Schedule, cand Schedule) []Schedule {
	const eps = 1e-12
	for i, s := range list {
		if s.Cost <= cand.Cost+eps && s.Accuracy >= cand.Accuracy-eps {
			// cand is dominated or ties; on an exact tie prefer diversity.
			if s.Cost >= cand.Cost-eps && s.Accuracy <= cand.Accuracy+eps &&
				cand.DistinctMethods() > s.DistinctMethods() {
				list[i] = cand
			}
			return list
		}
	}
	out := list[:0]
	for _, s := range list {
		if cand.Cost <= s.Cost+eps && cand.Accuracy >= s.Accuracy-eps {
			continue // cand dominates s
		}
		out = append(out, s)
	}
	return append(out, cand)
}

// Select implements the final SelectSchedule rules: restrict to schedules
// meeting the accuracy constraint (or, failing that, the maximal-accuracy
// ones); among those select minimal cost; among near-minimal-cost schedules
// prefer the one using the most distinct methods (diversity compensates for
// the independence assumption of the accuracy model). Applying the
// diversity preference as a tie-break at minimal cost — rather than as a
// global filter — preserves the monotone threshold-to-cost trade-off that
// Figure 5 sweeps.
func Select(pareto []Schedule, minAccuracy float64) (*Schedule, error) {
	if len(pareto) == 0 {
		return nil, ErrNoMethods
	}
	var eligible []Schedule
	for _, s := range pareto {
		if s.Accuracy >= minAccuracy {
			eligible = append(eligible, s)
		}
	}
	if len(eligible) == 0 {
		best := pareto[0].Accuracy
		for _, s := range pareto {
			if s.Accuracy > best {
				best = s.Accuracy
			}
		}
		for _, s := range pareto {
			if s.Accuracy >= best-1e-12 {
				eligible = append(eligible, s)
			}
		}
	}
	minCost := eligible[0].Cost
	for _, s := range eligible {
		if s.Cost < minCost {
			minCost = s.Cost
		}
	}
	// Near-minimal band: within 1% (or an absolute epsilon for tiny costs).
	band := minCost*1.01 + 1e-12
	var chosen *Schedule
	for i := range eligible {
		s := &eligible[i]
		if s.Cost > band {
			continue
		}
		if chosen == nil ||
			s.DistinctMethods() > chosen.DistinctMethods() ||
			(s.DistinctMethods() == chosen.DistinctMethods() && s.Cost < chosen.Cost) {
			chosen = s
		}
	}
	if chosen == nil {
		return nil, ErrNoMethods
	}
	out := *chosen
	return &out, nil
}

// Plan is the convenience composition Optimize + Select.
func Plan(stats []MethodStats, maxTries int, minAccuracy float64) (*Schedule, error) {
	pareto, err := Optimize(stats, maxTries)
	if err != nil {
		return nil, err
	}
	return Select(pareto, minAccuracy)
}

// SelectBudget is the inverse selection rule: among Pareto-optimal
// schedules whose expected per-claim cost stays within the budget, pick the
// one with maximal modeled accuracy (diversity as tie-break, minimal cost
// after that). The paper takes accuracy targets as input rather than a cost
// budget (Section 4); this is the complementary knob for deployments with a
// hard spending limit. A budget below the cheapest schedule falls back to
// the cheapest one.
func SelectBudget(pareto []Schedule, maxCostPerClaim float64) (*Schedule, error) {
	if len(pareto) == 0 {
		return nil, ErrNoMethods
	}
	var eligible []Schedule
	for _, s := range pareto {
		if s.Cost <= maxCostPerClaim {
			eligible = append(eligible, s)
		}
	}
	if len(eligible) == 0 {
		cheapest := pareto[0]
		for _, s := range pareto {
			if s.Cost < cheapest.Cost {
				cheapest = s
			}
		}
		out := cheapest
		return &out, nil
	}
	best := eligible[0]
	for _, s := range eligible[1:] {
		switch {
		case s.Accuracy > best.Accuracy+1e-12:
			best = s
		case s.Accuracy >= best.Accuracy-1e-12 && s.DistinctMethods() > best.DistinctMethods():
			best = s
		case s.Accuracy >= best.Accuracy-1e-12 && s.DistinctMethods() == best.DistinctMethods() && s.Cost < best.Cost:
			best = s
		}
	}
	out := best
	return &out, nil
}

// PlanBudget is the convenience composition Optimize + SelectBudget.
func PlanBudget(stats []MethodStats, maxTries int, maxCostPerClaim float64) (*Schedule, error) {
	pareto, err := Optimize(stats, maxTries)
	if err != nil {
		return nil, err
	}
	return SelectBudget(pareto, maxCostPerClaim)
}
