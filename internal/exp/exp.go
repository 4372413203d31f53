// Package exp contains one driver per table and figure of the paper's
// evaluation (Section 7). Each driver generates its workload, runs CEDAR
// and/or the baselines, and returns a result whose Render method prints the
// same rows/series the paper reports. The drivers are used by the
// cedar-bench command and by the repository's benchmark suite.
package exp

import (
	"fmt"
	"time"

	"repro/internal/claim"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/schedule"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Stack is the verification stack (verify.NewStack) plus what the
// experiment drivers need to run it: a worker count and the tracer its
// middleware records into.
type Stack struct {
	*verify.Stack
	// Workers bounds concurrent claim verification in pipeline runs; values
	// < 2 run sequentially. Results are identical for any worker count (the
	// splittable seeding of internal/core), so experiments may parallelize
	// freely without perturbing reported numbers.
	Workers int
	// Tracer is the attempt-level span recorder the stack's middleware
	// records into (Middleware.Tracer); pipeline runs thread it into
	// core.Config so spans carry attempt identities.
	Tracer *trace.Tracer

	seed int64
}

// ResilienceOptions is verify.Middleware under the name the benchmark's
// system builders (benchmark/systems.go, benchmark/run.go) still use; the
// drivers take a verify.Middleware. It goes once the benchmark does too.
type ResilienceOptions = verify.Middleware

// ServingResilience is the recommended middleware configuration for serving
// mode, used as the cedar-serve flag defaults. A batch run can afford to
// fail a claim and report it; an interactive service should spend tokens to
// avoid making the caller retry. Hence: two retries (recovers virtually all
// transient faults at the fault rates measured in EXPERIMENTS.md), a
// per-call deadline above the slowest method's p99 simulated latency
// (~2.4s) with backoff headroom, and a hedge just beyond it so tail calls
// race a backup instead of stalling a whole micro-batch. The breaker stays
// off by default because its shared state is order-dependent (DESIGN.md
// §9): enabling it is an explicit operator choice to trade bit-determinism
// for load shedding.
func ServingResilience() verify.Middleware {
	return verify.Middleware{
		Retries:    2,
		Timeout:    30 * time.Second,
		HedgeAfter: 5 * time.Second,
	}
}

// NewStackResilient builds an experiment stack over verify.NewStack with
// the given middleware. The benchmark's replicas are built with it too.
func NewStackResilient(seed int64, mw verify.Middleware) (*Stack, error) {
	vs, err := verify.NewStack(seed, mw)
	if err != nil {
		return nil, err
	}
	return &Stack{Stack: vs, Tracer: mw.Tracer, seed: seed}, nil
}

// Profile estimates method statistics on a held-out corpus.
func (s *Stack) Profile(profDocs []*claim.Document) ([]schedule.MethodStats, error) {
	return profile.Run(s.Methods, profDocs, s.Ledger)
}

// RunCEDAR plans a schedule at the accuracy target, verifies the documents,
// and returns the quality metrics plus the run's resource consumption.
func (s *Stack) RunCEDAR(stats []schedule.MethodStats, target float64, docs []*claim.Document) (metrics.Quality, metrics.RunCost, *core.Pipeline, error) {
	p, err := core.New(core.Config{Methods: s.Methods, Stats: stats, AccuracyTarget: target, Seed: s.seed, Workers: s.Workers, Tracer: s.Tracer})
	if err != nil {
		return metrics.Quality{}, metrics.RunCost{}, nil, err
	}
	q, rc := s.runPipeline(p, docs)
	return q, rc, p, nil
}

// RunSchedule verifies the documents under a fixed schedule.
func (s *Stack) RunSchedule(plan *schedule.Schedule, docs []*claim.Document) (metrics.Quality, metrics.RunCost, error) {
	p, err := core.NewWithSchedule(core.Config{Methods: s.Methods, Seed: s.seed, Workers: s.Workers, Tracer: s.Tracer}, plan)
	if err != nil {
		return metrics.Quality{}, metrics.RunCost{}, err
	}
	q, rc := s.runPipeline(p, docs)
	return q, rc, nil
}

func (s *Stack) runPipeline(p *core.Pipeline, docs []*claim.Document) (metrics.Quality, metrics.RunCost) {
	s.Ledger.Reset()
	// Like the ledger, a trace covers exactly one pipeline run.
	s.Tracer.Reset()
	p.VerifyDocumentsParallel(docs, s.Workers)
	rc := metrics.RunCost{
		Dollars: s.Ledger.TotalDollars(),
		Calls:   s.Ledger.TotalCalls(),
		Wall:    s.Ledger.TotalWall(),
		Claims:  claim.TotalClaims(docs),
	}
	s.Ledger.Reset()
	return metrics.Evaluate(docs), rc
}

// profileSeed offsets a corpus seed to derive the held-out profiling corpus
// for the same benchmark shape.
func profileSeed(seed int64) int64 { return seed + 1000003 }

// datasetSpec names a benchmark and its generator.
type datasetSpec struct {
	name string
	gen  func(seed int64) ([]*claim.Document, error)
}

func standardDatasets() []datasetSpec {
	return []datasetSpec{
		{name: "AggChecker", gen: data.AggChecker},
		{name: "TabFact", gen: data.TabFact},
		{name: "WikiText", gen: data.WikiText},
	}
}

func pct(x float64) string { return fmt.Sprintf("%.1f", x*100) }
