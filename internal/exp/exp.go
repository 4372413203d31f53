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
	"repro/internal/llm"
	"repro/internal/llm/resilience"
	"repro/internal/llm/sim"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/schedule"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Stack bundles the standard CEDAR verification methods of Section 7.1 —
// one-shot with GPT-3.5 and GPT-4o, agents with GPT-4o and GPT-4.1 — with
// the ledger metering all of them.
type Stack struct {
	Methods []verify.Method
	Ledger  *llm.Ledger
	// Resilience accumulates operational counters from the resilience
	// middleware when the stack was built with nontrivial ResilienceOptions.
	Resilience *metrics.Resilience
	// Workers bounds concurrent claim verification in pipeline runs; values
	// < 2 run sequentially. Results are identical for any worker count (the
	// splittable seeding of internal/core), so experiments may parallelize
	// freely without perturbing reported numbers.
	Workers int
	// Tracer is the attempt-level span recorder wired through the middleware
	// when the stack was built with ResilienceOptions.Tracer; pipeline runs
	// thread it into core.Config so spans carry attempt identities.
	Tracer *trace.Tracer

	seed int64
}

// Canonical method labels used across experiments.
const (
	MethodOneShot35 = "oneshot-gpt3.5"
	MethodOneShot4o = "oneshot-gpt4o"
	MethodAgent4o   = "agent-gpt4o"
	MethodAgent41   = "agent-gpt4.1"
)

// ResilienceOptions configure the optional resilience middleware of an
// experiment stack, mirroring the knobs of cedar.Options.
type ResilienceOptions struct {
	// FaultRate injects deterministic transport failures at this per-attempt
	// probability; 0 disables injection.
	FaultRate float64
	// Retries is the number of additional attempts per failed retryable call.
	Retries int
	// Timeout bounds one logical call's simulated wall time across retries.
	Timeout time.Duration
	// HedgeAfter races a backup completion once the primary exceeds this
	// simulated latency.
	HedgeAfter time.Duration
	// BreakerThreshold trips a per-model circuit breaker after this many
	// consecutive failures (order-dependent; see resilience.Breaker).
	BreakerThreshold int
	// Tracer, when non-nil, records attempt-level spans from every middleware
	// layer (see internal/trace); nil disables tracing.
	Tracer *trace.Tracer
	// Store, when non-nil, installs a temperature-0 completion cache backed
	// by this persistent result store between the meter and the hedger —
	// the same position cedar.New wires it (DESIGN.md §11). Cached hits,
	// in-memory or persisted, are never billed.
	Store *store.Store
	// ThrottleScale, when positive, wraps the simulated models in
	// llm.Throttled so every attempt pays this fraction of its simulated
	// latency as a real sleep. The benchmark's serve-wait workload uses it
	// to model provider-latency-bound serving: a replica's throughput is
	// then capped by awaiting responses, not by CPU.
	ThrottleScale float64
}

// DefaultResilience is applied by NewStack; the cedar-bench and
// cedar-profile commands set it from their flags so every experiment driver
// picks the knobs up without each driver threading them through.
var DefaultResilience ResilienceOptions

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
func ServingResilience() ResilienceOptions {
	return ResilienceOptions{
		Retries:    2,
		Timeout:    30 * time.Second,
		HedgeAfter: 5 * time.Second,
	}
}

// NewStack builds the method stack over fresh simulated models, applying
// DefaultResilience.
func NewStack(seed int64) (*Stack, error) {
	return NewStackResilient(seed, DefaultResilience)
}

// NewStackResilient builds the method stack with explicit resilience knobs.
// Middleware order matches cedar.New: sim → Faulty → Metered → [Cached] →
// Hedged → Retrier → Breaker (inner to outer), so failed attempts are billed,
// cache hits are free, and the breaker sees logical post-retry outcomes.
func NewStackResilient(seed int64, ro ResilienceOptions) (*Stack, error) {
	ledger := llm.NewLedger()
	res := &metrics.Resilience{}
	client := func(model string) (llm.Client, error) {
		m, err := sim.New(model, seed)
		if err != nil {
			return nil, err
		}
		var c llm.Client = m
		if ro.ThrottleScale > 0 {
			// Innermost, directly over the model: every attempt — including
			// ones a fault injector or retrier will discard — pays its wire
			// time, matching how bench_test.go measures worker speedups.
			c = &llm.Throttled{Client: c, Scale: ro.ThrottleScale, Tracer: ro.Tracer}
		}
		if ro.FaultRate > 0 {
			c = &resilience.Faulty{
				Client:  c,
				Plan:    resilience.Plan{Seed: llm.SplitSeed(seed, "faults", model), Rate: ro.FaultRate},
				Metrics: res,
				Tracer:  ro.Tracer,
			}
		}
		c = &llm.Metered{Client: c, Ledger: ledger, Tracer: ro.Tracer}
		if ro.Store != nil {
			// Outside the meter so hits — in-memory or persisted — are free,
			// matching cedar.New's placement.
			cached := llm.NewCached(c, 0)
			cached.Tracer = ro.Tracer
			cached.Persist = ro.Store
			c = cached
		}
		if ro.HedgeAfter > 0 {
			c = &resilience.Hedged{Client: c, After: ro.HedgeAfter, Metrics: res, Tracer: ro.Tracer}
		}
		if ro.Retries > 0 || ro.Timeout > 0 {
			c = &resilience.Retrier{
				Client:      c,
				MaxAttempts: ro.Retries + 1,
				Deadline:    ro.Timeout,
				Seed:        llm.SplitSeed(seed, "retry", model),
				Metrics:     res,
				Tracer:      ro.Tracer,
			}
		}
		if ro.BreakerThreshold > 0 {
			c = &resilience.Breaker{Client: c, FailureThreshold: ro.BreakerThreshold, Metrics: res, Tracer: ro.Tracer}
		}
		return c, nil
	}
	c35, err := client(llm.ModelGPT35)
	if err != nil {
		return nil, err
	}
	c4o, err := client(llm.ModelGPT4o)
	if err != nil {
		return nil, err
	}
	c41, err := client(llm.ModelGPT41)
	if err != nil {
		return nil, err
	}
	return &Stack{
		seed: seed,
		Methods: []verify.Method{
			verify.NewOneShot(c35, llm.ModelGPT35, MethodOneShot35),
			verify.NewOneShot(c4o, llm.ModelGPT4o, MethodOneShot4o),
			verify.NewAgent(c4o, llm.ModelGPT4o, MethodAgent4o, seed),
			verify.NewAgent(c41, llm.ModelGPT41, MethodAgent41, seed+1),
		},
		Ledger:     ledger,
		Resilience: res,
		Tracer:     ro.Tracer,
	}, nil
}

// Profile estimates method statistics on a held-out corpus.
func (s *Stack) Profile(profDocs []*claim.Document) ([]schedule.MethodStats, error) {
	return profile.Run(s.Methods, profDocs, s.Ledger, profile.Options{})
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
