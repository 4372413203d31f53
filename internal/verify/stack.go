package verify

import (
	"fmt"
	"time"

	"repro/internal/llm"
	"repro/internal/llm/resilience"
	"repro/internal/llm/sim"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trace"
)

// Labels of the four methods of Section 7.1, as NewStack names them.
const (
	MethodOneShot35 = "oneshot-gpt3.5"
	MethodOneShot4o = "oneshot-gpt4o"
	MethodAgent4o   = "agent-gpt4o"
	MethodAgent41   = "agent-gpt4.1"
)

// Middleware configures the LLM middleware NewStack wraps around each
// simulated model. The zero value is the paper's plain stack: every call
// reaches the model once and is billed.
type Middleware struct {
	// FaultRate, in [0, 1], injects deterministic transport failures at this
	// per-attempt probability; 0 disables injection.
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
	// Store, when non-nil, backs the temperature-0 completion cache with this
	// persistent result store (DESIGN.md §11), and so implies Cache.
	Store *store.Store
	// Cache installs a temperature-0 completion cache outside the meter, so
	// hits, in-memory or persisted, are never billed.
	Cache bool
	// ThrottleScale, when positive, wraps each simulated model in
	// llm.Throttled so every attempt pays this fraction of its simulated
	// latency as a real sleep: serving is then bound by awaiting responses,
	// not by CPU.
	ThrottleScale float64
}

// Validate rejects knobs no middleware can honour: a negative count or
// duration, or a fault rate outside [0, 1]. The error names the field.
func (o Middleware) Validate() error {
	if !(o.FaultRate >= 0 && o.FaultRate <= 1) { // NaN fails both comparisons
		return fmt.Errorf("verify: FaultRate %v outside [0, 1]", o.FaultRate)
	}
	for _, f := range []struct {
		name     string
		value    any
		negative bool
	}{
		{"Retries", o.Retries, o.Retries < 0},
		{"Timeout", o.Timeout, o.Timeout < 0},
		{"HedgeAfter", o.HedgeAfter, o.HedgeAfter < 0},
		{"BreakerThreshold", o.BreakerThreshold, o.BreakerThreshold < 0},
		{"ThrottleScale", o.ThrottleScale, !(o.ThrottleScale >= 0)},
	} {
		if f.negative {
			return fmt.Errorf("verify: %s %v is negative", f.name, f.value)
		}
	}
	return nil
}

// Stack is the standard verification stack of Section 7.1 — one-shot with
// GPT-3.5 and GPT-4o, agents with GPT-4o and GPT-4.1 — with the ledger that
// meters every model call.
type Stack struct {
	Methods []Method
	Ledger  *llm.Ledger
	// Resilience accumulates the middleware's operational counters.
	Resilience *metrics.Resilience
	// Caches are the per-model completion caches, one per model; empty
	// without Middleware.Cache or Store.
	Caches []*llm.Cached
}

// NewStack builds the four methods over fresh simulated models seeded with
// seed; the two GPT-4o methods share one client. Every assembler of the
// system calls it, so the library, the paper's experiments, the commands and
// the tests run one middleware chain. Inner to outer:
//
//	sim → [Throttled] → [Faulty] → Metered → [Cached] → [Hedged] → [Retrier] → [Breaker]
//
// The throttle is innermost, so every attempt that reaches the provider pays
// its wire time, including those a retrier discards. Faults sit inside the meter so failed attempts are billed. The
// cache sits outside the meter so hits are free. The retrier sits outside
// the cache and hedger so each retry is a full fresh call. The breaker is
// outermost, so it counts logical (post-retry) failures and its sheds never
// reach the retrier.
func NewStack(seed int64, o Middleware) (*Stack, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	s := &Stack{Ledger: llm.NewLedger(), Resilience: &metrics.Resilience{}}
	client := func(model string) (llm.Client, error) {
		m, err := sim.New(model, seed)
		if err != nil {
			return nil, err
		}
		var c llm.Client = m
		if o.ThrottleScale > 0 {
			c = &llm.Throttled{Client: c, Scale: o.ThrottleScale, Tracer: o.Tracer}
		}
		if o.FaultRate > 0 {
			c = &resilience.Faulty{
				Client:  c,
				Plan:    resilience.Plan{Seed: llm.SplitSeed(seed, "faults", model), Rate: o.FaultRate},
				Metrics: s.Resilience,
				Tracer:  o.Tracer,
			}
		}
		c = &llm.Metered{Client: c, Ledger: s.Ledger, Tracer: o.Tracer}
		if o.Cache || o.Store != nil {
			cached := llm.NewCached(c, 0)
			cached.Tracer = o.Tracer
			cached.Persist = o.Store
			s.Caches = append(s.Caches, cached)
			c = cached
		}
		if o.HedgeAfter > 0 {
			c = &resilience.Hedged{Client: c, After: o.HedgeAfter, Metrics: s.Resilience, Tracer: o.Tracer}
		}
		if o.Retries > 0 || o.Timeout > 0 {
			c = &resilience.Retrier{
				Client:      c,
				MaxAttempts: o.Retries + 1,
				Deadline:    o.Timeout,
				Seed:        llm.SplitSeed(seed, "retry", model),
				Metrics:     s.Resilience,
				Tracer:      o.Tracer,
			}
		}
		if o.BreakerThreshold > 0 {
			c = &resilience.Breaker{Client: c, FailureThreshold: o.BreakerThreshold, Metrics: s.Resilience, Tracer: o.Tracer}
		}
		return c, nil
	}
	clients := make(map[string]llm.Client, 3)
	for _, m := range []struct {
		label, model string
		agent        bool
		seed         int64
	}{
		{MethodOneShot35, llm.ModelGPT35, false, 0},
		{MethodOneShot4o, llm.ModelGPT4o, false, 0},
		{MethodAgent4o, llm.ModelGPT4o, true, seed},
		{MethodAgent41, llm.ModelGPT41, true, seed + 1},
	} {
		c, ok := clients[m.model]
		if !ok {
			var err error
			if c, err = client(m.model); err != nil {
				return nil, err
			}
			clients[m.model] = c
		}
		if m.agent {
			s.Methods = append(s.Methods, NewAgent(c, m.model, m.label, m.seed))
		} else {
			s.Methods = append(s.Methods, NewOneShot(c, m.model, m.label))
		}
	}
	return s, nil
}
