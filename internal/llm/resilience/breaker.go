package resilience

import (
	"fmt"
	"sync"

	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// State is a circuit breaker's position.
type State int32

const (
	// Closed admits every call (healthy provider).
	Closed State = iota
	// Open sheds every call until the cooldown elapses.
	Open
	// HalfOpen admits a single probe call to test recovery.
	HalfOpen
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Breaker wraps a Client with a per-model circuit breaker. Consecutive
// failures trip it Open; while Open it rejects calls with ErrCircuitOpen
// (zero cost — the provider is never contacted), which the pipeline treats
// as "this method is unavailable", letting the scheduler degrade the claim
// to the next-cheapest method instead of aborting the document. After
// Cooldown shed calls, the breaker goes HalfOpen and admits one probe: a
// successful probe closes the circuit, a failed one reopens it.
//
// The cooldown is counted in shed calls rather than wall time so breaker
// behavior is reproducible in tests without a clock.
//
// Determinism trade-off: unlike every other middleware here, the breaker's
// state is shared across concurrent callers, so *which* calls get shed
// depends on arrival order. Enabling it trades across-worker-count
// bit-determinism for genuine load shedding — it is off by default and
// excluded from the identity matrix; its own tests pin behavior at
// workers=1 and assert invariants (not exact schedules) under race.
type Breaker struct {
	// Client is the underlying completion provider.
	Client llm.Client
	// FailureThreshold is the consecutive-failure count that trips the
	// breaker (default 5).
	FailureThreshold int
	// Cooldown is the number of shed calls after which a half-open probe is
	// admitted (default 8).
	Cooldown int
	// Metrics, when non-nil, receives breaker counters.
	Metrics *metrics.Resilience
	// Tracer, when enabled, records breaker_shed / breaker_probe /
	// breaker_trip spans. Breaker spans inherit the state machine's
	// order-dependence and are excluded from the golden-trace gate (the
	// breaker is off there).
	Tracer *trace.Tracer

	mu      sync.Mutex
	state   State
	fails   int
	sheds   int
	probing bool
}

// Complete implements llm.Client.
func (b *Breaker) Complete(req llm.Request) (llm.Response, error) {
	admitted, probed := b.admit()
	if !admitted {
		if b.Metrics != nil {
			b.Metrics.BreakerSheds.Add(1)
		}
		if b.Tracer.Enabled() {
			b.Tracer.Record(trace.Span{Key: req.Attempt, Kind: trace.KindBreakerShed, Model: req.Model})
		}
		return llm.Response{}, fmt.Errorf("%w: model %s shedding load", ErrCircuitOpen, req.Model)
	}
	if probed && b.Tracer.Enabled() {
		b.Tracer.Record(trace.Span{Key: req.Attempt, Kind: trace.KindBreakerProbe, Model: req.Model})
	}
	resp, err := b.Client.Complete(req)
	if b.settle(err) && b.Tracer.Enabled() {
		b.Tracer.Record(trace.Span{Key: req.Attempt, Kind: trace.KindBreakerTrip, Model: req.Model})
	}
	return resp, err
}

// admit decides whether a call may proceed, advancing Open toward HalfOpen
// as shed calls accumulate. probed reports that this admission is a
// half-open recovery probe.
func (b *Breaker) admit() (admitted, probed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true, false
	case Open:
		b.sheds++
		cooldown := b.Cooldown
		if cooldown <= 0 {
			cooldown = 8
		}
		if b.sheds > cooldown {
			b.state = HalfOpen
			b.probing = true
			if b.Metrics != nil {
				b.Metrics.BreakerProbes.Add(1)
			}
			return true, true
		}
		return false, false
	case HalfOpen:
		if b.probing {
			b.sheds++
			return false, false
		}
		b.probing = true
		if b.Metrics != nil {
			b.Metrics.BreakerProbes.Add(1)
		}
		return true, true
	default:
		return true, false
	}
}

// settle folds an admitted call's outcome into the state machine and reports
// whether the outcome tripped the breaker open.
func (b *Breaker) settle(err error) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		b.state = Closed
		b.fails = 0
		b.sheds = 0
		b.probing = false
		return false
	}
	switch b.state {
	case HalfOpen:
		b.state = Open
		b.sheds = 0
		b.probing = false
		if b.Metrics != nil {
			b.Metrics.BreakerTrips.Add(1)
		}
		return true
	default:
		b.fails++
		threshold := b.FailureThreshold
		if threshold <= 0 {
			threshold = 5
		}
		if b.fails >= threshold && b.state == Closed {
			b.state = Open
			b.sheds = 0
			if b.Metrics != nil {
				b.Metrics.BreakerTrips.Add(1)
			}
			return true
		}
		return false
	}
}

// State reports the breaker's current position.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
