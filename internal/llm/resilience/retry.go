package resilience

import (
	"fmt"
	"time"

	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Retrier wraps a Client and retries retryable transport failures with
// capped exponential backoff. Jitter is deterministic: the delay before the
// i-th retry of a request is derived from (Seed, request key, i), so a
// retried run reproduces the same backoff schedule at any worker count —
// there is no shared random stream for concurrent callers to perturb.
//
// Backoff waits are charged to the logical call's simulated wall time (the
// returned Response.Latency spans all attempts plus waits); Sleep can
// additionally impose them in real time for wall-clock deployments.
type Retrier struct {
	// Client is the underlying completion provider.
	Client llm.Client
	// MaxAttempts is the total attempt budget per logical call, first try
	// included (default 3).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: retry i waits
	// min(MaxDelay, BaseDelay<<i) scaled by deterministic jitter in
	// [0.5, 1). Default 200ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff wait (default 5s).
	MaxDelay time.Duration
	// Deadline bounds the simulated wall time of one logical call across
	// attempts and backoff waits; once exceeded the call fails with
	// ErrTimeout instead of retrying further. 0 disables the deadline.
	Deadline time.Duration
	// Seed drives the jitter derivation.
	Seed int64
	// Sleep, when non-nil, is invoked with each backoff wait so real
	// deployments (and tests observing the schedule) pay it in wall time;
	// nil charges simulated time only, keeping chaos tests fast.
	Sleep func(time.Duration)
	// Metrics, when non-nil, receives attempt and retry counters.
	Metrics *metrics.Resilience
	// Tracer, when enabled, records a retry span per backoff decision; the
	// span's Latency is the deterministic jittered wait and Detail the retry
	// ordinal.
	Tracer *trace.Tracer
}

// Complete implements llm.Client.
func (r *Retrier) Complete(req llm.Request) (llm.Response, error) {
	attempts := r.MaxAttempts
	if attempts < 1 {
		attempts = 3
	}
	var key uint64 // the request's identity, for jitter; hashed at the first retry
	var elapsed time.Duration
	var resp llm.Response
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if r.Metrics != nil {
			r.Metrics.Attempts.Add(1)
			if attempt > 0 {
				r.Metrics.Retries.Add(1)
			}
		}
		resp, err = r.Client.Complete(req)
		elapsed += resp.Latency
		if err == nil {
			resp.Latency = elapsed
			return resp, nil
		}
		if !Retryable(err) {
			return resp, err
		}
		if r.Deadline > 0 && elapsed >= r.Deadline {
			return resp, fmt.Errorf("%w: %v elapsed of %v deadline (last: %v)", ErrTimeout, elapsed, r.Deadline, err)
		}
		if attempt < attempts-1 {
			if attempt == 0 {
				key = requestKey(req)
			}
			d := r.backoff(key, attempt)
			elapsed += d
			if r.Deadline > 0 && elapsed >= r.Deadline {
				return resp, fmt.Errorf("%w: %v elapsed of %v deadline (last: %v)", ErrTimeout, elapsed, r.Deadline, err)
			}
			if r.Tracer.Enabled() {
				r.Tracer.Record(trace.Span{
					Key: req.Attempt, Kind: trace.KindRetry, Model: req.Model,
					Seed: req.Seed, Latency: d, Detail: fmt.Sprintf("retry %d", attempt+1),
				})
			}
			if r.Sleep != nil {
				r.Sleep(d)
			}
		}
	}
	return resp, err
}

// backoff returns the deterministic jittered wait before retry `attempt`.
func (r *Retrier) backoff(key uint64, attempt int) time.Duration {
	base := r.BaseDelay
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	max := r.MaxDelay
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base << uint(attempt)
	if d <= 0 || d > max {
		d = max
	}
	jitter := 0.5 + 0.5*unit(mix(r.Seed, key, attempt, 'b'))
	return time.Duration(float64(d) * jitter)
}
