package shard

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Prober is the replica-level circuit breaker of the sharded tier: it
// tracks consecutive probe and traffic outcomes per replica and ejects a
// replica from membership after FailAfter consecutive failures, readmitting
// it after RecoverAfter consecutive successful probes. The state machine is
// the same closed → open → half-open shape as resilience.Breaker — a probe
// against an ejected replica is the half-open trial — and it books its
// transitions into the same metrics.Resilience counters (BreakerTrips for
// ejections, BreakerProbes for recovery probes against ejected replicas),
// so /v1/metrics reports replica ejection alongside model-level breaking.
//
// Failures reach the prober from two sides: the periodic health sweep
// (Probe against each replica's /healthz, where a draining replica answers
// 503) and the proxy's live traffic (ReportFailure on transport errors).
// Both feed one counter per replica, so a replica that is dead to traffic
// is ejected even between sweeps.
type Prober struct {
	// Probe checks one replica, nil error meaning healthy. Required.
	Probe func(ctx context.Context, node string) error
	// Interval paces Run's sweeps (default 500ms).
	Interval time.Duration
	// FailAfter is the consecutive-failure count that ejects a replica
	// (default 2: one failure is a blip, two in a row is an outage).
	FailAfter int
	// RecoverAfter is the consecutive successful probes that readmit an
	// ejected replica (default 2).
	RecoverAfter int
	// OnEject and OnAdmit fire on state transitions — the coordinator wires
	// them to Ring.Remove and Ring.Add so membership tracks health. Called
	// one at a time, in the order the transitions happened; they must not
	// call back into the prober.
	OnEject func(node string)
	OnAdmit func(node string)
	// Metrics, when non-nil, receives breaker-counter bookings.
	Metrics *metrics.Resilience

	mu    sync.Mutex
	state map[string]*replicaState
	// notify orders the transition callbacks: a transition takes it before
	// releasing mu, so an eject's Ring.Remove cannot land after the Ring.Add
	// of the readmission that followed it and strand a healthy replica
	// outside the ring.
	notify sync.Mutex
}

// replicaState is one replica's health counters.
type replicaState struct {
	healthy   bool
	failures  int // consecutive, while healthy
	successes int // consecutive probe successes, while ejected
}

func (p *Prober) defaults() (failAfter, recoverAfter int, interval time.Duration) {
	failAfter, recoverAfter, interval = p.FailAfter, p.RecoverAfter, p.Interval
	if failAfter < 1 {
		failAfter = 2
	}
	if recoverAfter < 1 {
		recoverAfter = 2
	}
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	return failAfter, recoverAfter, interval
}

// Track registers a replica in the healthy state (new replicas are admitted
// optimistically; the first sweep corrects a wrong guess). Idempotent.
func (p *Prober) Track(node string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state == nil {
		p.state = make(map[string]*replicaState)
	}
	if _, ok := p.state[node]; !ok {
		p.state[node] = &replicaState{healthy: true}
	}
}

// Forget deregisters a replica entirely (explicit deregistration, not
// ejection: it will not be probed for recovery).
func (p *Prober) Forget(node string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.state, node)
}

// Tracked returns all registered replicas, healthy or not, sorted.
func (p *Prober) Tracked() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.state))
	for n := range p.state {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Healthy returns the replicas currently admitted, sorted.
func (p *Prober) Healthy() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.state))
	for n, st := range p.state {
		if st.healthy {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// IsHealthy reports one replica's admission state.
func (p *Prober) IsHealthy(node string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.state[node]
	return ok && st.healthy
}

// ReportFailure books one failed interaction (probe or proxied request)
// with a replica, ejecting it once FailAfter consecutive failures
// accumulate. The proxy calls this on transport errors so live traffic
// trips the breaker between sweeps.
func (p *Prober) ReportFailure(node string) {
	failAfter, _, _ := p.defaults()
	p.mu.Lock()
	st, ok := p.state[node]
	if !ok || !st.healthy {
		if ok {
			st.successes = 0 // a failure while ejected restarts recovery
		}
		p.mu.Unlock()
		return
	}
	st.failures++
	tripped := st.failures >= failAfter
	if tripped {
		st.healthy = false
		st.failures = 0
		st.successes = 0
		p.notify.Lock()
	}
	p.mu.Unlock()
	if tripped {
		defer p.notify.Unlock()
		if p.Metrics != nil {
			p.Metrics.BreakerTrips.Add(1)
		}
		if p.OnEject != nil {
			p.OnEject(node)
		}
	}
}

// ReportSuccess books one successful interaction: it clears a healthy
// replica's failure streak and advances an ejected replica toward
// readmission (probe successes only — Sweep calls this; the proxy never
// routes to ejected replicas, so its successes always land on the healthy
// branch).
func (p *Prober) ReportSuccess(node string) {
	_, recoverAfter, _ := p.defaults()
	p.mu.Lock()
	st, ok := p.state[node]
	if !ok {
		p.mu.Unlock()
		return
	}
	if st.healthy {
		st.failures = 0
		p.mu.Unlock()
		return
	}
	st.successes++
	admitted := st.successes >= recoverAfter
	if admitted {
		st.healthy = true
		st.failures = 0
		st.successes = 0
		p.notify.Lock()
	}
	p.mu.Unlock()
	if admitted {
		defer p.notify.Unlock()
		if p.OnAdmit != nil {
			p.OnAdmit(node)
		}
	}
}

// Sweep probes every tracked replica once, feeding outcomes into the
// breaker state. Probes against ejected replicas are half-open trials and
// are booked as BreakerProbes.
func (p *Prober) Sweep(ctx context.Context) {
	for _, node := range p.Tracked() {
		healthy := p.IsHealthy(node)
		if !healthy && p.Metrics != nil {
			p.Metrics.BreakerProbes.Add(1)
		}
		if err := p.Probe(ctx, node); err != nil {
			p.ReportFailure(node)
		} else {
			p.ReportSuccess(node)
		}
	}
}

// Run sweeps at Interval until ctx is done. Call in a goroutine.
func (p *Prober) Run(ctx context.Context) {
	_, _, interval := p.defaults()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			p.Sweep(ctx)
		}
	}
}
