package llm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fee"
	"repro/internal/trace"
)

// Ledger accumulates token usage, dollar fees, and simulated wall time per
// model across a verification run. It is safe for concurrent use.
type Ledger struct {
	mu      sync.Mutex
	byModel map[string]*LedgerEntry
}

// LedgerEntry is the accumulated record for one model.
type LedgerEntry struct {
	Model string
	Calls int
	Usage Usage
	Fee   fee.Fee
	Wall  time.Duration
}

// NewLedger constructs an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{byModel: make(map[string]*LedgerEntry)}
}

// Record books one completion against the ledger.
func (l *Ledger) Record(model string, u Usage, latency time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.byModel[model]
	if !ok {
		e = &LedgerEntry{Model: model}
		l.byModel[model] = e
	}
	e.add(LedgerEntry{Calls: 1, Usage: u, Fee: PriceFor(model).Cost(u), Wall: latency})
}

func (e *LedgerEntry) add(o LedgerEntry) {
	e.Calls += o.Calls
	e.Usage = e.Usage.Add(o.Usage)
	e.Fee += o.Fee
	e.Wall += o.Wall
}

// total sums the entries of every model. Every field is an integer, so the
// totals do not depend on the order the models are visited in.
func (l *Ledger) total() LedgerEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t LedgerEntry
	for _, e := range l.byModel {
		t.add(*e)
	}
	return t
}

// TotalFee returns the accumulated fee across all models.
func (l *Ledger) TotalFee() fee.Fee { return l.total().Fee }

// TotalDollars renders TotalFee in dollars.
func (l *Ledger) TotalDollars() float64 { return l.TotalFee().Dollars() }

// TotalCalls returns the number of completions booked.
func (l *Ledger) TotalCalls() int { return l.total().Calls }

// TotalWall returns the accumulated simulated wall time. Multi-stage
// verification is sequential per claim, so summed latency is the simulated
// elapsed time used to derive throughput.
func (l *Ledger) TotalWall() time.Duration { return l.total().Wall }

// TotalUsage returns the accumulated token usage across models.
func (l *Ledger) TotalUsage() Usage { return l.total().Usage }

// Entries returns per-model records sorted by model name.
func (l *Ledger) Entries() []LedgerEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LedgerEntry, 0, len(l.byModel))
	for _, e := range l.byModel {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// Reset clears the ledger.
func (l *Ledger) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.byModel = make(map[string]*LedgerEntry)
}

// String renders a per-model cost report.
func (l *Ledger) String() string {
	var b strings.Builder
	for _, e := range l.Entries() {
		fmt.Fprintf(&b, "%-20s calls=%-5d prompt=%-8d completion=%-8d $%.4f\n",
			e.Model, e.Calls, e.Usage.PromptTokens, e.Usage.CompletionTokens, e.Fee.Dollars())
	}
	fmt.Fprintf(&b, "total: $%.4f over %d calls", l.TotalDollars(), l.TotalCalls())
	return b.String()
}

// Metered wraps a Client so that every completion is booked in the ledger
// and, when tracing is enabled, recorded as one attempt span.
type Metered struct {
	Client Client
	Ledger *Ledger
	Tracer *trace.Tracer
}

// Complete implements Client.
func (m *Metered) Complete(req Request) (Response, error) {
	resp, err := m.Client.Complete(req)
	// Failed attempts are billed when they cost something: a transient 5xx
	// or timeout consumed the tokens even though the content is lost, and a
	// 429 round trip still spent wall time. Only cost-free rejections (a
	// zero Response, e.g. a shed from an open circuit breaker) go unbooked.
	booked := err == nil || resp.Usage.Total() > 0 || resp.Latency > 0
	if m.Ledger != nil && booked {
		m.Ledger.Record(req.Model, resp.Usage, resp.Latency)
	}
	if m.Tracer.Enabled() && booked {
		outcome := trace.OutcomeOK
		if err != nil {
			outcome = trace.OutcomeError
		}
		m.Tracer.Record(trace.Span{
			Key:              req.Attempt,
			Kind:             trace.KindAttempt,
			Model:            req.Model,
			Temperature:      req.Temperature,
			Seed:             req.Seed,
			PromptTokens:     resp.Usage.PromptTokens,
			CompletionTokens: resp.Usage.CompletionTokens,
			Fee:              PriceFor(req.Model).Cost(resp.Usage),
			Latency:          resp.Latency,
			Outcome:          outcome,
		})
	}
	return resp, err
}
