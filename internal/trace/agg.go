package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/fee"
)

// Rollup accumulates the attempt spans of one group (a method or a model):
// counts, token and fee totals, and latency quantiles over the simulated
// per-attempt latency.
type Rollup struct {
	Name             string        `json:"name"`
	Attempts         int           `json:"attempts"`
	Errors           int           `json:"errors"`
	PromptTokens     int           `json:"ptok"`
	CompletionTokens int           `json:"ctok"`
	Fee              fee.Fee       `json:"fee"`
	P50              time.Duration `json:"p50_ns"`
	P95              time.Duration `json:"p95_ns"`
	P99              time.Duration `json:"p99_ns"`
}

// KindCount is the number of spans of one kind in a trace.
type KindCount struct {
	Kind string `json:"kind"`
	N    int    `json:"n"`
}

// OutcomeCount is the number of verification attempts ending in one outcome
// ("verified", "implausible", or a transport class).
type OutcomeCount struct {
	Outcome string `json:"outcome"`
	N       int    `json:"n"`
}

// Summary is the aggregate view over a span stream: per-method and per-model
// rollups of the attempt spans, outcome tallies of the verification attempts,
// and event counts per kind.
type Summary struct {
	Spans    int            `json:"spans"`
	Attempts int            `json:"attempts"`
	Fee      fee.Fee        `json:"fee"`
	ByMethod []Rollup       `json:"by_method"`
	ByModel  []Rollup       `json:"by_model"`
	Outcomes []OutcomeCount `json:"outcomes"`
	Kinds    []KindCount    `json:"kinds"`
}

// Aggregate folds a span stream into a Summary. Anonymous attempt spans
// (zero Key, e.g. profiling traffic) roll up under the method name
// "(untracked)".
func Aggregate(spans []Span) Summary {
	sum := Summary{Spans: len(spans)}
	byMethod := map[string]*Rollup{}
	byModel := map[string]*Rollup{}
	latByMethod := map[string][]time.Duration{}
	latByModel := map[string][]time.Duration{}
	outcomes := map[string]int{}
	kinds := map[string]int{}
	for _, s := range spans {
		kinds[s.Kind]++
		switch s.Kind {
		case KindAttempt:
			sum.Attempts++
			sum.Fee += s.Fee
			method := s.Method
			if method == "" {
				method = "(untracked)"
			}
			for _, g := range []struct {
				m   map[string]*Rollup
				lat map[string][]time.Duration
				key string
			}{
				{byMethod, latByMethod, method},
				{byModel, latByModel, s.Model},
			} {
				r := g.m[g.key]
				if r == nil {
					r = &Rollup{Name: g.key}
					g.m[g.key] = r
				}
				r.Attempts++
				if s.Outcome != OutcomeOK {
					r.Errors++
				}
				r.PromptTokens += s.PromptTokens
				r.CompletionTokens += s.CompletionTokens
				r.Fee += s.Fee
				g.lat[g.key] = append(g.lat[g.key], s.Latency)
			}
		case KindOutcome:
			outcomes[s.Outcome]++
		}
	}
	sum.ByMethod = finishRollups(byMethod, latByMethod)
	sum.ByModel = finishRollups(byModel, latByModel)
	for o, n := range outcomes {
		sum.Outcomes = append(sum.Outcomes, OutcomeCount{Outcome: o, N: n})
	}
	sort.Slice(sum.Outcomes, func(i, j int) bool { return sum.Outcomes[i].Outcome < sum.Outcomes[j].Outcome })
	for k, n := range kinds {
		sum.Kinds = append(sum.Kinds, KindCount{Kind: k, N: n})
	}
	sort.Slice(sum.Kinds, func(i, j int) bool { return sum.Kinds[i].Kind < sum.Kinds[j].Kind })
	return sum
}

func finishRollups(m map[string]*Rollup, lat map[string][]time.Duration) []Rollup {
	out := make([]Rollup, 0, len(m))
	for name, r := range m {
		ls := lat[name]
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		r.P50 = quantile(ls, 0.50)
		r.P95 = quantile(ls, 0.95)
		r.P99 = quantile(ls, 0.99)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// quantile returns the q-th quantile of a sorted duration slice using the
// nearest-rank method (exact, order-stable — no interpolation arithmetic to
// drift across platforms).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Table renders the summary as a text report: the per-method and per-model
// rollups (attempts, errors, tokens, fee, latency quantiles), outcome
// tallies, and event counts.
func (s Summary) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d spans, %d model attempts, $%.4f total fee\n", s.Spans, s.Attempts, s.Fee.Dollars())
	writeRollups := func(title string, rs []Rollup) {
		if len(rs) == 0 {
			return
		}
		fmt.Fprintf(&b, "\n%-18s %8s %6s %9s %9s %10s %10s %10s %10s\n",
			title, "attempts", "errs", "ptok", "ctok", "fee($)", "p50", "p95", "p99")
		for _, r := range rs {
			fmt.Fprintf(&b, "%-18s %8d %6d %9d %9d %10.4f %10v %10v %10v\n",
				r.Name, r.Attempts, r.Errors, r.PromptTokens, r.CompletionTokens, r.Fee.Dollars(),
				r.P50.Round(time.Millisecond), r.P95.Round(time.Millisecond), r.P99.Round(time.Millisecond))
		}
	}
	writeRollups("method", s.ByMethod)
	writeRollups("model", s.ByModel)
	if len(s.Outcomes) > 0 {
		b.WriteString("\noutcomes:")
		for _, o := range s.Outcomes {
			fmt.Fprintf(&b, " %s=%d", o.Outcome, o.N)
		}
		b.WriteByte('\n')
	}
	if len(s.Kinds) > 0 {
		b.WriteString("events:")
		for _, k := range s.Kinds {
			fmt.Fprintf(&b, " %s=%d", k.Kind, k.N)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Manifest describes the run a trace belongs to: the seed, worker count,
// corpus size, and the full option set that produced it. It is exported with
// the summary (not the JSONL span stream) because it names configuration —
// the worker count — that the determinism contract deliberately excludes
// from the byte-identical trace.
type Manifest struct {
	Seed    int64 `json:"seed"`
	Workers int   `json:"workers"`
	Docs    int   `json:"docs"`
	Claims  int   `json:"claims"`
	// Options is the run's full configuration (e.g. cedar.Options),
	// serialized as-is.
	Options any `json:"options,omitempty"`
}

// JSON renders the manifest as a single JSON line.
func (m Manifest) JSON() string {
	raw, err := json.Marshal(m)
	if err != nil {
		return fmt.Sprintf(`{"seed":%d,"error":%q}`, m.Seed, err.Error())
	}
	return string(raw)
}
