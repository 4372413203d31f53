package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/verify"
)

// tracedRun executes one full profiled pipeline run with attempt-level
// tracing enabled and returns the sorted JSONL trace plus the ledger's call
// count. The tracer is reset after profiling so the trace covers exactly the
// evaluation run, mirroring how cedar.Verify and exp.runPipeline scope
// traces to a single run.
func tracedRun(t *testing.T, seed int64, workers int, faultRate float64, gen func() []*claim.Document, profDocs []*claim.Document) ([]byte, *trace.Tracer, int) {
	t.Helper()
	tracer := trace.New()
	methods, ledger := resilientStack(t, seed, verify.Middleware{FaultRate: faultRate, Retries: 2, Tracer: tracer})
	stats, err := profile.Run(methods, profDocs, ledger)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Methods:        methods,
		Stats:          stats,
		AccuracyTarget: 0.99,
		Seed:           seed,
		Workers:        workers,
		Tracer:         tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	docs := gen()
	ledger.Reset()
	tracer.Reset()
	p.VerifyDocumentsParallel(docs, workers)
	var buf bytes.Buffer
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tracer, ledger.TotalCalls()
}

// TestGoldenTraceDeterministicAcrossWorkers is the tentpole acceptance gate:
// the sorted JSONL trace of a run must be byte-identical across worker
// counts, with and without injected faults. Spans are keyed by attempt
// identity (doc, claim, method, try) and sequenced per key, so scheduling
// order must leave no imprint on the exported stream. The stack deliberately
// excludes the breaker and the cache, whose shared state is order-dependent
// (see DESIGN.md).
func TestGoldenTraceDeterministicAcrossWorkers(t *testing.T) {
	docs, err := data.AggChecker(404)
	if err != nil {
		t.Fatal(err)
	}
	profDocs, evalDocs := docs[:8], docs[8:20]
	gen := func() []*claim.Document { return claim.CloneDocuments(evalDocs) }

	for _, rate := range []float64{0, 0.2} {
		rate := rate
		t.Run(fmt.Sprintf("rate=%v", rate), func(t *testing.T) {
			golden, tracer, calls := tracedRun(t, 404, 1, rate, gen, profDocs)
			if len(golden) == 0 {
				t.Fatal("sequential run produced an empty trace")
			}

			// Cross-check against the ledger: every booked model call must
			// appear as exactly one attempt span (valid here because the
			// golden stack has no breaker shedding calls and no cache).
			attempts := 0
			for _, s := range tracer.Spans() {
				if s.Kind == trace.KindAttempt {
					attempts++
				}
			}
			if attempts != calls {
				t.Errorf("trace has %d attempt spans but the ledger booked %d calls", attempts, calls)
			}

			got, _, _ := tracedRun(t, 404, 8, rate, gen, profDocs)
			if !bytes.Equal(golden, got) {
				t.Errorf("workers=8 trace differs from workers=1 (%d vs %d bytes)", len(got), len(golden))
				diffTraces(t, golden, got)
			}
		})
	}
}

// diffTraces reports the first differing JSONL line to make golden-trace
// failures debuggable without dumping megabytes.
func diffTraces(t *testing.T, want, got []byte) {
	t.Helper()
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			t.Logf("first divergence at line %d:\n want %s\n  got %s", i+1, wl[i], gl[i])
			return
		}
	}
	t.Logf("traces share a %d-line prefix; lengths differ (%d vs %d lines)", n, len(wl), len(gl))
}

// TestTraceSpansAreWellFormed sanity-checks the exported stream: every line
// parses as a span, the stream is sorted by the canonical order, attempt
// spans carry models and seeds, and every traced claim reaches a terminal
// outcome span.
func TestTraceSpansAreWellFormed(t *testing.T) {
	docs, err := data.AggChecker(404)
	if err != nil {
		t.Fatal(err)
	}
	profDocs, evalDocs := docs[:8], docs[8:20]
	gen := func() []*claim.Document { return claim.CloneDocuments(evalDocs) }
	raw, tracer, _ := tracedRun(t, 404, 4, 0.2, gen, profDocs)

	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) != tracer.Len() {
		t.Fatalf("JSONL has %d lines, tracer holds %d spans", len(lines), tracer.Len())
	}
	for i, line := range lines {
		var s trace.Span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("line %d is not a valid span: %v", i+1, err)
		}
	}
	spans := tracer.Spans()
	perClaim := map[string]bool{}
	for i, s := range spans {
		if i > 0 && spans[i].Less(spans[i-1]) {
			t.Errorf("spans %d and %d out of canonical order", i-1, i)
		}
		switch s.Kind {
		case trace.KindAttempt:
			if s.Model == "" {
				t.Errorf("attempt span %d has no model", i)
			}
			if s.Key.Method == "" {
				t.Errorf("attempt span %d has no attempt identity", i)
			}
		case trace.KindOutcome:
			perClaim[fmt.Sprintf("%s/%d", s.Doc, s.Claim)] = true
		}
	}
	if want := claim.TotalClaims(gen()); len(perClaim) != want {
		t.Errorf("outcome spans cover %d claims, corpus has %d", len(perClaim), want)
	}
}
