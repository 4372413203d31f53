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
// tracing enabled and returns the sorted JSONL trace. The tracer is reset after profiling so the trace covers exactly the
// evaluation run, mirroring how cedar.Verify and exp.runPipeline scope
// traces to a single run.
func tracedRun(t *testing.T, seed int64, workers int, faultRate float64, gen func() []*claim.Document, profDocs []*claim.Document) ([]byte, *trace.Tracer) {
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
	return buf.Bytes(), tracer
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
	raw, tracer := tracedRun(t, 404, 4, 0.2, gen, profDocs)

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
