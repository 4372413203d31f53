package cedar

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/claim"
	"repro/internal/fee"
	"repro/internal/trace"
)

// The stream-determinism property (DESIGN.md §14): the same corpus verified
// as one batch, streamed one document at a time in arrival order, and
// streamed in a shuffled arrival order must produce bit-identical verdicts,
// identical quality partitions, and byte-identical normalized traces — at
// workers {1, 8} × fault rates {0, 0.2}. Streaming is a delivery mode, never
// a behavioral fork.

// streamSessionRun verifies clones of evalDocs through one Stream session in
// the given arrival order, returning results re-indexed to the original
// document order plus the merged session trace.
func streamSessionRun(t *testing.T, workers int, faultRate float64, profDocs, evalDocs []*Document, order []int) storeRunResult {
	t.Helper()
	tracer := NewTracer()
	sys, err := New(Options{
		Seed:      404,
		Workers:   workers,
		FaultRate: faultRate,
		Tracer:    tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ProfileOn(claim.CloneDocuments(profDocs)); err != nil {
		t.Fatal(err)
	}
	docs := claim.CloneDocuments(evalDocs)

	st := sys.NewStream(2)
	collected := make(chan []StreamResult, 1)
	go func() {
		var rs []StreamResult
		for r := range st.Results() {
			rs = append(rs, r)
		}
		collected <- rs
	}()
	for _, idx := range order {
		if err := st.Submit(docs[idx]); err != nil {
			t.Error(err)
		}
	}
	st.Close()
	outcomes := <-collected
	if err := st.Submit(docs[0]); err != ErrStreamClosed {
		t.Errorf("Submit after Close = %v, want ErrStreamClosed", err)
	}

	if len(outcomes) != len(order) {
		t.Fatalf("streamed %d documents, got %d outcomes", len(order), len(outcomes))
	}
	var report Report
	var fees fee.Fee
	for i, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("outcome %d: %v", i, o.Err)
		}
		if o.Index != i || o.Doc != docs[order[i]] {
			t.Fatalf("outcome %d delivered out of arrival order (index %d)", i, o.Index)
		}
		report.Claims += o.Report.Claims
		fees += fee.FromDollars(o.Report.Dollars)
		report.Calls += o.Report.Calls
		report.Verified += o.Report.Verified
		report.Flagged += o.Report.Flagged
	}
	report.Dollars = fees.Dollars()
	// Quality over the full annotated corpus, like a batch run reports it.
	report.Quality = Evaluate(docs)

	var results []claim.Result
	for _, d := range docs { // original document order, not arrival order
		for _, c := range d.Claims {
			results = append(results, c.Result)
		}
	}
	return storeRunResult{report: report, results: results, spans: st.Spans()}
}

// batchSessionRun is the comparison baseline: one Verify call over the corpus.
func batchSessionRun(t *testing.T, workers int, faultRate float64, profDocs, evalDocs []*Document) storeRunResult {
	t.Helper()
	tracer := NewTracer()
	sys, err := New(Options{
		Seed:      404,
		Workers:   workers,
		FaultRate: faultRate,
		Tracer:    tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ProfileOn(claim.CloneDocuments(profDocs)); err != nil {
		t.Fatal(err)
	}
	docs := claim.CloneDocuments(evalDocs)
	rep, err := sys.Verify(docs)
	if err != nil {
		t.Fatal(err)
	}
	var results []claim.Result
	for _, d := range docs {
		for _, c := range d.Claims {
			results = append(results, c.Result)
		}
	}
	return storeRunResult{report: rep, results: results, spans: tracer.Spans()}
}

func TestStreamMatchesBatchDeterminism(t *testing.T) {
	docs, err := Benchmark(BenchAggChecker, 505)
	if err != nil {
		t.Fatal(err)
	}
	profDocs, evalDocs := docs[:6], docs[6:12]

	identity := make([]int, len(evalDocs))
	shuffled := make([]int, len(evalDocs))
	for i := range identity {
		identity[i] = i
		shuffled[i] = len(evalDocs) - 1 - i // reverse arrival
	}
	shuffled[0], shuffled[2] = shuffled[2], shuffled[0]

	for _, workers := range []int{1, 8} {
		for _, rate := range []float64{0, 0.2} {
			workers, rate := workers, rate
			t.Run(fmt.Sprintf("workers=%d/rate=%v", workers, rate), func(t *testing.T) {
				batch := batchSessionRun(t, workers, rate, profDocs, evalDocs)
				batchTrace := normalizedJSONL(t, batch.spans)
				if len(batch.spans) == 0 || len(batchTrace) == 0 {
					t.Fatal("batch baseline produced no trace")
				}

				for name, order := range map[string][]int{"arrival": identity, "shuffled": shuffled} {
					streamed := streamSessionRun(t, workers, rate, profDocs, evalDocs, order)
					assertSameResults(t, "batch vs stream/"+name, batch.results, streamed.results)
					if batch.report.Quality != streamed.report.Quality {
						t.Errorf("stream/%s quality diverged:\n batch  %v\n stream %v",
							name, batch.report.Quality, streamed.report.Quality)
					}
					if batch.report.Claims != streamed.report.Claims || batch.report.Calls != streamed.report.Calls {
						t.Errorf("stream/%s accounting diverged: claims %d vs %d, calls %d vs %d", name,
							batch.report.Claims, streamed.report.Claims, batch.report.Calls, streamed.report.Calls)
					}
					if batch.report.Dollars != streamed.report.Dollars {
						t.Errorf("stream/%s fees diverged: $%v vs $%v", name, batch.report.Dollars, streamed.report.Dollars)
					}
					if got := normalizedJSONL(t, streamed.spans); !bytes.Equal(batchTrace, got) {
						t.Errorf("stream/%s normalized trace not byte-identical to batch (%d vs %d bytes)",
							name, len(batchTrace), len(got))
					}
					// The raw streamed trace must carry the arrival spans the
					// normalizer strips.
					admits := 0
					for _, sp := range streamed.spans {
						if sp.Kind == trace.KindStreamAdmit {
							admits++
						}
					}
					if admits != len(order) {
						t.Errorf("stream/%s recorded %d stream_admit spans, want %d", name, admits, len(order))
					}
				}
			})
		}
	}
}
