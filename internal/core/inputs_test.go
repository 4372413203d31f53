package core

import (
	"testing"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/schedule"
)

// TestClaimInputsRederivedPerRun pins that what a run prepares per claim —
// masking, value type, parsed value — lives for that run only. The same
// pipeline verifies a corpus, the caller then edits every claim in place
// (each takes its neighbour's sentence, span, context and value) and verifies
// again: the second run must give exactly what a fresh pipeline gives on a
// fresh copy of the edited corpus, at worker counts 1 and 8. Anything kept
// from the first run, on the claim or in the pipeline, would show as the
// first run's queries.
func TestClaimInputsRederivedPerRun(t *testing.T) {
	const seed = 811
	docs, err := data.AggChecker(seed)
	if err != nil {
		t.Fatal(err)
	}
	docs = docs[:12]
	plan := &schedule.Schedule{Steps: []schedule.Step{{Method: "oneshot-gpt3.5", Tries: 2}, {Method: "oneshot-gpt4o", Tries: 1}}}
	pipeline := func(workers int) *Pipeline {
		methods, _ := stack(t, seed)
		p, err := NewWithSchedule(Config{Methods: methods, Seed: seed, Workers: workers}, plan)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	edit := func(docs []*claim.Document) {
		for _, d := range docs {
			first := *d.Claims[0]
			for i, c := range d.Claims {
				next := &first
				if i+1 < len(d.Claims) {
					next = d.Claims[i+1]
				}
				c.Sentence, c.Span, c.Context, c.Value = next.Sentence, next.Span, next.Context, next.Value
				c.Result = claim.Result{}
			}
		}
	}
	for _, workers := range []int{1, 8} {
		reused := claim.CloneDocuments(docs)
		p := pipeline(workers)
		p.VerifyDocumentsParallel(reused, workers)
		firstRun := make(map[string]string)
		for _, d := range reused {
			for _, c := range d.Claims {
				firstRun[d.ID+"/"+c.ID] = c.Result.Query
			}
		}
		edit(reused)
		p.VerifyDocumentsParallel(reused, workers)

		fresh := claim.CloneDocuments(docs)
		edit(fresh)
		pipeline(workers).VerifyDocumentsParallel(fresh, workers)

		moved := 0
		for di, d := range reused {
			for ci, c := range d.Claims {
				if want := fresh[di].Claims[ci].Result; c.Result != want {
					t.Fatalf("workers=%d %s/%s after the edit: %+v; a fresh run gives %+v", workers, d.ID, c.ID, c.Result, want)
				}
				if c.Result.Query != firstRun[d.ID+"/"+c.ID] {
					moved++
				}
			}
		}
		if moved < claim.TotalClaims(reused)/2 {
			t.Fatalf("workers=%d: the edit moved only %d of %d queries; it does not tell a stale run from a fresh one", workers, moved, claim.TotalClaims(reused))
		}
	}
}
