package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fee"
	"repro/internal/serve"
)

// TestStreamedMatchesUnaryRuns is the cmd-level half of the streaming
// determinism contract: documents pushed through POST /v1/verify/stream get
// bit-identical verdicts — over the real cedar.System backend — to the same
// (doc_id, claims) POSTed unary, and the stream's fee summary equals the sum
// of the unary runs. Streamed documents are ordinary micro-batches; arrival
// via a stream changes latency shape, never answers.
func TestStreamedMatchesUnaryRuns(t *testing.T) {
	csvPath := writeCSVFixture(t)
	o := testOptions(t, csvPath)
	o.BatchWait = -1

	srv, closeSys, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSys()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	docs := []serve.DocumentInput{
		{DocID: "stream-a", Claims: testClaims},
		{DocID: "stream-b", Claims: testClaims[:1]},
	}
	var lines []string
	for _, d := range docs {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	resp, err := http.Post(ts.URL+"/v1/verify/stream", "application/x-ndjson",
		strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d, want 200", resp.StatusCode)
	}

	byDoc := map[string][]serve.ClaimResult{}
	var sum *serve.StreamSummary
	dec := json.NewDecoder(resp.Body)
	for {
		var ev serve.StreamEvent
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		switch ev.Event {
		case "verdict":
			byDoc[ev.DocID] = append(byDoc[ev.DocID], *ev.Claim)
		case "error":
			t.Fatalf("stream error event: %+v", ev.Error)
		case "summary":
			sum = ev.Summary
		}
	}
	if sum == nil || sum.Docs != 2 || sum.Claims != 3 {
		t.Fatalf("stream summary = %+v, want 2 docs / 3 claims", sum)
	}

	// The reference: each document POSTed unary against the same server.
	var unaryDollars fee.Fee
	var unaryCalls int
	for _, d := range docs {
		body, err := json.Marshal(serve.VerifyRequest{DocID: d.DocID, Claims: d.Claims})
		if err != nil {
			t.Fatal(err)
		}
		uresp, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		if uresp.StatusCode != http.StatusOK {
			t.Fatalf("unary status = %d, want 200", uresp.StatusCode)
		}
		var out serve.VerifyResponse
		if err := json.NewDecoder(uresp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		uresp.Body.Close()
		streamed := byDoc[d.DocID]
		if len(streamed) != len(out.Claims) {
			t.Fatalf("doc %s: streamed %d verdicts, unary %d", d.DocID, len(streamed), len(out.Claims))
		}
		for i := range out.Claims {
			if streamed[i] != out.Claims[i] {
				t.Errorf("doc %s claim %d:\n streamed %+v\n unary    %+v", d.DocID, i, streamed[i], out.Claims[i])
			}
		}
		unaryDollars += out.Batch.Dollars
		unaryCalls += out.Batch.Calls
	}
	if sum.Dollars != unaryDollars {
		t.Errorf("stream dollars = %v, unary total %v", sum.Dollars, unaryDollars)
	}
	if sum.Calls != unaryCalls {
		t.Errorf("stream calls = %d, unary total %d", sum.Calls, unaryCalls)
	}
}
