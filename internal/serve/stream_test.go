package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/claim"
)

// reviewBackend verifies claims with verdicts keyed on the claim value, so
// tests can provoke review-worthy ambiguity deterministically: "fail" is a
// transport-failed claim (disagreement 1.0), "3" a verdict that needed three
// attempts (disagreement 2/3), anything else a clean first-try verification
// (disagreement 0, never reviewed).
func reviewBackend(docs []*claim.Document) (RunStats, error) {
	n := 0
	for _, d := range docs {
		for _, c := range d.Claims {
			n++
			switch c.Value {
			case "fail":
				c.Result.Method = claim.MethodFailed
				c.Result.Failure = "timeout"
				c.Result.Attempts = 2
				c.Result.Correct = true
			case "3":
				c.Result.Verified = true
				c.Result.Correct = true
				c.Result.Method = "agg"
				c.Result.Attempts = 3
			default:
				c.Result.Verified = true
				c.Result.Correct = true
				c.Result.Method = "fake"
				c.Result.Attempts = 1
			}
		}
	}
	return RunStats{Claims: n, Dollars: 0.02 * float64(n), Calls: n}, nil
}

func streamDocLine(docID string, values ...string) string {
	var claims []string
	for _, v := range values {
		claims = append(claims, fmt.Sprintf(`{"sentence":"The value is %s.","value":%q}`, v, v))
	}
	return fmt.Sprintf(`{"doc_id":%q,"claims":[%s]}`, docID, strings.Join(claims, ","))
}

func postStream(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/verify/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readEvents(t *testing.T, resp *http.Response) []StreamEvent {
	t.Helper()
	defer resp.Body.Close()
	var evs []StreamEvent
	dec := json.NewDecoder(resp.Body)
	for {
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// splitEvents partitions a stream into verdicts, errors, and the summary.
func splitEvents(t *testing.T, evs []StreamEvent) (verdicts, errors []StreamEvent, sum StreamSummary) {
	t.Helper()
	if len(evs) == 0 || evs[len(evs)-1].Event != "summary" {
		t.Fatalf("stream did not end with a summary: %+v", evs)
	}
	sum = *evs[len(evs)-1].Summary
	for _, ev := range evs[:len(evs)-1] {
		switch ev.Event {
		case "verdict":
			verdicts = append(verdicts, ev)
		case "error":
			errors = append(errors, ev)
		default:
			t.Fatalf("unexpected event %+v", ev)
		}
	}
	return verdicts, errors, sum
}

// A streamed corpus answers with one verdict event per claim, in arrival
// order, each identical to what the unary route reports for the same claim,
// then a summary covering the whole stream.
func TestStreamVerifyDeliversVerdictsInOrder(t *testing.T) {
	be := &gatedBackend{}
	_, ts := newTestServer(t, Config{Backend: be, BatchWait: -1})
	body := streamDocLine("d0", "1", "2") + "\n" + streamDocLine("d1", "3") + "\n" + streamDocLine("d2", "4") + "\n"
	resp := postStream(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content-type = %q, want application/x-ndjson", ct)
	}
	verdicts, errs, sum := splitEvents(t, readEvents(t, resp))
	if len(errs) != 0 {
		t.Fatalf("unexpected error events: %+v", errs)
	}
	wantOrder := []struct {
		doc, claim string
		index      int
	}{
		{"d0", "c1", 0}, {"d0", "c2", 0}, {"d1", "c1", 1}, {"d2", "c1", 2},
	}
	if len(verdicts) != len(wantOrder) {
		t.Fatalf("verdicts = %d, want %d", len(verdicts), len(wantOrder))
	}
	for i, want := range wantOrder {
		ev := verdicts[i]
		if ev.DocID != want.doc || ev.Index != want.index || ev.Claim == nil || ev.Claim.ID != want.claim {
			t.Errorf("verdict[%d] = %+v, want doc %s claim %s index %d", i, ev, want.doc, want.claim, want.index)
		}
		if ev.Claim != nil && (!ev.Claim.Verified || !ev.Claim.Correct || ev.Claim.Method != "fake") {
			t.Errorf("verdict[%d] claim = %+v, not the backend's verdict", i, ev.Claim)
		}
	}
	if sum.Docs != 3 || sum.Claims != 4 || sum.Reviewed != 0 {
		t.Errorf("summary = %+v, want docs=3 claims=4 reviewed=0", sum)
	}
	if sum.Dollars <= 0 || sum.Calls != 4 {
		t.Errorf("summary accounting = %+v, want positive dollars and 4 calls", sum)
	}
}

// A streamed document's verdicts reach the client when its own micro-batch
// lands, not when the stream's last one does: document 0's verdict is read
// while document 1's batch is still held inside the backend.
func TestStreamFirstVerdictBeforeLastBatch(t *testing.T) {
	be := &gatedBackend{entered: make(chan struct{}, 2), gate: make(chan struct{})}
	_, ts := newTestServer(t, Config{Backend: be, BatchWait: -1, MaxBatch: 1})
	body := streamDocLine("d0", "1") + "\n" + streamDocLine("d1", "2") + "\n"
	// Response headers go out with the first event, so the request cannot
	// return before document 0's batch is released.
	respCh := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/verify/stream", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Error(err)
		}
		respCh <- resp
	}()

	<-be.entered          // document 0's batch
	be.gate <- struct{}{} // release it alone
	<-be.entered          // document 1's batch, now held at the gate
	resp := <-respCh
	if resp == nil {
		t.Fatal("stream request failed")
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var first StreamEvent
	if err := dec.Decode(&first); err != nil {
		t.Fatal(err)
	}
	if first.Event != "verdict" || first.DocID != "d0" || first.Index != 0 {
		t.Fatalf("first event = %+v, want document 0's verdict", first)
	}
	if done := be.batchSizes(); len(done) != 1 {
		t.Fatalf("%d batches finished before the first verdict was read, want 1", len(done))
	}

	close(be.gate) // release document 1
	evs := []StreamEvent{first}
	for {
		var ev StreamEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	verdicts, errs, sum := splitEvents(t, evs)
	if len(errs) != 0 || len(verdicts) != 2 || verdicts[1].DocID != "d1" || verdicts[1].Index != 1 {
		t.Fatalf("events = %+v, want verdicts for d0 then d1", evs)
	}
	if sum.Docs != 2 || sum.Claims != 2 || sum.Calls != 2 || len(sum.Batches) != 2 {
		t.Errorf("summary = %+v, want 2 docs, 2 claims, 2 calls in 2 batches", sum)
	}
}

// The stream window is real backpressure: with the backend wedged, the
// server stops reading the request body after window+1 admissions instead of
// buffering the client's backlog, and the admission queue never grows past
// the window.
func TestStreamBackpressureBoundsInFlight(t *testing.T) {
	be := &gatedBackend{entered: make(chan struct{}, 64), gate: make(chan struct{})}
	srv, ts := newTestServer(t, Config{Backend: be, BatchWait: -1, MaxBatch: 1, StreamWindow: 1})

	pr, pw := io.Pipe()
	const total = 12
	go func() {
		for i := 0; i < total; i++ {
			_, _ = io.WriteString(pw, streamDocLine(fmt.Sprintf("d%d", i), "1")+"\n")
		}
		pw.Close()
	}()
	respCh := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/verify/stream", "application/x-ndjson", pr)
		if err != nil {
			t.Error(err)
			respCh <- nil
			return
		}
		respCh <- resp
	}()

	<-be.entered // first micro-batch is in flight and wedged
	// Give the reader every chance to run ahead; the window must stop it.
	time.Sleep(150 * time.Millisecond)
	if depth := srv.QueueDepth(); depth > 2 {
		t.Errorf("queue depth = %d while wedged; window did not apply backpressure", depth)
	}
	close(be.gate) // release every batch
	resp := <-respCh
	if resp == nil {
		t.Fatal("stream request failed")
	}
	verdicts, errs, sum := splitEvents(t, readEvents(t, resp))
	if len(errs) != 0 || len(verdicts) != total || sum.Docs != total {
		t.Fatalf("after release: %d verdicts, %d errors, summary %+v; want %d verdicts", len(verdicts), len(errs), sum, total)
	}
	for i, ev := range verdicts {
		if ev.Index != i {
			t.Fatalf("verdict[%d].Index = %d; arrival order lost", i, ev.Index)
		}
	}
}

// A client that disconnects mid-stream must not wedge the batcher: admitted
// work completes against buffered result channels, later requests are
// served, and shutdown drains cleanly.
func TestStreamClientDisconnectDoesNotWedgeBatcher(t *testing.T) {
	be := &gatedBackend{entered: make(chan struct{}, 64), gate: make(chan struct{})}
	srv, ts := newTestServer(t, Config{Backend: be, BatchWait: -1, MaxBatch: 1, StreamWindow: 2})

	pr, pw := io.Pipe()
	go func() {
		for i := 0; i < 6; i++ {
			if _, err := io.WriteString(pw, streamDocLine(fmt.Sprintf("d%d", i), "1")+"\n"); err != nil {
				return
			}
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/verify/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errCh <- err
	}()

	<-be.entered // first batch wedged with more documents queued behind it
	cancel()     // client walks away mid-stream
	pw.Close()
	<-errCh        // transport observed the disconnect
	close(be.gate) // let the wedged batches finish

	// The batcher must still serve new requests promptly...
	done := make(chan *http.Response, 1)
	go func() { done <- postVerify(t, ts.URL, claimBody) }()
	select {
	case resp := <-done:
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-disconnect verify status = %d, want 200", resp.StatusCode)
		}
		resp.Body.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("verify after stream disconnect hung: batcher wedged")
	}
	// ...and drain without waiting on the dead client.
	sctx, scancel := contextWithTimeout(5 * time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown after disconnect: %v", err)
	}
}

// A unary client that disconnects mid-run gets dropped without wedging the
// batch loop (its result channel is buffered), and the server keeps serving.
func TestUnaryClientDisconnectDoesNotWedgeBatcher(t *testing.T) {
	be := &gatedBackend{entered: make(chan struct{}, 64), gate: make(chan struct{})}
	srv, ts := newTestServer(t, Config{Backend: be, BatchWait: -1, MaxBatch: 1})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/verify", strings.NewReader(claimBody))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	<-be.entered // the request's batch is in flight
	cancel()     // client disconnects mid-run
	if err := <-errCh; err == nil {
		t.Fatal("expected the canceled request to fail client-side")
	}
	close(be.gate)

	done := make(chan *http.Response, 1)
	go func() { done <- postVerify(t, ts.URL, claimBody) }()
	select {
	case resp := <-done:
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-disconnect verify status = %d, want 200", resp.StatusCode)
		}
		resp.Body.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("verify after unary disconnect hung: batcher wedged")
	}
	sctx, scancel := contextWithTimeout(5 * time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown after disconnect: %v", err)
	}
}

// Malformed input mid-stream ends the stream with an in-band error event;
// verdicts already earned still arrive, and the summary still closes the
// stream.
func TestStreamBadInputMidStream(t *testing.T) {
	be := &gatedBackend{}
	_, ts := newTestServer(t, Config{Backend: be, BatchWait: -1})
	body := streamDocLine("d0", "1") + "\n" + "this is not json\n" + streamDocLine("d2", "2") + "\n"
	resp := postStream(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (stream errors are in-band)", resp.StatusCode)
	}
	verdicts, errs, sum := splitEvents(t, readEvents(t, resp))
	if len(verdicts) != 1 || verdicts[0].DocID != "d0" {
		t.Fatalf("verdicts = %+v, want exactly d0's", verdicts)
	}
	if len(errs) != 1 || errs[0].Error == nil || errs[0].Error.Code != CodeBadRequest {
		t.Fatalf("errors = %+v, want one bad_request", errs)
	}
	if sum.Docs != 1 {
		t.Errorf("summary = %+v, want docs=1", sum)
	}
}

// Ambiguous verdicts flow into the review queue from every verification
// route; stream events carry the review ID inline; the queue lists pending
// items in priority order and resolves idempotently.
func TestReviewQueueEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Backend: BackendFunc(reviewBackend), BatchWait: -1})

	// One streamed document: a failed claim (disagreement 1.0), a
	// three-attempt claim (2/3), and a clean one (never reviewed).
	resp := postStream(t, ts.URL, streamDocLine("d0", "fail", "3", "7")+"\n")
	verdicts, errs, sum := splitEvents(t, readEvents(t, resp))
	if len(errs) != 0 || len(verdicts) != 3 {
		t.Fatalf("stream = %d verdicts %d errors, want 3/0", len(verdicts), len(errs))
	}
	if verdicts[0].ReviewID == "" || verdicts[1].ReviewID == "" || verdicts[2].ReviewID != "" {
		t.Fatalf("review IDs = %q %q %q, want set/set/empty",
			verdicts[0].ReviewID, verdicts[1].ReviewID, verdicts[2].ReviewID)
	}
	if sum.Reviewed != 2 {
		t.Errorf("summary reviewed = %d, want 2", sum.Reviewed)
	}

	// The unary route reviews too.
	uresp := postVerify(t, ts.URL, `{"doc_id":"d1","claims":[{"sentence":"The value is fail.","value":"fail"}]}`)
	if uresp.StatusCode != http.StatusOK {
		t.Fatalf("unary status = %d", uresp.StatusCode)
	}
	uresp.Body.Close()

	// Pending list: priority descending — both failed claims (1.0) outrank
	// the retried claim (2/3); ties break by ID ascending.
	lresp, err := http.Get(ts.URL + "/v1/review")
	if err != nil {
		t.Fatal(err)
	}
	var list ReviewListResponse
	decodeInto(t, lresp, &list)
	if len(list.Items) != 3 || list.Stats.Depth != 3 {
		t.Fatalf("review list = %d items depth %d, want 3/3", len(list.Items), list.Stats.Depth)
	}
	if list.Items[0].Disagreement != 1 || list.Items[1].Disagreement != 1 {
		t.Fatalf("head of queue = %+v, want the failed claims first", list.Items[:2])
	}
	if list.Items[0].ID >= list.Items[1].ID {
		t.Errorf("equal-priority items not ID-ordered: %q then %q", list.Items[0].ID, list.Items[1].ID)
	}
	for _, it := range list.Items[:2] {
		if it.Method != claim.MethodFailed || it.Failure != "timeout" || it.FeeSunk <= 0 {
			t.Errorf("item %+v missing verdict context", it)
		}
	}

	// ?limit truncates deterministically.
	lresp, err = http.Get(ts.URL + "/v1/review?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	var limited ReviewListResponse
	decodeInto(t, lresp, &limited)
	if len(limited.Items) != 1 || limited.Items[0].ID != list.Items[0].ID {
		t.Fatalf("limited list = %+v, want just the head", limited.Items)
	}

	// Resolve is idempotent: the first resolution wins.
	id := verdicts[0].ReviewID
	r1, err := http.Post(ts.URL+"/v1/review/"+id, "application/json",
		strings.NewReader(`{"resolution":"overturned","note":"spot check"}`))
	if err != nil {
		t.Fatal(err)
	}
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("resolve status = %d", r1.StatusCode)
	}
	var it1 map[string]any
	decodeInto(t, r1, &it1)
	if it1["resolution"] != "overturned" || it1["note"] != "spot check" {
		t.Fatalf("resolved item = %+v", it1)
	}
	r2, err := http.Post(ts.URL+"/v1/review/"+id, "application/json",
		strings.NewReader(`{"resolution":"confirmed"}`))
	if err != nil {
		t.Fatal(err)
	}
	var it2 map[string]any
	decodeInto(t, r2, &it2)
	if it2["resolution"] != "overturned" {
		t.Fatalf("second resolve changed the verdict: %+v", it2)
	}

	// Unknown IDs 404; invalid resolutions 400.
	r3, err := http.Post(ts.URL+"/v1/review/ffffffffffffffff", "application/json",
		strings.NewReader(`{"resolution":"confirmed"}`))
	if err != nil {
		t.Fatal(err)
	}
	if r3.StatusCode != http.StatusNotFound || errorCode(t, r3) != CodeNotFound {
		t.Fatalf("unknown id: status %d", r3.StatusCode)
	}
	r4, err := http.Post(ts.URL+"/v1/review/"+verdicts[1].ReviewID, "application/json",
		strings.NewReader(`{"resolution":"maybe"}`))
	if err != nil {
		t.Fatal(err)
	}
	if r4.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad resolution: status %d", r4.StatusCode)
	}
	io.Copy(io.Discard, r4.Body)
	r4.Body.Close()

	// Metrics expose the queue and the stream surface.
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var met MetricsResponse
	decodeInto(t, mresp, &met)
	if met.Review == nil || met.Review.Depth != 2 || met.Review.Resolved != 1 || met.Review.Enqueued != 3 {
		t.Fatalf("metrics review = %+v, want depth=2 resolved=1 enqueued=3", met.Review)
	}
	if met.Stream == nil || met.Stream.Sessions != 1 || met.Stream.Docs != 1 || met.Stream.Window == 0 {
		t.Fatalf("metrics stream = %+v, want sessions=1 docs=1 window>0", met.Stream)
	}
}

// A draining server ends a stream with an in-band draining error, mirroring
// the unary 503.
func TestStreamRejectsWhileDraining(t *testing.T) {
	be := &gatedBackend{}
	srv, ts := newTestServer(t, Config{Backend: be, BatchWait: -1})
	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp := postStream(t, ts.URL, streamDocLine("d0", "1")+"\n")
	verdicts, errs, _ := splitEvents(t, readEvents(t, resp))
	if len(verdicts) != 0 || len(errs) != 1 || errs[0].Error.Code != CodeDraining {
		t.Fatalf("draining stream = %d verdicts, errors %+v; want one draining error", len(verdicts), errs)
	}
}
