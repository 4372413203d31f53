package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestAllocCeilingReplicaUnary pins the allocations of one POST /v1/verify
// through a replica's handler over a stub backend, request and recorder
// included. With encoding/json on both sides of the handler it spent 59; the
// ceiling is 60 % of that.
func TestAllocCeilingReplicaUnary(t *testing.T) {
	srv, _ := newTestServer(t, Config{Backend: tagBackend("stub"), BatchWait: -1})
	const body = `{"doc_id":"alloc","claims":[{"id":"c1","sentence":"The value is 1.","value":"1"}]}`
	run := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/verify", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	run()
	ceiling := 35.0
	if raceEnabled {
		// The race detector's sync.Pool drops a quarter of its Puts, so the
		// request's pooled body and response buffers are now and then
		// allocated anew; the ceiling is the serving build's.
		ceiling += 4
	}
	got := testing.AllocsPerRun(500, run)
	t.Logf("%.0f allocations per unary request", got)
	if got > ceiling {
		t.Errorf("%.0f allocations per unary request, ceiling %.0f", got, ceiling)
	}
}

// relayedVerdict is a replica's verdict line as the coordinator reads it.
const relayedVerdict = `{"event":"verdict","doc_id":"d-1","index":0,"claim":{"id":"c1","correct":true,"verified":true,"method":"oneshot-gpt3.5","query":"SELECT \"fatal_accidents_00_14\" FROM \"airlines\" WHERE \"airline\" = 'Malaysia Airlines'","attempts":1},"review_id":"9c9bb38022c7d8b6"}`

// TestAllocCeilingRelayedEvent pins the allocations of relaying one stream
// event: the coordinator files the replica's line under its document and
// writes it to its client. json.Unmarshal and json.Encoder spent 17; the
// ceiling is 60 % of that.
func TestAllocCeilingRelayedEvent(t *testing.T) {
	line := []byte(relayedVerdict)
	rec := httptest.NewRecorder()
	sw := newStreamWriter(rec)
	run := func() {
		d := &streamDoc{claims: 1}
		x := &exchangeReply{docs: []*streamDoc{d}}
		if !x.line(line) || len(d.verdicts) != 1 {
			t.Fatalf("line not filed: %+v", x.fault)
		}
		sw.emit(&d.verdicts[0])
		sw.flush()
		rec.Body.Reset()
	}
	run()
	if got := rec.Body.Len(); got != 0 {
		t.Fatal("recorder not reset")
	}
	got := testing.AllocsPerRun(500, run)
	t.Logf("%.0f allocations per relayed event", got)
	if got > 10 {
		t.Errorf("%.0f allocations per relayed event, ceiling 10", got)
	}
}
