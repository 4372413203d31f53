package serve

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// oversizeClaims is a well-formed verify body one claim too long: before the
// limit was checked the LimitReader cut it at 8 MiB and the decoder answered
// 400 "unexpected EOF" for valid JSON.
func oversizeClaims() string {
	return `{"claims":[{"sentence":"The answer is 42.` + strings.Repeat(" ", maxBodyBytes) + `","value":"42"}]}`
}

// chunked hides a body's length from net/http, so the request goes out with
// no Content-Length and the server finds the limit only by reading.
func chunked(body string) io.Reader { return struct{ io.Reader }{strings.NewReader(body)} }

func postBody(t *testing.T, url string, body io.Reader) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func wantTooLarge(t *testing.T, resp *http.Response) {
	t.Helper()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != CodeTooLarge {
		t.Errorf("error code = %q, want %q", code, CodeTooLarge)
	}
}

// Oversize bodies answer 413 on every verify route of both tiers, whether
// the length is declared or found by reading, and nothing reaches a backend.
func TestOversizeBodyAnswers413(t *testing.T) {
	be := &gatedBackend{}
	_, replica := newTestServer(t, Config{Backend: be, BatchWait: -1})
	tier := newFakeTier(t, CoordinatorConfig{}, answer(200, `{}`))
	unary := oversizeClaims()
	batch := `{"documents":[` + unary + `]}`
	for _, tc := range []struct{ name, url, body string }{
		{"replica unary", replica.URL + "/v1/verify", unary},
		{"replica batch", replica.URL + "/v1/verify/batch", batch},
		{"replica stream", replica.URL + "/v1/verify/stream", unary + "\n"},
		{"coordinator unary", tier.ts.URL + "/v1/verify", unary},
		{"coordinator batch", tier.ts.URL + "/v1/verify/batch", batch},
		{"coordinator stream", tier.ts.URL + "/v1/verify/stream", unary + "\n"},
	} {
		t.Run(tc.name+" declared", func(t *testing.T) {
			wantTooLarge(t, postBody(t, tc.url, strings.NewReader(tc.body)))
		})
		if strings.HasSuffix(tc.name, "stream") {
			continue // a stream of undeclared length has answered 200 by then; below
		}
		t.Run(tc.name+" chunked", func(t *testing.T) {
			wantTooLarge(t, postBody(t, tc.url, chunked(tc.body)))
		})
	}
	if sizes := be.batchSizes(); len(sizes) != 0 {
		t.Errorf("backend ran %v batches for oversize requests, want none", sizes)
	}
	// A body at the limit is still decoded (and is then a plain bad request:
	// the padding is not JSON).
	resp := postBody(t, replica.URL+"/v1/verify", strings.NewReader(strings.Repeat(" ", maxBodyBytes)))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("body of exactly the limit: status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// A stream that crosses the limit as it is read has already committed its
// 200: the documents before the limit are answered, then a too_large error
// event and the summary close the stream.
func TestStreamOversizeMidStream(t *testing.T) {
	be := &gatedBackend{}
	_, ts := newTestServer(t, Config{Backend: be, BatchWait: -1})
	body := streamDocLine("d0", "1") + "\n" + oversizeClaims() + "\n"
	resp := postBody(t, ts.URL+"/v1/verify/stream", chunked(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (the limit is found mid-stream)", resp.StatusCode)
	}
	verdicts, errs, sum := splitEvents(t, readEvents(t, resp))
	if len(verdicts) != 1 || verdicts[0].DocID != "d0" {
		t.Fatalf("verdicts = %+v, want exactly d0's", verdicts)
	}
	if len(errs) != 1 || errs[0].Error == nil || errs[0].Error.Code != CodeTooLarge {
		t.Fatalf("errors = %+v, want one too_large", errs)
	}
	if sum.Docs != 1 {
		t.Errorf("summary = %+v, want docs=1", sum)
	}
}

// A replica's own 413 (a replica may refuse what the coordinator admitted)
// comes back through the coordinator as the replica wrote it.
func TestCoordinatorRelaysReplica413(t *testing.T) {
	envelope := errorEnvelope(CodeTooLarge, tooLargeMessage)
	tier := newFakeTier(t, CoordinatorConfig{}, answer(http.StatusRequestEntityTooLarge, envelope))
	status, body := do(t, "POST", tier.ts.URL+"/v1/verify", claimBody)
	if status != http.StatusRequestEntityTooLarge || body != envelope {
		t.Fatalf("relayed %d %q, want 413 %q", status, body, envelope)
	}
	status, body = do(t, "POST", tier.ts.URL+"/v1/verify/batch", `{"documents":[`+claimBody+`]}`)
	if status != http.StatusRequestEntityTooLarge || body != envelope {
		t.Fatalf("batch relayed %d %q, want 413 %q", status, body, envelope)
	}
}

// A replica answer longer than the coordinator buffers (8 MiB, as a verdict
// reply to a batch of a few MiB can be) is never relayed cut: the caller gets
// a 502 replica_lost envelope, not a 200 with verdicts missing. The replica
// answered, so its breaker is not fed and it keeps serving other requests.
func TestCoordinatorOversizeReplyIs502(t *testing.T) {
	huge := `{"documents":[` + strings.Repeat(" ", 8<<20) + `]}`
	tier := newFakeTier(t, CoordinatorConfig{}, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/verify/batch" {
			answer(http.StatusOK, huge)(w, r)
			return
		}
		answer(http.StatusOK, `{"doc_id":"d","claims":[]}`)(w, r)
	})
	for i := 0; i < 3; i++ { // more than the breaker's default FailAfter
		status, body := do(t, "POST", tier.ts.URL+"/v1/verify/batch", `{"documents":[`+claimBody+`]}`)
		var env ErrorBody
		if err := json.Unmarshal([]byte(body), &env); status != http.StatusBadGateway || err != nil || env.Error.Code != CodeReplicaLost {
			t.Fatalf("oversize reply relayed as %d (%d bytes), want 502 %s", status, len(body), CodeReplicaLost)
		}
		if !strings.Contains(env.Error.Message, "8 MiB") {
			t.Errorf("message %q does not name the response cap", env.Error.Message)
		}
	}
	if status, body := do(t, "POST", tier.ts.URL+"/v1/verify", claimBody); status != http.StatusOK {
		t.Errorf("after oversize replies, unary answered %d %s, want 200 from the same replica", status, body)
	}
}

// lockedLog is a server ErrorLog's sink, written by connection goroutines.
type lockedLog struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// A stream that stops reading its body early — here at the size limit —
// returns with the rest of the body unread. Delaying the handler's return
// lets the client's last bytes arrive first, which is how net/http used to
// log a recovered "invalid concurrent Body.Read call" panic: it read the
// remainder after the handler, reached the body's end after aborting the
// connection's background read, so the end started a new one, and the next
// request's read on that connection panicked. On both tiers the answer must
// be complete and the server's log free of panics.
func TestStreamEarlyStopLeavesNoServerPanic(t *testing.T) {
	replica := newReplica(t, Config{Backend: &gatedBackend{}, BatchWait: -1})
	coord, _ := newTestCoordinator(t, CoordinatorConfig{}, replica)
	for _, tier := range []struct {
		name string
		h    http.Handler
	}{{"replica", replica.srv}, {"coordinator", coord}} {
		t.Run(tier.name, func(t *testing.T) {
			var errs lockedLog
			ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				tier.h.ServeHTTP(w, r)
				time.Sleep(20 * time.Millisecond)
			}))
			ts.Config.ErrorLog = log.New(&errs, "", 0)
			ts.Start()
			body := streamDocLine("d0", "1") + "\n" + oversizeClaims() + "\n"
			for i := 0; i < 3; i++ {
				// A connection of its own: the server may close it after
				// the reply, and a client reusing it would race that close.
				tr := &http.Transport{}
				resp, err := (&http.Client{Transport: tr}).Post(ts.URL+"/v1/verify/stream", "application/x-ndjson", chunked(body))
				if err != nil {
					t.Fatal(err)
				}
				_, errEvents, sum := splitEvents(t, readEvents(t, resp))
				tr.CloseIdleConnections()
				if len(errEvents) != 1 || errEvents[0].Error.Code != CodeTooLarge || sum.Docs != 1 {
					t.Fatalf("request %d: errors %+v, summary %+v; want one too_large and docs=1", i, errEvents, sum)
				}
			}
			ts.Close()
			if log := errs.String(); strings.Contains(log, "panic serving") {
				t.Fatalf("server log:\n%s", log)
			}
		})
	}
}
