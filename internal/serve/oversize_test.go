package serve

import (
	"io"
	"net/http"
	"strings"
	"testing"
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

// A replica's own 413 (its limit can bind where the coordinator's did not:
// a routed request is re-encoded) comes back through the coordinator as the
// replica wrote it.
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
