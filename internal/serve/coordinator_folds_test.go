package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

// fakeTier is a set of scriptable replica endpoints behind a coordinator
// whose prober never sweeps (ProbeInterval of an hour), so a replica stays in
// the ring however it behaves. behave[i] scripts the i-th replica in roster
// (sorted URL) order — the order a broadcast visits them.
type fakeTier struct {
	urls   []string
	behave []http.HandlerFunc
	coord  *Coordinator
	ts     *httptest.Server
}

func newFakeTier(t *testing.T, cfg CoordinatorConfig, behave ...http.HandlerFunc) *fakeTier {
	t.Helper()
	tier := &fakeTier{behave: behave}
	rank := map[string]int{} // filled once every listener has a URL
	for range behave {
		var ts *httptest.Server
		ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tier.behave[rank[ts.URL]](w, r)
		}))
		t.Cleanup(ts.Close)
		tier.urls = append(tier.urls, ts.URL)
	}
	sort.Strings(tier.urls)
	for i, u := range tier.urls {
		rank[u] = i
	}
	cfg.RouteKey = testRouteKey
	cfg.DocID = "testdb"
	cfg.ProbeInterval = time.Hour
	cfg.Replicas = tier.urls
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tier.coord = c
	tier.ts = httptest.NewServer(c)
	t.Cleanup(tier.ts.Close)
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	return tier
}

// answer scripts a replica that answers every request with one status and body.
func answer(status int, body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		io.WriteString(w, body)
	}
}

// unreachable scripts a replica that drops the connection without answering.
func unreachable(w http.ResponseWriter, r *http.Request) {
	conn, _, err := w.(http.Hijacker).Hijack()
	if err == nil {
		conn.Close()
	}
}

func errorEnvelope(code, msg string) string {
	b, _ := json.Marshal(ErrorBody{Error: ErrorDetail{Code: code, Message: msg}})
	return string(b)
}

func do(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// The fold rules of the dataset and review routes: what the coordinator
// answers for each combination of replica outcomes.
func TestCoordinatorBroadcastFolds(t *testing.T) {
	created := `{"dataset":{"table":"sales"}}` + "\n"
	rejection := errorEnvelope(CodeBadRequest, "ingest: table \"sales\" collides with a base table")
	notFound := errorEnvelope(CodeNotFound, "no dataset with that name")
	deleted := `{"deleted":"sales"}` + "\n"
	emptyQueue := `{"items":[],"stats":{"depth":0,"enqueued":0,"resolved":0,"dropped":0,"oldest_age_ms":0,"max_priority":0}}`

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		replicas   []http.HandlerFunc
		wantStatus int
		// wantBody is the exact response when non-empty; otherwise the error
		// envelope must carry wantCode and every wantInMessage fragment
		// ("%1" stands for the second replica's URL).
		wantBody      string
		wantCode      string
		wantInMessage []string
	}{
		{
			name: "dataset create: every replica accepts, first answer relayed", method: "POST", path: "/v1/datasets?name=sales", body: "a,b\n1,2\n",
			replicas:   []http.HandlerFunc{answer(200, created), answer(200, `{"dataset":{"table":"other"}}`)},
			wantStatus: 200, wantBody: created,
		},
		{
			name: "dataset create: second replica rejects, its rejection relayed", method: "POST", path: "/v1/datasets?name=sales", body: "a,b\n1,2\n",
			replicas:   []http.HandlerFunc{answer(200, created), answer(400, rejection)},
			wantStatus: 400, wantBody: rejection,
		},
		{
			name: "dataset create: second replica unreachable is a 502 naming it", method: "POST", path: "/v1/datasets?name=sales", body: "a,b\n1,2\n",
			replicas:   []http.HandlerFunc{answer(200, created), unreachable},
			wantStatus: 502, wantCode: CodeInternal, wantInMessage: []string{"replica %1", "re-POST to converge"},
		},
		{
			name: "dataset delete: any 200 is a 200", method: "DELETE", path: "/v1/datasets/sales",
			replicas:   []http.HandlerFunc{answer(404, notFound), answer(200, deleted)},
			wantStatus: 200, wantBody: deleted,
		},
		{
			name: "dataset delete: all 404 is a 404", method: "DELETE", path: "/v1/datasets/sales",
			replicas:   []http.HandlerFunc{answer(404, notFound), answer(404, notFound)},
			wantStatus: 404, wantCode: CodeNotFound,
		},
		{
			name: "dataset delete: an unreachable replica is a 502 naming it", method: "DELETE", path: "/v1/datasets/sales",
			replicas:   []http.HandlerFunc{answer(200, deleted), unreachable},
			wantStatus: 502, wantCode: CodeInternal, wantInMessage: []string{"replica %1", "re-DELETE to converge"},
		},
		{
			name: "dataset get: an unreachable replica is skipped", method: "GET", path: "/v1/datasets/sales",
			replicas:   []http.HandlerFunc{unreachable, answer(200, created)},
			wantStatus: 200, wantBody: created,
		},
		{
			name: "dataset list: a replica's own error is relayed", method: "GET", path: "/v1/datasets",
			replicas:   []http.HandlerFunc{answer(404, notFound), answer(200, created)},
			wantStatus: 404, wantBody: notFound,
		},
		{
			name: "dataset get: every replica unreachable is a 503", method: "GET", path: "/v1/datasets/sales",
			replicas:   []http.HandlerFunc{unreachable, unreachable},
			wantStatus: 503, wantCode: CodeDraining,
		},
		{
			name: "review list: one failing replica fails the list, named", method: "GET", path: "/v1/review",
			replicas:   []http.HandlerFunc{answer(200, emptyQueue), answer(500, errorEnvelope(CodeInternal, "boom"))},
			wantStatus: 502, wantCode: CodeInternal, wantInMessage: []string{"replica %1", "status 500"},
		},
		{
			name: "review list: bad limit is a 400 before any replica is asked", method: "GET", path: "/v1/review?limit=-3",
			replicas:   []http.HandlerFunc{unreachable, unreachable},
			wantStatus: 400, wantCode: CodeBadRequest,
		},
		{
			name: "review resolve: unknown everywhere is a 404", method: "POST", path: "/v1/review/ffff", body: `{"resolution":"confirmed"}`,
			replicas:   []http.HandlerFunc{answer(404, notFound), answer(404, notFound)},
			wantStatus: 404, wantCode: CodeNotFound,
		},
		{
			name: "review resolve: the first replica that knows the item answers", method: "POST", path: "/v1/review/ffff", body: `{"resolution":"confirmed"}`,
			replicas:   []http.HandlerFunc{unreachable, answer(200, `{"id":"ffff","resolution":"confirmed"}`)},
			wantStatus: 200, wantBody: `{"id":"ffff","resolution":"confirmed"}`,
		},
		{
			name: "review resolve: bad resolution is a 400", method: "POST", path: "/v1/review/ffff", body: `{"resolution":"maybe"}`,
			replicas:   []http.HandlerFunc{unreachable},
			wantStatus: 400, wantCode: CodeBadRequest,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tier := newFakeTier(t, CoordinatorConfig{}, tc.replicas...)
			status, body := do(t, tc.method, tier.ts.URL+tc.path, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.wantStatus, body)
			}
			if tc.wantBody != "" {
				if body != tc.wantBody {
					t.Fatalf("body = %q, want %q relayed verbatim", body, tc.wantBody)
				}
				return
			}
			var eb ErrorBody
			if err := json.Unmarshal([]byte(body), &eb); err != nil {
				t.Fatalf("body %q is not an error envelope: %v", body, err)
			}
			if eb.Error.Code != tc.wantCode {
				t.Errorf("error code = %q, want %q", eb.Error.Code, tc.wantCode)
			}
			for _, frag := range tc.wantInMessage {
				if len(tier.urls) > 1 {
					frag = strings.ReplaceAll(frag, "%1", tier.urls[1])
				}
				if !strings.Contains(eb.Error.Message, frag) {
					t.Errorf("error message %q lacks %q", eb.Error.Message, frag)
				}
			}
		})
	}
}

// Dataset DELETE books itself like its sibling routes: a served delete counts
// as a received request and leaves a latency sample.
func TestCoordinatorDatasetDeleteBooksMetrics(t *testing.T) {
	tier := newFakeTier(t, CoordinatorConfig{}, answer(200, `{"deleted":"sales"}`))
	before := fetchCoordMetrics(t, tier.ts.URL).Requests
	if status, body := do(t, "DELETE", tier.ts.URL+"/v1/datasets/sales", ""); status != 200 {
		t.Fatalf("delete = %d %s", status, body)
	}
	after := fetchCoordMetrics(t, tier.ts.URL)
	if after.Requests.Received != before.Received+1 || after.LatencyMS.N != 1 {
		t.Errorf("after a served DELETE: received %d -> %d, latency samples %d; want it booked once",
			before.Received, after.Requests.Received, after.LatencyMS.N)
	}
}

// An empty ring answers 503 "no live replicas" on every replica-facing route:
// an empty review list from no replicas would read as "nothing to review".
func TestCoordinatorEmptyRingAnswers503Everywhere(t *testing.T) {
	tier := newFakeTier(t, CoordinatorConfig{})
	batch := `{"documents":[` + verifyBody("d1") + `]}`
	for _, rt := range []struct{ method, path, body string }{
		{"POST", "/v1/verify", verifyBody("d1")},
		{"POST", "/v1/verify/batch", batch},
		{"GET", "/v1/review", ""},
		{"POST", "/v1/review/ffff", `{"resolution":"confirmed"}`},
		{"POST", "/v1/datasets?name=sales", "a,b\n1,2\n"},
		{"GET", "/v1/datasets", ""},
		{"GET", "/v1/datasets/sales", ""},
		{"DELETE", "/v1/datasets/sales", ""},
	} {
		status, body := do(t, rt.method, tier.ts.URL+rt.path, rt.body)
		var eb ErrorBody
		_ = json.Unmarshal([]byte(body), &eb)
		if status != http.StatusServiceUnavailable || eb.Error.Code != CodeDraining || eb.Error.Message != "no live replicas" {
			t.Errorf("%s %s on an empty ring = %d %s, want 503 draining \"no live replicas\"", rt.method, rt.path, status, body)
		}
	}
	// The stream route has committed its 200 by then; the 503 rides in-band.
	_, errs, _ := splitEvents(t, readEvents(t, postStream(t, tier.ts.URL, streamDocLine("d1", "1")+"\n")))
	if len(errs) != 1 || errs[0].Error == nil || errs[0].Error.Code != CodeDraining {
		t.Errorf("stream on an empty ring: errors = %+v, want one draining error event", errs)
	}
}

// The review routes run under the request deadline like every other route: a
// replica that accepts the connection and never answers cannot pin them.
func TestCoordinatorReviewRoutesHonorRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	hung := func(w http.ResponseWriter, r *http.Request) { <-release }
	tier := newFakeTier(t, CoordinatorConfig{RequestTimeout: 100 * time.Millisecond}, hung)
	t.Cleanup(func() { close(release) }) // runs before the listeners close

	for _, rt := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/v1/review", "", http.StatusBadGateway},
		{"POST", "/v1/review/ffff", `{"resolution":"confirmed"}`, http.StatusServiceUnavailable},
	} {
		req, err := http.NewRequest(rt.method, tier.ts.URL+rt.path, strings.NewReader(rt.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := (&http.Client{Timeout: 5 * time.Second}).Do(req)
		if err != nil {
			t.Fatalf("%s %s against a never-answering replica: %v (handler ignored the request timeout)", rt.method, rt.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != rt.want {
			t.Errorf("%s %s = %d, want %d once the deadline passed", rt.method, rt.path, resp.StatusCode, rt.want)
		}
	}
}
