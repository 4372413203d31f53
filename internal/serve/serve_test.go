package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/claim"
	"repro/internal/sqldb"
)

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// gatedBackend is a fake Backend that marks every claim verified-correct and
// can block inside VerifyDocuments until released, letting tests hold a
// micro-batch in flight while they probe admission behavior.
type gatedBackend struct {
	mu      sync.Mutex
	batches [][]*claim.Document
	// entered receives one signal per VerifyDocuments call, as it starts.
	entered chan struct{}
	// gate, when non-nil, blocks each VerifyDocuments call until it can
	// receive (or the channel closes).
	gate chan struct{}
}

func (b *gatedBackend) VerifyDocuments(docs []*claim.Document) (RunStats, error) {
	if b.entered != nil {
		b.entered <- struct{}{}
	}
	if b.gate != nil {
		<-b.gate
	}
	b.mu.Lock()
	b.batches = append(b.batches, docs)
	b.mu.Unlock()
	n := 0
	for _, d := range docs {
		for _, c := range d.Claims {
			c.Result.Verified = true
			c.Result.Correct = true
			c.Result.Method = "fake"
			c.Result.Query = "SELECT 1"
			n++
		}
	}
	return RunStats{Claims: n, Dollars: 0.01 * float64(n), Calls: n}, nil
}

func (b *gatedBackend) batchSizes() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	sizes := make([]int, len(b.batches))
	for i, docs := range b.batches {
		sizes[i] = len(docs)
	}
	return sizes
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = sqldb.NewDatabase("testdb")
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

func postVerify(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/verify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, dst any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
}

func errorCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	var eb ErrorBody
	decodeInto(t, resp, &eb)
	return eb.Error.Code
}

const claimBody = `{"claims":[{"sentence":"The answer is 42.","value":"42"}]}`

func TestVerifySingleDocument(t *testing.T) {
	be := &gatedBackend{}
	_, ts := newTestServer(t, Config{Backend: be, BatchWait: -1})
	resp := postVerify(t, ts.URL, claimBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out VerifyResponse
	decodeInto(t, resp, &out)
	// Defaults match the cedar CLI: doc_id from the database name, claim IDs
	// from position.
	if out.DocID != "testdb" {
		t.Errorf("doc_id = %q, want testdb", out.DocID)
	}
	if len(out.Claims) != 1 || out.Claims[0].ID != "c1" {
		t.Fatalf("claims = %+v, want one claim with ID c1", out.Claims)
	}
	if !out.Claims[0].Verified || !out.Claims[0].Correct || out.Claims[0].Method != "fake" {
		t.Errorf("claim result = %+v, want verified correct via fake", out.Claims[0])
	}
	if out.Batch.Docs != 1 || out.Batch.Claims != 1 || out.Batch.Calls != 1 {
		t.Errorf("batch stats = %+v, want 1 doc / 1 claim / 1 call", out.Batch)
	}
}

func TestVerifyBatchSharesOneRun(t *testing.T) {
	be := &gatedBackend{}
	_, ts := newTestServer(t, Config{Backend: be, BatchWait: -1})
	body := `{"documents":[
		{"doc_id":"a","claims":[{"sentence":"x is 1.","value":"1"}]},
		{"doc_id":"b","claims":[{"id":"k","sentence":"y is 2.","value":"2"},{"sentence":"z is 3.","value":"3"}]}]}`
	resp, err := http.Post(ts.URL+"/v1/verify/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out BatchResponse
	decodeInto(t, resp, &out)
	if len(out.Documents) != 2 || out.Documents[0].DocID != "a" || out.Documents[1].DocID != "b" {
		t.Fatalf("documents = %+v", out.Documents)
	}
	if out.Documents[1].Claims[0].ID != "k" || out.Documents[1].Claims[1].ID != "c2" {
		t.Errorf("claim IDs = %+v, want explicit k then default c2", out.Documents[1].Claims)
	}
	if out.Batch.Docs != 2 || out.Batch.Claims != 3 {
		t.Errorf("batch stats = %+v, want 2 docs / 3 claims", out.Batch)
	}
	if sizes := be.batchSizes(); len(sizes) != 1 || sizes[0] != 2 {
		t.Errorf("backend batches = %v, want one batch of 2 documents", sizes)
	}
}

// Concurrent requests arriving while a batch is in flight coalesce into one
// backend run.
func TestMicroBatchCoalescing(t *testing.T) {
	be := &gatedBackend{entered: make(chan struct{}, 8), gate: make(chan struct{})}
	srv, ts := newTestServer(t, Config{Backend: be, MaxBatch: 8, BatchWait: 50 * time.Millisecond})

	results := make(chan int, 4)
	post := func() {
		resp := postVerify(t, ts.URL, claimBody)
		resp.Body.Close()
		results <- resp.StatusCode
	}
	// First request starts a batch; the backend blocks on the gate.
	go post()
	<-be.entered
	// Three more requests queue while the first batch is in flight.
	for i := 0; i < 3; i++ {
		go post()
	}
	waitForQueue(t, srv, 3)
	// Release both batches.
	close(be.gate)
	<-be.entered
	for i := 0; i < 4; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("request status = %d, want 200", code)
		}
	}
	if sizes := be.batchSizes(); len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 3 {
		t.Errorf("backend batches = %v, want [1 3] (three queued requests coalesced)", sizes)
	}
}

func TestAdmissionControlSheds429(t *testing.T) {
	be := &gatedBackend{entered: make(chan struct{}, 8), gate: make(chan struct{})}
	defer close(be.gate)
	srv, ts := newTestServer(t, Config{
		Backend: be, MaxBatch: 1, QueueDepth: 1, RetryAfter: 7 * time.Second,
	})

	codes := make(chan int, 2)
	post := func() {
		resp := postVerify(t, ts.URL, claimBody)
		resp.Body.Close()
		codes <- resp.StatusCode
	}
	// One request in flight (backend blocked), one filling the queue.
	go post()
	<-be.entered
	go post()
	waitForQueue(t, srv, 1)

	// The queue is full: the next request sheds deterministically.
	resp := postVerify(t, ts.URL, claimBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want %q (configured hint)", got, "7")
	}
	if code := errorCode(t, resp); code != CodeOverloaded {
		t.Errorf("error code = %q, want %q", code, CodeOverloaded)
	}
}

func TestGracefulDrain(t *testing.T) {
	be := &gatedBackend{entered: make(chan struct{}, 8), gate: make(chan struct{})}
	srv, ts := newTestServer(t, Config{Backend: be, BatchWait: -1})

	// One request in flight when the drain starts.
	inflight := make(chan *http.Response, 1)
	go func() {
		resp := postVerify(t, ts.URL, claimBody)
		inflight <- resp
	}()
	<-be.entered

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	waitFor(t, srv.Draining, "server to start draining")

	// New work is rejected with 503 while draining; health flips too.
	resp := postVerify(t, ts.URL, claimBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status during drain = %d, want 503", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != CodeDraining {
		t.Errorf("error code = %q, want %q", code, CodeDraining)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", hz.StatusCode)
	}

	// The in-flight request still completes with its verdicts.
	close(be.gate)
	r := <-inflight
	if r.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request status = %d, want 200", r.StatusCode)
	}
	var out VerifyResponse
	decodeInto(t, r, &out)
	if len(out.Claims) != 1 || !out.Claims[0].Verified {
		t.Errorf("in-flight claims = %+v, want the verified verdict", out.Claims)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Shutdown is idempotent.
	ctx, cancel := contextWithTimeout(time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// Expired deadlines answer 504 on both paths: a request whose batch is in
// flight when its deadline passes loses only its response (the work is
// billed), while a request still queued is dropped before any claim is
// attempted.
func TestRequestDeadline504(t *testing.T) {
	be := &gatedBackend{entered: make(chan struct{}, 8), gate: make(chan struct{})}
	_, ts := newTestServer(t, Config{
		Backend: be, MaxBatch: 1, BatchWait: -1, RequestTimeout: 30 * time.Millisecond,
	})
	codes := make(chan int, 1)
	go func() {
		resp := postVerify(t, ts.URL, claimBody)
		resp.Body.Close()
		codes <- resp.StatusCode
	}()
	<-be.entered // first batch blocked on the gate, its 30ms deadline ticking
	// The second request queues behind it and expires before its batch starts.
	resp := postVerify(t, ts.URL, claimBody)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued request status = %d, want 504", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != CodeDeadlineExceeded {
		t.Errorf("error code = %q, want %q", code, CodeDeadlineExceeded)
	}
	// By now the first request's deadline has passed too — mid-batch, so its
	// handler also answers 504 even though the batch still completes.
	if code := <-codes; code != http.StatusGatewayTimeout {
		t.Fatalf("in-flight request status = %d, want 504", code)
	}
	close(be.gate)
	// Only the first request's document ever reaches the backend: the
	// expired queued job is dropped at batch start.
	waitFor(t, func() bool { return len(be.batchSizes()) >= 1 }, "first batch to record")
	total := 0
	for _, n := range be.batchSizes() {
		total += n
	}
	if total != 1 {
		t.Errorf("backend verified %d documents, want 1 (expired queued job dropped)", total)
	}
}

func TestBadRequests(t *testing.T) {
	be := &gatedBackend{}
	_, ts := newTestServer(t, Config{Backend: be, BatchWait: -1})
	cases := []struct {
		name, path, body string
	}{
		{"malformed json", "/v1/verify", `{"claims":`},
		{"unknown field", "/v1/verify", `{"claimz":[]}`},
		{"no claims", "/v1/verify", `{"claims":[]}`},
		{"value not in sentence", "/v1/verify", `{"claims":[{"sentence":"The answer is 42.","value":"7"}]}`},
		{"empty batch", "/v1/verify/batch", `{"documents":[]}`},
		{"bad batch document", "/v1/verify/batch", `{"documents":[{"doc_id":"a","claims":[]}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			if code := errorCode(t, resp); code != CodeBadRequest {
				t.Errorf("error code = %q, want %q", code, CodeBadRequest)
			}
		})
	}
	if sizes := be.batchSizes(); len(sizes) != 0 {
		t.Errorf("backend ran %v batches for bad requests, want none", sizes)
	}
}

func TestStatusAndMetrics(t *testing.T) {
	be := &gatedBackend{}
	db := sqldb.NewDatabase("testdb")
	tab := sqldb.NewTable("t", "a")
	tab.MustAppendRow(sqldb.Int(1))
	db.AddTable(tab)
	_, ts := newTestServer(t, Config{Backend: be, DB: db, BatchWait: -1, Schedule: "sp->agent"})
	for i := 0; i < 3; i++ {
		resp := postVerify(t, ts.URL, claimBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		resp.Body.Close()
		// The fake backend runs no SQL; stand in for it. The third query
		// finds the table grown since registration and falls back.
		if i == 2 {
			tab.MustAppendRow(sqldb.Int(2))
		}
		if _, err := sqldb.Query(db, "SELECT COUNT(*) FROM t"); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	decodeInto(t, resp, &st)
	if st.State != "serving" || st.Schedule != "sp->agent" || st.QueueCap != 64 || st.MaxBatch != 8 {
		t.Errorf("status = %+v", st)
	}
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var met MetricsResponse
	decodeInto(t, mresp, &met)
	if met.Requests.Received != 3 {
		t.Errorf("requests received = %d, want 3", met.Requests.Received)
	}
	if met.Verify.Docs != 3 || met.Verify.Claims != 3 || met.Verify.Calls != 3 {
		t.Errorf("verify counters = %+v, want 3 docs/claims/calls", met.Verify)
	}
	if met.LatencyMS.N != 3 || met.LatencyMS.P99 < met.LatencyMS.P50 {
		t.Errorf("latency quantiles = %+v", met.LatencyMS)
	}
	if met.Resilience != nil {
		t.Errorf("resilience section present without a snapshot source: %+v", met.Resilience)
	}
	if want := (SQLCounters{PlanHits: 2, PlanMisses: 1, PlanEntries: 1, VecRuns: 2, RowFallbacks: 1}); met.SQL == nil || *met.SQL != want {
		t.Errorf("sql counters = %+v, want %+v", met.SQL, want)
	}
}

func TestBackendErrorAnswers500(t *testing.T) {
	be := BackendFunc(func(docs []*claim.Document) (RunStats, error) {
		return RunStats{}, fmt.Errorf("model meltdown")
	})
	_, ts := newTestServer(t, Config{Backend: be, BatchWait: -1})
	resp := postVerify(t, ts.URL, claimBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != CodeInternal {
		t.Errorf("error code = %q, want %q", code, CodeInternal)
	}
}

// waitForQueue polls until the server's queue holds n requests.
func waitForQueue(t *testing.T, srv *Server, n int) {
	t.Helper()
	waitFor(t, func() bool { return srv.QueueDepth() >= n }, fmt.Sprintf("queue depth %d", n))
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestMetricsRuntimeCounters: replica and coordinator /v1/metrics carry the
// process's runtime counters, and a verification request and a collection
// between two readings show in them.
func TestMetricsRuntimeCounters(t *testing.T) {
	a := newReplica(t, Config{Backend: tagBackend("replica-a"), BatchWait: -1})
	_, coord := newTestCoordinator(t, CoordinatorConfig{}, a)
	for _, base := range []string{a.ts.URL, coord.URL} {
		before := fetchCoordMetrics(t, base).Runtime
		resp := postVerify(t, base, claimBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200", base, resp.StatusCode)
		}
		resp.Body.Close()
		runtime.GC()
		after := fetchCoordMetrics(t, base).Runtime
		if after.AllocBytes <= before.AllocBytes || after.AllocObjects <= before.AllocObjects {
			t.Errorf("%s: allocation counters did not grow across a request: %+v then %+v", base, before, after)
		}
		if after.GCCycles <= before.GCCycles || after.GCCPUSeconds < before.GCCPUSeconds || after.HeapLiveBytes == 0 {
			t.Errorf("%s: GC counters do not show a collection: %+v then %+v", base, before, after)
		}
	}
}
