package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/claim"
	"repro/internal/shard"
	"repro/internal/trace"
)

// tagBackend marks every claim verified with the replica's tag as the
// method, so tests can see which replica served a routed request.
func tagBackend(tag string) BackendFunc {
	return func(docs []*claim.Document) (RunStats, error) {
		n := 0
		for _, d := range docs {
			for _, c := range d.Claims {
				c.Result.Verified = true
				c.Result.Correct = true
				c.Result.Method = tag
				n++
			}
		}
		return RunStats{Claims: n, Dollars: 0.01 * float64(n), Calls: n}, nil
	}
}

// testRouteKey routes on the document ID alone, which lets tests hunt for a
// doc ID owned by a chosen replica.
func testRouteKey(docID string, _ []ClaimInput) []byte {
	return shard.Fingerprint("test-cfg", docID)
}

// replicaFixture is one replica Server behind a real listener.
type replicaFixture struct {
	srv *Server
	ts  *httptest.Server
}

func newReplica(t *testing.T, cfg Config) *replicaFixture {
	t.Helper()
	srv, ts := newTestServer(t, cfg)
	return &replicaFixture{srv: srv, ts: ts}
}

func newTestCoordinator(t *testing.T, cfg CoordinatorConfig, replicas ...*replicaFixture) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.RouteKey == nil {
		cfg.RouteKey = testRouteKey
	}
	if cfg.DocID == "" {
		cfg.DocID = "testdb"
	}
	for _, r := range replicas {
		cfg.Replicas = append(cfg.Replicas, r.ts.URL)
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c)
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	return c, ts
}

// docOwnedBy hunts for a document ID the ring assigns to the given replica.
func docOwnedBy(t *testing.T, c *Coordinator, replicaURL string) string {
	t.Helper()
	return docsOwnedBy(t, c, replicaURL, 1)[0]
}

func verifyBody(docID string) string {
	return fmt.Sprintf(`{"doc_id":%q,"claims":[{"sentence":"The answer is 42.","value":"42"}]}`, docID)
}

// A routed request is served by the ring owner of its shard key, and the
// replica's response — including its batch stats — relays verbatim.
func TestCoordinatorRoutesVerifyToOwner(t *testing.T) {
	a := newReplica(t, Config{Backend: tagBackend("replica-a"), BatchWait: -1})
	b := newReplica(t, Config{Backend: tagBackend("replica-b"), BatchWait: -1})
	c, ts := newTestCoordinator(t, CoordinatorConfig{}, a, b)
	tags := map[string]string{a.ts.URL: "replica-a", b.ts.URL: "replica-b"}

	for _, rep := range []*replicaFixture{a, b} {
		docID := docOwnedBy(t, c, rep.ts.URL)
		resp := postVerify(t, ts.URL, verifyBody(docID))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		var out VerifyResponse
		decodeInto(t, resp, &out)
		if out.DocID != docID || len(out.Claims) != 1 {
			t.Fatalf("response = %+v, want doc %s with one claim", out, docID)
		}
		if out.Claims[0].Method != tags[rep.ts.URL] {
			t.Errorf("doc %s served by %q, want owner %q", docID, out.Claims[0].Method, tags[rep.ts.URL])
		}
		if out.Batch.Docs != 1 || out.Batch.Claims != 1 {
			t.Errorf("batch stats = %+v, not relayed", out.Batch)
		}
	}
}

// batchDoc is one single-claim batch document; value "1" matches the
// sentence, any other value is not in it and fails validation.
func batchDoc(id, value string) string {
	return fmt.Sprintf(`{"doc_id":%q,"claims":[{"sentence":"n is 1.","value":%q}]}`, id, value)
}

// A batch relays whole to the replica owning its first document, as one job
// there, whichever replicas own its other documents. A bad document is
// refused before anything is verified or billed, in the words a replica uses
// for the same batch: its index in the caller's batch.
func TestCoordinatorBatchRelaysWhole(t *testing.T) {
	a := newReplica(t, Config{Backend: tagBackend("replica-a"), BatchWait: -1})
	b := newReplica(t, Config{Backend: tagBackend("replica-b"), BatchWait: -1})
	c, ts := newTestCoordinator(t, CoordinatorConfig{}, a, b)
	docA, docB := docOwnedBy(t, c, a.ts.URL), docOwnedBy(t, c, b.ts.URL)

	bad := `{"documents":[` + batchDoc(docA, "1") + `,` + batchDoc(docB, "7") + `]}`
	wantStatus, want := do(t, "POST", b.ts.URL+"/v1/verify/batch", bad)
	before := fetchCoordMetrics(t, ts.URL)
	gotStatus, got := do(t, "POST", ts.URL+"/v1/verify/batch", bad)
	if gotStatus != http.StatusBadRequest || gotStatus != wantStatus || got != want {
		t.Errorf("coordinator answered %d %s, want the replica's %d %s", gotStatus, got, wantStatus, want)
	}
	// The refusal is one relayed exchange, booked once as the caller's 400.
	after := fetchCoordMetrics(t, ts.URL)
	if n := after.Requests.BadRequests - before.Requests.BadRequests; n != 1 {
		t.Errorf("coordinator bad_requests rose by %d for one refused batch, want 1", n)
	}
	if n := after.Shard.Routed - before.Shard.Routed; n != 1 {
		t.Errorf("coordinator routed rose by %d for one refused batch, want 1", n)
	}
	for _, rep := range []*replicaFixture{a, b} {
		if n := fetchCoordMetrics(t, rep.ts.URL).Verify.Batches; n != 0 {
			t.Errorf("replica %s verified %d batches for a refused request", rep.ts.URL, n)
		}
	}
}

// A valid batch whose documents are owned by different replicas goes out as
// one exchange, not a fan-out (the name is the scatter's, which this test now
// rules out): the first document's owner serves every document, in the
// caller's order, with its own batch stats, and the coordinator counts one
// routed exchange.
func TestCoordinatorBatchFanoutMergesInOrder(t *testing.T) {
	a := newReplica(t, Config{Backend: tagBackend("replica-a"), BatchWait: -1})
	b := newReplica(t, Config{Backend: tagBackend("replica-b"), BatchWait: -1})
	c, ts := newTestCoordinator(t, CoordinatorConfig{}, a, b)
	docA, docB := docOwnedBy(t, c, a.ts.URL), docOwnedBy(t, c, b.ts.URL)

	// Interleave documents owned by each replica; none may leave replica A.
	ids := []string{docA, docB, docA + "-x", docB + "-x"}
	var docs []string
	for _, id := range ids {
		docs = append(docs, batchDoc(id, "1"))
	}
	before := fetchCoordMetrics(t, ts.URL).Shard.Routed
	status, body := do(t, "POST", ts.URL+"/v1/verify/batch", `{"documents":[`+strings.Join(docs, ",")+`]}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d %s, want 200", status, body)
	}
	var out BatchResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Documents) != len(ids) {
		t.Fatalf("documents = %d, want %d", len(out.Documents), len(ids))
	}
	for i, id := range ids {
		if d := out.Documents[i]; d.DocID != id || d.Claims[0].Method != "replica-a" {
			t.Errorf("documents[%d] = %s served by %s, want %s served by replica-a", i, d.DocID, d.Claims[0].Method, id)
		}
	}
	if out.Batch.Docs != 4 || out.Batch.Claims != 4 || out.Batch.Calls != 4 {
		t.Errorf("batch stats = %+v, want the replica's 4 docs/claims/calls", out.Batch)
	}
	if routed := fetchCoordMetrics(t, ts.URL).Shard.Routed - before; routed != 1 {
		t.Errorf("routed rose by %d for one batch, want 1", routed)
	}
}

// Replicas join and leave at runtime via /v1/replicas; the roster shows in
// /v1/status and routing follows membership.
func TestCoordinatorReplicaRegistration(t *testing.T) {
	a := newReplica(t, Config{Backend: tagBackend("replica-a"), BatchWait: -1})
	b := newReplica(t, Config{Backend: tagBackend("replica-b"), BatchWait: -1})
	c, ts := newTestCoordinator(t, CoordinatorConfig{}, a)

	resp, err := http.Post(ts.URL+"/v1/replicas", "application/json",
		strings.NewReader(fmt.Sprintf(`{"url":%q}`, b.ts.URL)))
	if err != nil {
		t.Fatal(err)
	}
	var roster []ReplicaStatus
	decodeInto(t, resp, &roster)
	if len(roster) != 2 || !roster[0].Healthy || !roster[1].Healthy {
		t.Fatalf("roster after join = %+v, want two healthy replicas", roster)
	}

	st := fetchStatus(t, ts.URL)
	if st.Role != "coordinator" || len(st.Replicas) != 2 {
		t.Fatalf("status = %+v, want coordinator role with 2 replicas", st)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/replicas?url="+b.ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, dresp, &roster)
	if len(roster) != 1 || roster[0].URL != a.ts.URL {
		t.Fatalf("roster after leave = %+v, want only %s", roster, a.ts.URL)
	}
	if owner, ok := c.Owner(testRouteKey("any", nil)); !ok || owner != a.ts.URL {
		t.Errorf("owner after leave = %q (ok=%v), want %s", owner, ok, a.ts.URL)
	}
}

func fetchStatus(t *testing.T, base string) StatusResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	decodeInto(t, resp, &st)
	return st
}

func fetchCoordMetrics(t *testing.T, base string) MetricsResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var met MetricsResponse
	decodeInto(t, resp, &met)
	return met
}

// A dead replica's requests fail over to the ring successor with an
// identical (deterministic) answer, the failure books a failover and — once
// the streak trips — an ejection visible in /v1/metrics and /v1/status.
func TestCoordinatorFailoverAndEjection(t *testing.T) {
	a := newReplica(t, Config{Backend: tagBackend("replica-a"), BatchWait: -1})
	b := newReplica(t, Config{Backend: tagBackend("replica-b"), BatchWait: -1})
	c, ts := newTestCoordinator(t, CoordinatorConfig{
		ProbeInterval: time.Hour, // traffic-fed failures only: deterministic
		FailAfter:     2,
	}, a, b)

	docID := docOwnedBy(t, c, a.ts.URL)
	a.ts.Close() // replica dies abruptly

	for i := 0; i < 2; i++ {
		resp := postVerify(t, ts.URL, verifyBody(docID))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200 via failover", resp.StatusCode)
		}
		var out VerifyResponse
		decodeInto(t, resp, &out)
		if out.Claims[0].Method != "replica-b" {
			t.Fatalf("served by %q, want failover to replica-b", out.Claims[0].Method)
		}
	}

	met := fetchCoordMetrics(t, ts.URL)
	if met.Shard == nil {
		t.Fatal("metrics missing shard section")
	}
	if met.Shard.Failovers < 2 || met.Shard.Ejections != 1 {
		t.Errorf("shard counters = %+v, want >=2 failovers and 1 ejection", met.Shard)
	}
	if met.Resilience == nil || met.Resilience.BreakerTrips != 1 {
		t.Errorf("resilience = %+v, want 1 breaker trip for the ejection", met.Resilience)
	}
	st := fetchStatus(t, ts.URL)
	healthy := map[string]bool{}
	for _, rep := range st.Replicas {
		healthy[rep.URL] = rep.Healthy
	}
	if healthy[a.ts.URL] || !healthy[b.ts.URL] {
		t.Errorf("replica health = %v, want a ejected and b healthy", healthy)
	}

	// After ejection the dead replica is out of the ring: requests route
	// straight to b with no further failover hops.
	before := met.Shard.Failovers
	resp := postVerify(t, ts.URL, verifyBody(docID))
	resp.Body.Close()
	if got := fetchCoordMetrics(t, ts.URL).Shard.Failovers; got != before {
		t.Errorf("failovers grew %d -> %d after ejection; want direct routing", before, got)
	}
}

// Regression for graceful drain under coordinator rebalance: a replica
// receiving SIGTERM (Server.Shutdown) finishes its in-flight batch while the
// coordinator rehashes new requests for its keyspace onto the successor —
// nothing is lost, nothing is verified twice.
func TestCoordinatorDrainRebalance(t *testing.T) {
	gated := &gatedBackend{entered: make(chan struct{}, 8), gate: make(chan struct{})}
	a := newReplica(t, Config{Backend: gated, BatchWait: -1})
	b := newReplica(t, Config{Backend: tagBackend("replica-b"), BatchWait: -1})
	c, ts := newTestCoordinator(t, CoordinatorConfig{
		ProbeInterval: 10 * time.Millisecond,
		FailAfter:     1,
		RecoverAfter:  1 << 30, // a draining replica never readmits mid-test
	}, a, b)
	docID := docOwnedBy(t, c, a.ts.URL)

	// One request in flight on the draining replica when the drain starts.
	inflight := make(chan *http.Response, 1)
	go func() {
		inflight <- postVerify(t, ts.URL, verifyBody(docID))
	}()
	<-gated.entered

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := contextWithTimeout(10 * time.Second)
		defer cancel()
		shutdownErr <- a.srv.Shutdown(ctx)
	}()
	waitFor(t, a.srv.Draining, "replica to start draining")

	// New requests for the draining replica's keyspace rehash to the
	// successor (via 503-failover first, then ejection by the health probe).
	resp := postVerify(t, ts.URL, verifyBody(docID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rehashed request status = %d, want 200", resp.StatusCode)
	}
	var out VerifyResponse
	decodeInto(t, resp, &out)
	if out.Claims[0].Method != "replica-b" {
		t.Fatalf("rehashed request served by %q, want replica-b", out.Claims[0].Method)
	}
	waitFor(t, func() bool { return !c.prober.IsHealthy(a.ts.URL) }, "draining replica to be ejected")

	// The in-flight request completes on its original owner with verdicts.
	close(gated.gate)
	r := <-inflight
	if r.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request status = %d, want 200", r.StatusCode)
	}
	var inOut VerifyResponse
	decodeInto(t, r, &inOut)
	if len(inOut.Claims) != 1 || !inOut.Claims[0].Verified || inOut.Claims[0].Method != "fake" {
		t.Fatalf("in-flight claims = %+v, want the gated replica's verdict", inOut.Claims)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("replica Shutdown: %v", err)
	}
	// Exactly one batch ever reached the draining replica: the in-flight one.
	if sizes := gated.batchSizes(); len(sizes) != 1 || sizes[0] != 1 {
		t.Errorf("draining replica batches = %v, want exactly the in-flight document", sizes)
	}
}

// The coordinator's own surface: healthz follows replica availability and
// drain state; routing spans are recorded and normalized away.
func TestCoordinatorHealthzAndRouteSpans(t *testing.T) {
	tr := trace.New()
	a := newReplica(t, Config{Backend: tagBackend("replica-a"), BatchWait: -1})
	c, ts := newTestCoordinator(t, CoordinatorConfig{Tracer: tr}, a)

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200 with a live replica", hz.StatusCode)
	}

	resp := postVerify(t, ts.URL, verifyBody("doc-1"))
	resp.Body.Close()
	routes := 0
	for _, sp := range tr.Spans() {
		if sp.Kind == trace.KindShardRoute {
			routes++
		}
	}
	if routes != 1 {
		t.Errorf("shard_route spans = %d, want 1", routes)
	}
	for _, sp := range trace.ReplayNormalize(tr.Spans()) {
		if sp.Kind == trace.KindShardRoute || sp.Kind == trace.KindShardFailover {
			t.Fatalf("ReplayNormalize kept routing span %+v", sp)
		}
	}

	// No replicas -> healthz 503 and verify 503 draining-equivalent.
	c.deregister(a.ts.URL)
	hz, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz with empty ring = %d, want 503", hz.StatusCode)
	}
	resp = postVerify(t, ts.URL, verifyBody("doc-1"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("verify with empty ring = %d, want 503", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != CodeDraining {
		t.Errorf("error code = %q, want %q", code, CodeDraining)
	}

	// Shutdown flips the coordinator itself to draining.
	ctx, cancel := contextWithTimeout(2 * time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp = postVerify(t, ts.URL, verifyBody("doc-1"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("verify while draining = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}
