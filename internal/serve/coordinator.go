package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/trace"
)

// CoordinatorConfig assembles a Coordinator.
type CoordinatorConfig struct {
	// RouteKey derives the shard key of one document: the claim/config
	// fingerprint routed on the hash ring. Required. cmd/cedar-serve builds
	// it from the serving config tag, the document ID, and the claim texts
	// via shard.Fingerprint.
	RouteKey func(docID string, claims []ClaimInput) []byte
	// DocID is the default document ID for requests that omit doc_id. It
	// must match the replicas' default (their database name) so the
	// coordinator routes a defaulted request by the same identity the
	// replica will verify under.
	DocID string
	// Replicas are the initial replica base URLs; more can join at runtime
	// via POST /v1/replicas.
	Replicas []string
	// Client issues proxied requests and health probes. The default pools
	// connections per replica so tens of thousands of concurrent clients
	// multiplex over a bounded set of coordinator->replica sockets.
	Client *http.Client
	// ProbeInterval paces health sweeps (default 500ms); FailAfter and
	// RecoverAfter are the replica breaker's trip and readmission streaks
	// (default 2 each — see shard.Prober).
	ProbeInterval time.Duration
	FailAfter     int
	RecoverAfter  int
	// Attempts bounds the replicas one request may try, owner first
	// (default 3).
	Attempts int
	// StreamWindow bounds the documents one POST /v1/verify/stream request
	// may have in flight across replicas (default 4). Each document is
	// proxied to the replica owning its shard key; the window is the
	// coordinator's own backpressure bound, independent of the replicas'.
	StreamWindow int
	// RequestTimeout bounds one proxied request end to end (default 60s;
	// negative disables).
	RequestTimeout time.Duration
	// Schedule optionally names the replicas' verification schedule for
	// GET /v1/status.
	Schedule string
	// Tracer, when non-nil, records shard_route/shard_failover spans for
	// every proxied request. These are topology-dependent and dropped by
	// trace.ReplayNormalize.
	Tracer *trace.Tracer
	// Route, when non-nil, enables cross-database claim routing at the
	// coordinator (DESIGN.md §16): compound claims decompose here and each
	// sub-claim fans out to the replica owning its routed fingerprint, with
	// verdicts recombined in caller order. Requests without compound claims
	// take the ordinary relay path untouched.
	Route *RouteConfig
}

// Coordinator is the sharding front end of the serving tier: an
// http.Handler exposing the same /v1 verification surface as Server, but
// answering by routing each request to the replica owning its claim/config
// fingerprint on a consistent-hash ring. Replicas register and deregister
// at runtime; a health prober ejects dead or draining replicas (rehashing
// their keyspace onto ring successors) and readmits them when they recover.
// Because verdicts are deterministic per (doc_id, claims) regardless of
// which replica verifies them, routing affects throughput and fee
// attribution only — never responses.
type Coordinator struct {
	cfg    CoordinatorConfig
	ring   *shard.Ring
	prober *shard.Prober
	proxy  *shard.Proxy
	mux    *http.ServeMux
	res    *metrics.Resilience
	met    *serveMetrics
	start  time.Time

	routed       atomic.Int64
	failovers    atomic.Int64
	ejections    atomic.Int64
	readmissions atomic.Int64

	draining atomic.Bool
	// stopProber cancels the sweep loop; proberDone closes when it exits.
	stopProber context.CancelFunc
	proberDone chan struct{}
}

// NewCoordinator validates the configuration, registers the initial
// replicas, starts the health-probe loop, and returns the coordinator.
// Callers own its lifecycle: serve it as an http.Handler and call Shutdown
// to stop probing and drain.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.RouteKey == nil {
		return nil, fmt.Errorf("serve: CoordinatorConfig.RouteKey is required")
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.StreamWindow <= 0 {
		cfg.StreamWindow = 4
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			MaxConnsPerHost:     512,
		}}
	}
	c := &Coordinator{
		cfg:        cfg,
		ring:       shard.NewRing(0),
		res:        &metrics.Resilience{},
		met:        newServeMetrics(),
		start:      time.Now(),
		proberDone: make(chan struct{}),
	}
	// The proxy is the only holder of the client: every replica exchange —
	// routed, broadcast, or health probe — goes through it (DESIGN.md §13).
	c.proxy = &shard.Proxy{
		Ring:     c.ring,
		BaseURL:  func(node string) string { return node },
		Client:   client,
		Attempts: cfg.Attempts,
		OnFailure: func(node string) {
			c.failovers.Add(1)
			c.prober.ReportFailure(node)
		},
		OnSuccess: func(node string) { c.prober.ReportSuccess(node) },
	}
	c.prober = &shard.Prober{
		Probe:        c.proxy.Probe,
		Interval:     cfg.ProbeInterval,
		FailAfter:    cfg.FailAfter,
		RecoverAfter: cfg.RecoverAfter,
		OnEject: func(node string) {
			c.ring.Remove(node)
			c.ejections.Add(1)
		},
		OnAdmit: func(node string) {
			c.ring.Add(node)
			c.readmissions.Add(1)
		},
		Metrics: c.res,
	}
	for _, url := range cfg.Replicas {
		c.register(url)
	}
	c.mux = c.routes()
	ctx, cancel := context.WithCancel(context.Background())
	c.stopProber = cancel
	go func() {
		defer close(c.proberDone)
		c.prober.Run(ctx)
	}()
	return c, nil
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// routes builds the coordinator's HTTP surface: the Server verification
// routes (proxied) plus the replica-registration endpoint.
func (c *Coordinator) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", c.handleVerify)
	mux.HandleFunc("POST /v1/verify/batch", c.handleVerifyBatch)
	mux.HandleFunc("POST /v1/verify/stream", c.handleVerifyStream)
	mux.HandleFunc("GET /v1/review", c.handleReviewList)
	mux.HandleFunc("POST /v1/review/{id}", c.handleReviewResolve)
	mux.HandleFunc("POST /v1/datasets", c.handleDatasetBroadcastCreate)
	mux.HandleFunc("GET /v1/datasets", c.handleDatasetRelay)
	mux.HandleFunc("GET /v1/datasets/{name}", c.handleDatasetRelay)
	mux.HandleFunc("DELETE /v1/datasets/{name}", c.handleDatasetBroadcastDelete)
	mux.HandleFunc("GET /v1/status", c.handleStatus)
	mux.HandleFunc("GET /v1/metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("POST /v1/replicas", c.handleReplicaJoin)
	mux.HandleFunc("DELETE /v1/replicas", c.handleReplicaLeave)
	return mux
}

// register admits one replica (idempotent).
func (c *Coordinator) register(url string) {
	c.prober.Track(url)
	c.ring.Add(url)
}

// deregister withdraws one replica entirely — explicit leave, not ejection,
// so it stops being probed for readmission.
func (c *Coordinator) deregister(url string) {
	c.prober.Forget(url)
	c.ring.Remove(url)
}

// Owner reports which replica a shard key routes to. Test hook.
func (c *Coordinator) Owner(key []byte) (string, bool) { return c.ring.Assign(key) }

// Replicas snapshots the registered replicas and their health, sorted.
func (c *Coordinator) Replicas() []ReplicaStatus {
	tracked := c.prober.Tracked()
	out := make([]ReplicaStatus, 0, len(tracked))
	for _, url := range tracked {
		out = append(out, ReplicaStatus{URL: url, Healthy: c.prober.IsHealthy(url)})
	}
	return out
}

// Draining reports whether the coordinator has stopped admitting work.
func (c *Coordinator) Draining() bool { return c.draining.Load() }

// Shutdown stops admitting requests (503 draining, like Server) and stops
// the probe loop. The replicas drain themselves; the coordinator holds no
// queued work of its own. Safe to call more than once.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.draining.Store(true)
	c.stopProber()
	select {
	case <-c.proberDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// rejectDraining answers a request arriving after Shutdown.
func (c *Coordinator) rejectDraining(w http.ResponseWriter) bool {
	if !c.Draining() {
		return false
	}
	c.met.inc(&c.met.rejectedDraining)
	writeError(w, http.StatusServiceUnavailable, CodeDraining, "coordinator is draining", 0)
	return true
}

// routeKey derives one document's shard key, applying the doc_id default the
// replica will apply, so the coordinator and replica agree on the identity.
func (c *Coordinator) routeKey(docID string, claims []ClaimInput) ([]byte, string) {
	if docID == "" {
		docID = c.cfg.DocID
	}
	return c.cfg.RouteKey(docID, claims), docID
}

// bookRoute counts one exchange a replica answered and records its routing
// spans.
func (c *Coordinator) bookRoute(docID string, res shard.Result) {
	c.routed.Add(1)
	t := c.cfg.Tracer
	if !t.Enabled() {
		return
	}
	key := trace.Key{Doc: docID, Method: "route"}
	if res.Hops > 0 {
		t.Record(trace.Span{Key: key, Kind: trace.KindShardFailover,
			Detail: fmt.Sprintf("%d hop(s)", res.Hops)})
	}
	outcome := trace.OutcomeOK
	if res.Status != http.StatusOK {
		outcome = trace.OutcomeError
	}
	t.Record(trace.Span{Key: key, Kind: trace.KindShardRoute, Detail: res.Node, Outcome: outcome})
}

// countRelay books the coordinator's view of a relayed replica response.
func (c *Coordinator) countRelay(status int) {
	switch status {
	case http.StatusTooManyRequests:
		c.met.inc(&c.met.shedOverload)
	case http.StatusServiceUnavailable:
		c.met.inc(&c.met.rejectedDraining)
	case http.StatusGatewayTimeout:
		c.met.inc(&c.met.deadlineExpired)
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		c.met.inc(&c.met.badRequests)
	case http.StatusInternalServerError:
		c.met.inc(&c.met.internalErrors)
	}
}

// proxyErrorDetail classifies a proxy failure and books its metric: an empty
// ring is a drain-equivalent 503; a replica that died after the request was
// delivered is 502/replica_lost — the work may have run and been billed, so
// the proxy refused to retry it elsewhere and the caller decides whether
// re-submitting (verdict-safe; only fees recur) is acceptable; anything else
// is a 500 naming the last replica error.
func (c *Coordinator) proxyErrorDetail(err error) (int, ErrorDetail) {
	switch {
	case err == shard.ErrNoReplicas:
		c.met.inc(&c.met.rejectedDraining)
		return http.StatusServiceUnavailable, ErrorDetail{Code: CodeDraining, Message: "no live replicas"}
	case errors.Is(err, shard.ErrAfterDelivery):
		c.met.inc(&c.met.internalErrors)
		return http.StatusBadGateway, ErrorDetail{Code: CodeReplicaLost, Message: err.Error()}
	default:
		c.met.inc(&c.met.internalErrors)
		return http.StatusInternalServerError, ErrorDetail{Code: CodeInternal, Message: err.Error()}
	}
}

// renderProxyError maps a proxy failure onto the error envelope.
func (c *Coordinator) renderProxyError(w http.ResponseWriter, err error) {
	status, det := c.proxyErrorDetail(err)
	writeError(w, status, det.Code, det.Message, 0)
}

// relay books a replica's response in the coordinator's counters and writes
// it verbatim: status and bytes, no re-marshal.
func (c *Coordinator) relay(w http.ResponseWriter, res shard.Result) {
	c.countRelay(res.Status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.Status)
	_, _ = w.Write(res.Body)
}

// handleVerify proxies POST /v1/verify to the replica owning the request's
// shard key, failing over along the ring when the owner is dead or draining.
func (c *Coordinator) handleVerify(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if c.rejectDraining(w) {
		return
	}
	var req VerifyRequest
	body, ok := decodeBody(c.met, w, r, &req)
	if !ok {
		return
	}
	ctx, cancel := requestContext(r, c.cfg.RequestTimeout)
	defer cancel()
	if c.cfg.Route != nil && c.tryRouted(ctx, w, started, []DocumentInput{{DocID: req.DocID, Claims: req.Claims}},
		func(docs []DocumentResult, stats BatchStats) any {
			return VerifyResponse{DocID: docs[0].DocID, Claims: docs[0].Claims, Batch: stats}
		}) {
		return
	}
	key, docID := c.routeKey(req.DocID, req.Claims)
	res, err := c.proxy.Do(ctx, key, "/v1/verify", body)
	if err != nil {
		c.renderProxyError(w, err)
		return
	}
	c.bookRoute(docID, res)
	if res.Status == http.StatusOK {
		c.met.recordRequest(time.Since(started))
	}
	c.relay(w, res)
}

// handleVerifyBatch answers POST /v1/verify/batch through the scatter:
// documents fan out by owning replica and merge back in the caller's order
// with summed batch stats. Every document still rides a replica micro-batch,
// so fee attribution follows the replica that did the work.
func (c *Coordinator) handleVerifyBatch(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if c.rejectDraining(w) {
		return
	}
	var req BatchRequest
	if _, ok := decodeBody(c.met, w, r, &req); !ok {
		return
	}
	if len(req.Documents) == 0 {
		badRequest(c.met, w, "batch request has no documents")
		return
	}
	ctx, cancel := requestContext(r, c.cfg.RequestTimeout)
	defer cancel()
	render := func(docs []DocumentResult, stats BatchStats) any {
		return BatchResponse{Documents: docs, Batch: stats}
	}
	if c.cfg.Route != nil && c.tryRouted(ctx, w, started, req.Documents, render) {
		return
	}
	docs, stats, relayRes, err := c.scatterDocs(ctx, req.Documents)
	if c.scatterFailed(w, relayRes, err) {
		return
	}
	c.met.recordRequest(time.Since(started))
	writeJSON(w, http.StatusOK, render(docs, stats))
}

// scatterDocs is the coordinator's one scatter/gather: it partitions the
// documents by owning replica, sends each replica its sub-batch concurrently
// through the failover proxy, and merges the verdicts back in the caller's
// document order with the sub-batch stats summed. Any failed sub-batch fails
// the whole scatter, and the failure covering the earliest document is the
// one reported, so the error is stable under re-grouping: a transport failure
// or a reply with fewer documents or claims than were sent comes back as the
// error; a replica's own non-OK answer comes back as the shard.Result to
// relay. Every exchange a replica answered, in a failed scatter too, counts
// in `routed` and leaves its routing span.
func (c *Coordinator) scatterDocs(ctx context.Context, docs []DocumentInput) ([]DocumentResult, BatchStats, *shard.Result, error) {
	// Partition by owner. Assignment is read once per document; a membership
	// change mid-request is handled by the proxy's failover, not re-grouped.
	type group struct {
		idxs  []int // positions in docs; idxs[0] is the group's earliest
		sub   BatchRequest
		key   []byte
		docID string
		res   shard.Result
		err   error
		reply BatchResponse
	}
	byOwner := make(map[string]*group)
	var groups []*group // first-seen owner order: deterministic fan-out and sums
	for i, in := range docs {
		key, docID := c.routeKey(in.DocID, in.Claims)
		owner, ok := c.ring.Assign(key)
		if !ok {
			return nil, BatchStats{}, nil, shard.ErrNoReplicas
		}
		g := byOwner[owner]
		if g == nil {
			g = &group{key: key, docID: docID}
			byOwner[owner] = g
			groups = append(groups, g)
		}
		g.idxs = append(g.idxs, i)
		g.sub.Documents = append(g.sub.Documents, in)
	}

	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			body, err := json.Marshal(g.sub)
			if err == nil {
				g.res, err = c.proxy.Do(ctx, g.key, "/v1/verify/batch", body)
			}
			if err == nil && g.res.Status == http.StatusOK {
				if err = json.Unmarshal(g.res.Body, &g.reply); err == nil {
					err = checkReply(g.res.Node, g.sub.Documents, g.reply.Documents)
				}
			}
			g.err = err
		}(g)
	}
	wg.Wait()

	var failed *group
	for _, g := range groups {
		if g.res.Node != "" { // a replica answered, whatever it said
			c.bookRoute(g.docID, g.res)
		}
		if (g.err != nil || g.res.Status != http.StatusOK) && (failed == nil || g.idxs[0] < failed.idxs[0]) {
			failed = g
		}
	}
	switch {
	case failed == nil:
	case failed.err != nil:
		return nil, BatchStats{}, nil, failed.err
	default:
		return nil, BatchStats{}, &failed.res, nil
	}

	merged := make([]DocumentResult, len(docs))
	var stats BatchStats
	for _, g := range groups {
		for j, idx := range g.idxs {
			merged[idx] = g.reply.Documents[j]
		}
		stats.Docs += g.reply.Batch.Docs
		stats.Claims += g.reply.Batch.Claims
		stats.Dollars += g.reply.Batch.Dollars
		stats.Calls += g.reply.Batch.Calls
	}
	return merged, stats, nil, nil
}

// checkReply rejects a sub-batch reply that is shorter than what was sent. A
// replica answers every document and every claim it admits, so a short reply
// is a broken replica, and merging it would hand the caller blank verdicts.
func checkReply(node string, sent []DocumentInput, got []DocumentResult) error {
	if len(got) != len(sent) {
		return fmt.Errorf("replica %s returned %d documents for %d", node, len(got), len(sent))
	}
	for i, in := range sent {
		if len(got[i].Claims) != len(in.Claims) {
			return fmt.Errorf("replica %s returned %d claims for %d in document %q",
				node, len(got[i].Claims), len(in.Claims), got[i].DocID)
		}
	}
	return nil
}

// scatterFailed renders a failed scatter — the proxy error, or the replica's
// own non-OK answer relayed — and reports whether it wrote a response.
func (c *Coordinator) scatterFailed(w http.ResponseWriter, relayRes *shard.Result, err error) bool {
	switch {
	case err != nil:
		c.renderProxyError(w, err)
	case relayRes != nil:
		c.relay(w, *relayRes)
	default:
		return false
	}
	return true
}

// broadcast repeats the request — its method and content type, the given URI
// (the replicas serve the dataset and review routes under the coordinator's
// own paths) and body — on every live replica under the request deadline,
// folding the outcomes through visit (see shard.Proxy.Each). It is the shared
// prologue of those routes. It answers 503 itself on an empty ring and
// reports whether the fold ran.
func (c *Coordinator) broadcast(w http.ResponseWriter, r *http.Request, uri string, body []byte, visit func(shard.Result, error) bool) bool {
	ctx, cancel := requestContext(r, c.cfg.RequestTimeout)
	defer cancel()
	if err := c.proxy.Each(ctx, r.Method, uri, r.Header.Get("Content-Type"), body, visit); err != nil {
		c.renderProxyError(w, err)
		return false
	}
	return true
}

// handleStatus answers GET /v1/status with the coordinator role and the
// replica roster.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	state := "serving"
	if c.Draining() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, StatusResponse{
		State:    state,
		Schedule: c.cfg.Schedule,
		UptimeMS: time.Since(c.start).Milliseconds(),
		Role:     "coordinator",
		Replicas: c.Replicas(),
	})
}

// handleMetrics answers GET /v1/metrics: the coordinator's own request
// counters plus the shard section and the replica-breaker counters.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	body := c.met.snapshot()
	body.Stream.Window = c.cfg.StreamWindow
	rs := c.res.Snapshot()
	body.Resilience = &ResilienceCounters{
		BreakerTrips:  rs.BreakerTrips,
		BreakerSheds:  rs.BreakerSheds,
		BreakerProbes: rs.BreakerProbes,
	}
	body.Shard = &ShardCounters{
		Replicas:     len(c.prober.Tracked()),
		Healthy:      len(c.prober.Healthy()),
		Routed:       c.routed.Load(),
		Failovers:    c.failovers.Load(),
		Ejections:    c.ejections.Load(),
		Readmissions: c.readmissions.Load(),
	}
	writeJSON(w, http.StatusOK, body)
}

// handleHealthz answers 200 while at least one replica is live, 503 while
// draining or with an empty ring, so an upstream balancer can fail away from
// a coordinator that cannot serve.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if c.Draining() || c.ring.Len() == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "unavailable")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleReplicaJoin admits a replica announced via POST /v1/replicas.
func (c *Coordinator) handleReplicaJoin(w http.ResponseWriter, r *http.Request) {
	var req ReplicaRequest
	if _, ok := decodeBody(c.met, w, r, &req); !ok {
		return
	}
	if req.URL == "" {
		badRequest(c.met, w, "replica url is required")
		return
	}
	c.register(req.URL)
	writeJSON(w, http.StatusOK, c.Replicas())
}

// handleReplicaLeave withdraws a replica via DELETE /v1/replicas?url=...;
// replicas call it as the first step of graceful shutdown so new work
// rehashes immediately while they drain what they already admitted.
func (c *Coordinator) handleReplicaLeave(w http.ResponseWriter, r *http.Request) {
	url := r.URL.Query().Get("url")
	if url == "" {
		badRequest(c.met, w, "replica url query parameter is required")
		return
	}
	c.deregister(url)
	writeJSON(w, http.StatusOK, c.Replicas())
}
