package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
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
	// StreamWindow bounds how far one POST /v1/verify/stream request reads
	// ahead of its answers (default 4): StreamWindow+1 documents placed with
	// replicas and one more read, none answered. It is the coordinator's own
	// backpressure bound, independent of the replicas'.
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
}

// Coordinator is the sharding front end of the serving tier: an
// http.Handler exposing the same /v1 verification surface as Server, but
// answering by relaying each request to the replica owning its claim/config
// fingerprint (a batch's, its first document's) on a consistent-hash ring.
// Replicas register and deregister at runtime; a health prober ejects dead
// or draining replicas (rehashing their keyspace onto ring successors) and
// readmits them when they recover.
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

// traceRoute records one document's routing spans: the failover hops, if it
// took any, and the replica that answered it with what status.
func (c *Coordinator) traceRoute(docID, node string, hops, status int) {
	t := c.cfg.Tracer
	if !t.Enabled() {
		return
	}
	key := trace.Key{Doc: docID, Method: "route"}
	if hops > 0 {
		t.Record(trace.Span{Key: key, Kind: trace.KindShardFailover,
			Detail: fmt.Sprintf("%d hop(s)", hops)})
	}
	outcome := trace.OutcomeOK
	if status != http.StatusOK {
		outcome = trace.OutcomeError
	}
	t.Record(trace.Span{Key: key, Kind: trace.KindShardRoute, Detail: node, Outcome: outcome})
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

// handleVerify relays POST /v1/verify to the replica owning its document.
func (c *Coordinator) handleVerify(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if c.rejectDraining(w) {
		return
	}
	var req VerifyRequest
	body, ok := decodeBody(c.met, w, r, func(b []byte) error { return decodeVerify(b, &req) })
	if !ok {
		return
	}
	c.relayVerify(w, r, started, "/v1/verify", body, req.DocID, req.Claims)
}

// handleVerifyBatch relays POST /v1/verify/batch whole to the replica owning
// its first document. The replica admits the batch as one job, as it does a
// batch posted to it directly, so its documents share a run, a bad document
// is refused before any is verified, and every answer is the replica's own.
func (c *Coordinator) handleVerifyBatch(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if c.rejectDraining(w) {
		return
	}
	var req BatchRequest
	body, ok := decodeBody(c.met, w, r, func(b []byte) error { return decodeBatch(b, &req) })
	if !ok {
		return
	}
	if len(req.Documents) == 0 {
		badRequest(c.met, w, "batch request has no documents")
		return
	}
	first := req.Documents[0]
	c.relayVerify(w, r, started, "/v1/verify/batch", body, first.DocID, first.Claims)
}

// relayVerify is the coordinator's one verification relay: it sends a
// decoded body to the replica owning the shard key of (docID, claims),
// failing over along the ring when the owner is dead or draining, and writes
// the replica's answer verbatim. Compound claims route at the replica
// (DESIGN.md §16), as they do in the library.
func (c *Coordinator) relayVerify(w http.ResponseWriter, r *http.Request, started time.Time, path string, body []byte, docID string, claims []ClaimInput) {
	ctx, cancel := requestContext(r, c.cfg.RequestTimeout)
	defer cancel()
	key, docID := c.routeKey(docID, claims)
	res, err := c.proxy.Do(ctx, key, path, body)
	if err != nil {
		c.renderProxyError(w, err)
		return
	}
	c.routed.Add(1)
	c.traceRoute(docID, res.Node, res.Hops, res.Status)
	if res.Status == http.StatusOK {
		c.met.recordRequest(time.Since(started))
	}
	c.relay(w, res)
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
	if !decodeRequest(c.met, w, r, func(b []byte) error { return decodeJSON(b, &req) }) {
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
