// Command cedar-serve exposes CEDAR claim verification as a long-running
// HTTP service: it loads a CSV database, profiles (or loads) the method
// statistics once, and then serves claim-verification requests, coalescing
// concurrent requests into micro-batches over the shared worker pool.
//
// Usage:
//
//	cedar-serve -csv data.csv [-addr :8080] [-target 0.99] [-seed 1] [-workers 8]
//
// Routes (full API reference in docs/CLI.md):
//
//	POST /v1/verify         verify one document's claims
//	POST /v1/verify/batch   verify several documents in one request
//	POST /v1/verify/stream  NDJSON documents in, streamed verdicts out
//	GET  /v1/review         pending human-review queue, ranked
//	POST /v1/review/{id}    record a human resolution for one review item
//	POST   /v1/datasets        ingest a CSV/JSON dataset into the catalog
//	GET    /v1/datasets        list ingested datasets
//	GET    /v1/datasets/{name} one dataset's schema, budget, and surface
//	DELETE /v1/datasets/{name} remove an ingested dataset
//	GET  /v1/status         serving state and queue depth
//	GET  /v1/metrics        request, verification, and resilience counters
//	GET  /healthz           liveness (503 while draining)
//
// A served run is bit-identical to the equivalent `cedar` CLI run: same
// seed, same database, same claims ⇒ same verdicts and fees, regardless of
// how requests were batched. SIGINT/SIGTERM drain gracefully: admitted
// requests finish, new ones get 503, then the process exits.
//
// The binary also scales out horizontally (DESIGN.md §13). With
// -coordinator it verifies nothing itself: it routes each request to one of
// the -replicas processes by the consistent hash of the request's
// claim/config fingerprint, health-probes the replicas (ejecting dead or
// draining ones and rehashing their keyspace), and merges fan-out batches.
// A replica started with -replica-of registers itself with its coordinator
// on startup and deregisters as the first step of its graceful drain.
// Because verdicts are deterministic per (seed, database, claims), every
// shard count serves bit-identical responses — sharding buys throughput,
// never different answers.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/cedar"
	"repro/internal/cliutil"
	"repro/internal/exp"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sqldb"
	"repro/internal/trace"
)

// serveOptions carries the parsed command line into run.
type serveOptions struct {
	CSVPaths  []string
	Datasets  []string
	TableName string
	Addr      string
	Target    float64
	Seed      int64
	Workers   int
	StatsPath string

	MaxBatch       int
	BatchWait      time.Duration
	QueueDepth     int
	RequestTimeout time.Duration
	RetryAfter     time.Duration
	DrainTimeout   time.Duration
	StreamWindow   int
	ReviewCap      int

	Retries    int
	Timeout    time.Duration
	HedgeAfter time.Duration
	Breaker    int
	FaultRate  float64

	CacheDir string

	Route     bool
	RouteTopK int

	SampleRows     int
	MaxIngestBytes int64

	Coordinator   bool
	Replicas      []string
	ReplicaOf     string
	ProbeInterval time.Duration

	Pprof string
}

// defineFlags registers the binary's flags on fs, bound to the returned
// options. Split from main so the doclint test can walk the registered
// FlagSet against docs/CLI.md. The resilience defaults come from
// exp.ServingResilience: unlike the batch CLIs, a service retries and
// hedges by default.
func defineFlags(fs *flag.FlagSet) *serveOptions {
	o := &serveOptions{}
	sr := exp.ServingResilience()
	fs.Var((*cliutil.CSVList)(&o.CSVPaths), "csv", "CSV data table (header row first); repeat for multi-table databases")
	fs.Var((*cliutil.CSVList)(&o.Datasets), "dataset", "ingested dataset to load from -cache-dir at startup (see cedar ingest and docs/DATA.md); repeatable")
	fs.StringVar(&o.TableName, "table", "", "table name for a single CSV (default: file base name)")
	fs.StringVar(&o.Addr, "addr", ":8080", "listen address")
	fs.Float64Var(&o.Target, "target", 0.99, "accuracy target in (0,1]")
	fs.Int64Var(&o.Seed, "seed", 1, "random seed for the simulated models")
	fs.IntVar(&o.Workers, "workers", 8, "concurrent claim verifications per micro-batch; results are identical for any value")
	fs.StringVar(&o.StatsPath, "stats", "", "profiling statistics JSON (from cedar-profile -o); skips built-in profiling")
	fs.IntVar(&o.MaxBatch, "max-batch", 8, "documents coalesced into one micro-batch at most")
	fs.DurationVar(&o.BatchWait, "batch-wait", 2*time.Millisecond, "how long to linger for more requests before flushing a partial micro-batch")
	fs.IntVar(&o.QueueDepth, "queue-depth", 64, "admitted requests waiting for a batch slot before new ones shed with 429")
	fs.DurationVar(&o.RequestTimeout, "request-timeout", 60*time.Second, "per-request deadline propagated via context; expired requests answer 504")
	fs.DurationVar(&o.RetryAfter, "retry-after", 0, "Retry-After hint on 429 responses (default: estimated queue drain time, min 1s)")
	fs.DurationVar(&o.DrainTimeout, "drain-timeout", 30*time.Second, "how long graceful shutdown waits for admitted requests to finish")
	fs.IntVar(&o.StreamWindow, "stream-window", 4, "documents one /v1/verify/stream request may have in flight; past it the server stops reading the stream (backpressure)")
	fs.IntVar(&o.ReviewCap, "review-cap", 256, "pending human-review items kept; at the cap new items evict only lower-priority ones")
	fs.IntVar(&o.Retries, "retries", sr.Retries, "retry failed retryable model calls up to N additional times (capped backoff, seeded jitter)")
	fs.DurationVar(&o.Timeout, "timeout", sr.Timeout, "per-call simulated deadline across retries; 0 disables")
	fs.DurationVar(&o.HedgeAfter, "hedge", sr.HedgeAfter, "race a backup model call once the primary exceeds this simulated latency; 0 disables")
	fs.IntVar(&o.Breaker, "breaker", 0, "trip a per-model circuit breaker after N consecutive failures; 0 disables (order-dependent, see DESIGN.md §9)")
	fs.Float64Var(&o.FaultRate, "fault-rate", 0, "inject deterministic transport faults at this per-attempt probability (chaos testing)")
	fs.StringVar(&o.CacheDir, "cache-dir", "", "persist temperature-0 completions and verdict memos in this directory; restarts answer repeated work at zero fee (DESIGN.md §11). Datasets ingested via POST /v1/datasets persist here too")
	fs.BoolVar(&o.Route, "route", false, "decompose compound claims and route each sub-claim to the best-matching table (DESIGN.md §16); in -coordinator mode sub-claims fan out across the ring by their routed fingerprint")
	fs.IntVar(&o.RouteTopK, "route-topk", 0, "candidate tables the routing stage considers per sub-claim; 0 uses the built-in default")
	fs.IntVar(&o.SampleRows, "sample-rows", 0, "default row budget for POST /v1/datasets ingestions: keep at most N rows, reservoir-sampled deterministically (default 50000)")
	fs.Int64Var(&o.MaxIngestBytes, "max-ingest-bytes", 0, "default byte budget for POST /v1/datasets ingestions, stopping at the last complete record (default 32 MiB)")
	fs.BoolVar(&o.Coordinator, "coordinator", false, "run as a sharding coordinator: route requests to the -replicas processes instead of verifying locally (DESIGN.md §13)")
	fs.Var((*cliutil.URLList)(&o.Replicas), "replicas", "replica base URL for -coordinator mode; repeat (or comma-separate) for more")
	fs.StringVar(&o.ReplicaOf, "replica-of", "", "coordinator base URL this replica registers with on startup and deregisters from when draining")
	fs.DurationVar(&o.ProbeInterval, "probe-interval", 500*time.Millisecond, "coordinator health-probe cadence; a replica failing two consecutive probes is ejected and its keyspace rehashed")
	fs.StringVar(&o.Pprof, "pprof", "", "serve net/http/pprof (/debug/pprof/) on this address, on its own listener, never on -addr; off when empty. Bind it to loopback: profiles expose internals")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	if len(o.CSVPaths) == 0 && len(o.Datasets) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "cedar-serve:", err)
		os.Exit(1)
	}
}

// newServer builds the serving stack — database, profiled System, backend
// adapter, HTTP server — without binding a listener, so tests can drive it
// through httptest. The returned closer releases the System's persistent
// store handles (-cache-dir); call it after Shutdown, and before another
// newServer may reopen the same directory (warm restart).
func newServer(o *serveOptions) (*serve.Server, func() error, error) {
	return newServerSink(o, nil)
}

// newServerSink is newServer with a span sink: when non-nil, sink receives
// every micro-batch's trace spans right after the batch's run completes
// (the System resets its tracer at each run start, so without a sink only
// the last batch's spans survive). The sharded-identity harness uses it to
// harvest each replica's full verification trace for cross-topology
// comparison.
func newServerSink(o *serveOptions, sink func([]trace.Span)) (*serve.Server, func() error, error) {
	db, dbName, err := loadServeDatabase(o)
	if err != nil {
		return nil, nil, err
	}
	// The tracer feeds the per-method rollups of GET /v1/metrics; the
	// backend resets it each micro-batch, so memory stays bounded.
	tracer := cedar.NewTracer()
	sys, err := cedar.New(cedar.Options{
		Seed:             o.Seed,
		AccuracyTarget:   o.Target,
		Workers:          o.Workers,
		Retries:          o.Retries,
		Timeout:          o.Timeout,
		HedgeAfter:       o.HedgeAfter,
		BreakerThreshold: o.Breaker,
		FaultRate:        o.FaultRate,
		CacheDir:         o.CacheDir,
		Route:            o.Route,
		RouteTopK:        o.RouteTopK,
		Tracer:           tracer,
	})
	if err != nil {
		return nil, nil, err
	}
	if o.StatsPath != "" {
		stats, err := profile.LoadStats(o.StatsPath)
		if err != nil {
			sys.Close()
			return nil, nil, err
		}
		if err := sys.SetStats(stats); err != nil {
			sys.Close()
			return nil, nil, err
		}
	} else {
		// The same built-in profiling corpus cmd/cedar uses, so a served
		// run reproduces a CLI run of the same seed exactly.
		profDocs, err := cedar.Benchmark(cedar.BenchAggChecker, o.Seed+100)
		if err != nil {
			sys.Close()
			return nil, nil, err
		}
		if err := sys.ProfileOn(profDocs[:6]); err != nil {
			sys.Close()
			return nil, nil, err
		}
	}
	// The dataset registry shares the System's persistent store (when
	// -cache-dir is set), so ingested catalogs survive restarts; named
	// -dataset flags restore persisted datasets into the catalog before the
	// first request, recording each sampling decision in the trace.
	reg := ingest.NewRegistry(db, sys.Store(), ingest.Options{
		SampleRows: o.SampleRows,
		MaxBytes:   o.MaxIngestBytes,
		Seed:       o.Seed,
	})
	for _, name := range o.Datasets {
		ds, err := reg.LoadDataset(name)
		if err != nil {
			sys.Close()
			return nil, nil, err
		}
		tracer.Record(trace.Span{
			Key:    trace.Key{Doc: dbName, Method: "ingest"},
			Kind:   trace.KindIngestSample,
			Detail: ds.Info.SampleDetail(),
		})
	}
	if o.Route {
		// After dataset restore, so ingested tables are routable too.
		if err := sys.SetCatalog(db); err != nil {
			sys.Close()
			return nil, nil, err
		}
	}
	backend := serve.BackendFunc(func(docs []*cedar.Document) (serve.RunStats, error) {
		rep, err := sys.Verify(docs)
		if err != nil {
			return serve.RunStats{}, err
		}
		if sink != nil {
			sink(tracer.Spans())
		}
		return serve.RunStats{Claims: rep.Claims, Dollars: rep.Dollars, Calls: rep.Calls}, nil
	})
	srv, err := serve.New(serve.Config{
		Backend:        backend,
		DB:             db,
		DocID:          dbName,
		MaxBatch:       o.MaxBatch,
		BatchWait:      o.BatchWait,
		QueueDepth:     o.QueueDepth,
		RequestTimeout: o.RequestTimeout,
		RetryAfter:     o.RetryAfter,
		StreamWindow:   o.StreamWindow,
		ReviewCap:      o.ReviewCap,
		Schedule:       sys.Schedule(),
		Resilience:     func() metrics.ResilienceSnapshot { return sys.Resilience() },
		Tracer:         tracer,
		Datasets:       reg,
	})
	if err != nil {
		sys.Close()
		return nil, nil, err
	}
	return srv, sys.Close, nil
}

// loadServeDatabase builds the serving database: the -csv tables when
// given, otherwise an empty catalog named for -table or the first -dataset
// (the persisted datasets themselves load after the System exists, through
// the registry sharing its store).
func loadServeDatabase(o *serveOptions) (*sqldb.Database, string, error) {
	if len(o.CSVPaths) > 0 {
		return cliutil.LoadDatabase(o.CSVPaths, o.TableName)
	}
	name := o.TableName
	if name == "" {
		if len(o.Datasets) == 0 {
			return nil, "", fmt.Errorf("one of -csv, -dataset, or -table is required")
		}
		name = o.Datasets[0]
	}
	return sqldb.NewDatabase(name), name, nil
}

// routeKeyFor builds the coordinator's shard key function: the claim/config
// fingerprint. The config tag pins the parameters that determine verdicts
// (seed, accuracy target, database name), so coordinators for different
// serving configurations hash the same document differently — routing
// identity follows verification identity.
func routeKeyFor(o *serveOptions, dbName string) func(docID string, claims []serve.ClaimInput) []byte {
	cfgTag := fmt.Sprintf("cedar-serve|seed=%d|target=%g|db=%s", o.Seed, o.Target, dbName)
	return func(docID string, claims []serve.ClaimInput) []byte {
		fields := make([]string, 0, 2+3*len(claims))
		fields = append(fields, cfgTag, docID)
		for _, c := range claims {
			fields = append(fields, c.Sentence, c.Value, c.Context)
		}
		return shard.Fingerprint(fields...)
	}
}

// newCoordinator builds the -coordinator serving stack without binding a
// listener. The database is loaded only for its name: the coordinator must
// derive the same default document ID the replicas do, so a request that
// omits doc_id routes by the identity the replica will verify under.
func newCoordinator(o *serveOptions) (*serve.Coordinator, error) {
	if len(o.Replicas) == 0 {
		return nil, fmt.Errorf("-coordinator requires at least one -replicas URL")
	}
	db, dbName, err := loadServeDatabase(o)
	if err != nil {
		return nil, err
	}
	cfg := serve.CoordinatorConfig{
		RouteKey:       routeKeyFor(o, dbName),
		DocID:          dbName,
		Replicas:       o.Replicas,
		ProbeInterval:  o.ProbeInterval,
		StreamWindow:   o.StreamWindow,
		RequestTimeout: o.RequestTimeout,
	}
	if o.Route && len(db.Tables()) > 0 {
		// The coordinator decomposes compound claims itself so sub-claims can
		// fan out across the ring; a dataset-only coordinator has no catalog
		// here and relays whole documents — the replicas route internally.
		cfg.Route = &serve.RouteConfig{
			Catalog: route.NewCatalog(db),
			Seed:    o.Seed,
			TopK:    o.RouteTopK,
		}
	}
	return serve.NewCoordinator(cfg)
}

// advertiseURL derives the URL a replica registers under from its -addr: a
// bare ":port" advertises the loopback address (the sharded tier's intended
// single-host deployment); anything else is used as given.
func advertiseURL(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	if !strings.Contains(addr, "://") {
		return "http://" + addr
	}
	return addr
}

// registerReplica announces self to the coordinator's ring.
func registerReplica(ctx context.Context, coordinator, self string) error {
	body, err := json.Marshal(serve.ReplicaRequest{URL: self})
	if err != nil {
		return err
	}
	return membershipCall(ctx, http.MethodPost, coordinator, "", body, "registration")
}

// deregisterReplica withdraws self from the coordinator's ring — the first
// step of a replica's graceful drain, so new requests rehash immediately
// while admitted work finishes here.
func deregisterReplica(ctx context.Context, coordinator, self string) error {
	return membershipCall(ctx, http.MethodDelete, coordinator, "?url="+url.QueryEscape(self), nil, "deregistration")
}

// membershipCall sends one /v1/replicas request to the coordinator. ctx must
// carry a deadline: a coordinator that accepts the connection and never
// answers would otherwise hold up startup — or, worse, the SIGTERM drain —
// forever.
func membershipCall(ctx context.Context, method, coordinator, query string, body []byte, what string) error {
	req, err := http.NewRequestWithContext(ctx, method,
		strings.TrimSuffix(coordinator, "/")+"/v1/replicas"+query, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("replica %s with coordinator: %w", what, err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coordinator answered %d to replica %s", resp.StatusCode, what)
	}
	return nil
}

func run(o *serveOptions) error {
	if o.Pprof != "" {
		addr, stop, err := startPprof(o.Pprof)
		if err != nil {
			return err
		}
		defer stop()
		log.Printf("cedar-serve: pprof on http://%s/debug/pprof/", addr)
	}
	if o.Coordinator {
		return runCoordinator(o)
	}
	srv, closeSys, err := newServer(o)
	if err != nil {
		return err
	}
	defer closeSys()
	httpSrv := &http.Server{
		Addr:              o.Addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("cedar-serve: listening on %s", o.Addr)
	self := advertiseURL(o.Addr)
	if o.ReplicaOf != "" {
		rctx, cancel := context.WithTimeout(ctx, o.DrainTimeout)
		err := registerReplica(rctx, o.ReplicaOf, self)
		cancel()
		if err != nil {
			return err
		}
		log.Printf("cedar-serve: registered as %s with coordinator %s", self, o.ReplicaOf)
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain, in order: leave the coordinator's ring so new work
	// rehashes at once, stop admitting and verify everything already
	// accepted, then close the listener so in-flight handlers deliver their
	// responses before the process exits.
	log.Printf("cedar-serve: draining (admitted requests finish, new ones get 503)")
	dctx, cancel := context.WithTimeout(context.Background(), o.DrainTimeout)
	defer cancel()
	if o.ReplicaOf != "" {
		if err := deregisterReplica(dctx, o.ReplicaOf, self); err != nil {
			log.Printf("cedar-serve: %v (draining anyway)", err)
		}
	}
	if err := srv.Shutdown(dctx); err != nil {
		return err
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("cedar-serve: drained cleanly")
	return nil
}

// startPprof serves the runtime profiler on its own listener and mux, so the
// verification listener never exposes it (the pprof package's registrations
// on http.DefaultServeMux are unused: every server here has its own
// handler). It returns the bound address and a stop function that closes the
// listener and waits for the serving goroutine.
func startPprof(addr string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("-pprof: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return ln.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}, nil
}

// runCoordinator is run's -coordinator branch: same listener lifecycle and
// drain choreography, with the sharding front end as the handler.
func runCoordinator(o *serveOptions) error {
	coord, err := newCoordinator(o)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Addr:              o.Addr,
		Handler:           coord,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("cedar-serve: coordinating %d replica(s) on %s", len(o.Replicas), o.Addr)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("cedar-serve: coordinator draining")
	dctx, cancel := context.WithTimeout(context.Background(), o.DrainTimeout)
	defer cancel()
	if err := coord.Shutdown(dctx); err != nil {
		return err
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("cedar-serve: coordinator drained cleanly")
	return nil
}
