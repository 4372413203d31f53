package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/cedar"
	"repro/internal/claim"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/exp"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/schedule"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sqldb"
	"repro/internal/trace"
)

// The serving defaults of cmd/cedar-serve, which the replicas are built
// with (its resilience defaults come from exp.ServingResilience).
const (
	accuracyTarget = 0.99
	maxTries       = 2
	serveWorkers   = 8
	maxBatch       = 8
	queueDepth     = 64
	streamWindow   = 4
)

// system is one workload's program under test, built through the program's
// public constructors only, plus what the benchmark needs to drive and read
// it from outside.
type system struct {
	// templates are the documents operations reference: the generator's, or
	// for lib-bigtable the ones this system's own ingestion produced.
	templates []*claim.Document
	// dbs is every database the run queries, for plan-cache counters.
	dbs []*sqldb.Database

	// verify is the library entry point: one document per call, returning
	// the call's fee. Nil for serving systems, which are driven over HTTP
	// at front through client.
	verify func(d *claim.Document) (float64, error)
	front  string
	client *http.Client
	// replicaURLs and coordURL are where /v1/metrics is read after a run;
	// ring holds the replica names as the coordinator's ring knows them.
	replicaURLs []string
	coordURL    string
	ring        []string

	schedule   string
	resilience func() metrics.ResilienceSnapshot
	// Timed calls of set-up, for the ingest, profile and schedule layers.
	profileTime, planTime, ingestTime, surfaceTime time.Duration
	ingestRows                                     int

	close func()
}

// build constructs the system for in. With a tracer it installs the span
// wrappers; the program itself is assembled identically either way.
func build(in *inputs, tr *tracer, cp *capture) (*system, error) {
	var s *system
	var err error
	switch {
	case in.topo.replicas > 0:
		s, err = buildTier(in, tr, cp)
	case tr != nil:
		s, err = buildTracedLibrary(in, tr, cp)
	default:
		s, err = buildLibrary(in)
	}
	if err != nil {
		return nil, err
	}
	// Every build starts with cold plan caches, as a fresh process would;
	// the generator's databases outlive the systems built on them.
	for _, db := range s.dbs {
		db.InvalidatePlans()
	}
	return s, nil
}

// buildLibrary is the untraced library system: the public cedar package, as
// the cedar CLI uses it (Workers 1 is its default).
func buildLibrary(in *inputs) (*system, error) {
	s := &system{close: func() {}}
	if err := s.prepareDocuments(in); err != nil {
		return nil, err
	}
	sys, err := cedar.New(cedar.Options{Seed: sysSeed, AccuracyTarget: accuracyTarget, Workers: 1})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := sys.ProfileOn(in.profile); err != nil {
		return nil, err
	}
	s.profileTime = time.Since(start)
	if err := s.timePlan(sys.Stats()); err != nil {
		return nil, err
	}
	s.schedule = sys.Schedule()
	s.resilience = sys.Resilience
	s.verify = func(d *claim.Document) (float64, error) {
		rep, err := sys.Verify([]*claim.Document{d})
		return rep.Dollars, err
	}
	return s, nil
}

// buildTracedLibrary is the same stack with the span wrappers in it. The
// cedar package does not expose its methods, so the traced run assembles
// the stack cedar.New assembles (exp.NewStackResilient with no middleware
// options is sim → Metered, as cedar.New with none) and drives it through
// core.Pipeline; the benchmark checks that verdicts and fee equal the
// untraced run's.
func buildTracedLibrary(in *inputs, tr *tracer, cp *capture) (*system, error) {
	s := &system{close: func() {}}
	if err := s.prepareDocuments(in); err != nil {
		return nil, err
	}
	stack, err := exp.NewStackResilient(sysSeed, exp.ResilienceOptions{})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	stats, err := stack.Profile(in.profile)
	if err != nil {
		return nil, err
	}
	s.profileTime = time.Since(start)
	if err := s.timePlan(stats); err != nil {
		return nil, err
	}
	pipe, err := core.New(core.Config{
		Methods:        traceMethods(stack.Methods, tr, cp),
		Stats:          stats,
		AccuracyTarget: accuracyTarget,
		Seed:           sysSeed,
		Workers:        1,
	})
	if err != nil {
		return nil, err
	}
	s.schedule = pipe.Schedule().String()
	s.resilience = stack.Resilience.Snapshot
	s.verify = func(d *claim.Document) (float64, error) {
		stack.Ledger.Reset()
		pipe.VerifyDocument(d)
		return stack.Ledger.TotalDollars(), nil
	}
	return s, nil
}

// timePlan times the scheduler on the profiled statistics.
func (s *system) timePlan(stats []schedule.MethodStats) error {
	start := time.Now()
	_, err := schedule.Plan(stats, maxTries, accuracyTarget)
	s.planTime = time.Since(start)
	return err
}

// prepareDocuments sets the system's templates and databases. For
// lib-bigtable that is the program's own onboarding path: ingest the CSV,
// register it, take its generated claim surface with every second claim
// falsified (as ingestbench does), and normalize that document.
func (s *system) prepareDocuments(in *inputs) error {
	if in.csv == nil {
		s.templates = in.templates
		seen := make(map[*sqldb.Database]bool)
		for _, d := range in.templates {
			if !seen[d.Data] {
				seen[d.Data] = true
				s.dbs = append(s.dbs, d.Data)
			}
		}
		return nil
	}
	start := time.Now()
	ir, err := ingest.Ingest(bytes.NewReader(in.csv), ingest.Options{Table: "sales", Format: "csv", Seed: sysSeed})
	if err != nil {
		return err
	}
	s.ingestTime, s.ingestRows = time.Since(start), ir.RowsTotal
	db := sqldb.NewDatabase("sales")
	start = time.Now()
	ds, err := ingest.NewRegistry(db, nil, ingest.Options{}).Add(ir)
	if err != nil {
		return err
	}
	s.surfaceTime = time.Since(start)
	flat := &claim.Document{ID: "big", Domain: "ingest", Data: db}
	for i, sc := range ds.Surface.Claims {
		sentence, value, correct := sc.Sentence, sc.Value, true
		if i%2 == 1 {
			wrong := value + "7" // still locatable, never equal to the gold value
			sentence = strings.Replace(sentence, value, wrong, 1)
			value, correct = wrong, false
		}
		c, err := claim.New(sc.ID, sentence, value, sc.Context)
		if err != nil {
			return fmt.Errorf("surface claim %s: %w", sc.ID, err)
		}
		c.Gold = claim.Gold{Query: sc.Query, Correct: correct}
		flat.Claims = append(flat.Claims, c)
	}
	norm, err := data.NormalizeDocument(flat)
	if err != nil {
		return err
	}
	s.templates = []*claim.Document{bigFlat: flat, bigNorm: norm}
	s.dbs = []*sqldb.Database{db, norm.Data}
	return nil
}

// routeTag is the serving configuration part of a shard key, as
// cmd/cedar-serve's coordinator derives it.
var routeTag = fmt.Sprintf("cedar-serve|seed=%d|target=%g|db=catalog", sysSeed, accuracyTarget)

func routeKey(docID string, claims []serve.ClaimInput) []byte {
	fields := make([]string, 0, 2+3*len(claims))
	fields = append(fields, routeTag, docID)
	for _, c := range claims {
		fields = append(fields, c.Sentence, c.Value, c.Context)
	}
	return shard.Fingerprint(fields...)
}

// buildTier boots the serving tier in-process on loopback: replicas
// assembled the way internal/exp/shardbench.go assembles one
// (exp.NewStackResilient + core.New behind serve.BackendFunc) with
// cmd/cedar-serve's defaults, and a coordinator in front when the topology
// has one.
func buildTier(in *inputs, tr *tracer, cp *capture) (*system, error) {
	s := &system{templates: in.templates, dbs: []*sqldb.Database{in.catalog}}
	var closers []func()
	s.close = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	fail := func(err error) (*system, error) {
		s.close()
		return nil, err
	}

	// Profile once, unthrottled, and share the statistics, as shardbench
	// does: a fleet ships one cedar-profile artifact to every replica, and
	// profiling does not pay the throttle.
	profStack, err := exp.NewStackResilient(sysSeed, exp.ResilienceOptions{})
	if err != nil {
		return fail(err)
	}
	start := time.Now()
	stats, err := profStack.Profile(in.profile)
	if err != nil {
		return fail(err)
	}
	s.profileTime = time.Since(start)
	if err := s.timePlan(stats); err != nil {
		return fail(err)
	}

	var snapshots []func() metrics.ResilienceSnapshot
	addrs := make(map[string]string)
	for i := 0; i < in.topo.replicas; i++ {
		// The coordinator's ring hashes replica names, so replicas get
		// names that do not change with the listener's port; the
		// coordinator's client dials the real address.
		name := fmt.Sprintf("http://replica-%d.bench", i)
		tracer := trace.New()
		ro := exp.ServingResilience()
		ro.Tracer = tracer
		ro.ThrottleScale = in.topo.throttle
		stack, err := exp.NewStackResilient(sysSeed, ro)
		if err != nil {
			return fail(err)
		}
		methods := stack.Methods
		if tr != nil {
			methods = traceMethods(methods, tr, cp)
		}
		pipe, err := core.New(core.Config{
			Methods:        methods,
			Stats:          stats,
			AccuracyTarget: accuracyTarget,
			Seed:           sysSeed,
			Workers:        serveWorkers,
			Tracer:         tracer,
		})
		if err != nil {
			return fail(err)
		}
		s.schedule = pipe.Schedule().String()
		var backend serve.Backend = serve.BackendFunc(func(batch []*claim.Document) (serve.RunStats, error) {
			stack.Ledger.Reset()
			tracer.Reset()
			pipe.VerifyDocumentsParallel(batch, serveWorkers)
			return serve.RunStats{
				Claims:  claim.TotalClaims(batch),
				Dollars: stack.Ledger.TotalDollars(),
				Calls:   stack.Ledger.TotalCalls(),
			}, nil
		})
		if tr != nil {
			backend = &tracedBackend{inner: backend, tr: tr, replica: name}
		}
		cfg := serve.Config{
			Backend:      backend,
			DB:           in.catalog,
			MaxBatch:     maxBatch,
			QueueDepth:   queueDepth,
			StreamWindow: streamWindow,
			Schedule:     s.schedule,
			Resilience:   stack.Resilience.Snapshot,
			Tracer:       tracer,
		}
		if in.topo.immediate {
			cfg.BatchWait = -1
		}
		srv, err := serve.New(cfg)
		if err != nil {
			return fail(err)
		}
		var handler http.Handler = srv
		if tr != nil {
			handler = tracedHandler(tr, spanReplica, name, srv)
		}
		ts := httptest.NewServer(handler)
		closers = append(closers, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx) // only fails by timing out; Close below still ends the listener
			ts.Close()
		})
		addrs[strings.TrimPrefix(name, "http://")+":80"] = ts.Listener.Addr().String()
		s.ring = append(s.ring, name)
		s.replicaURLs = append(s.replicaURLs, ts.URL)
		snapshots = append(snapshots, stack.Resilience.Snapshot)
	}
	s.resilience = func() metrics.ResilienceSnapshot {
		var sum metrics.ResilienceSnapshot
		for _, snap := range snapshots {
			r := snap()
			sum.Retries += r.Retries
			sum.Hedges += r.Hedges
		}
		return sum
	}
	s.front = s.replicaURLs[0]

	if in.topo.coordinator {
		dialer := &net.Dialer{}
		// The coordinator's own default pool sizes, plus the name mapping.
		coordClient := &http.Client{Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				return dialer.DialContext(ctx, network, addrs[addr])
			},
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			MaxConnsPerHost:     512,
		}}
		coord, err := serve.NewCoordinator(serve.CoordinatorConfig{
			RouteKey:     routeKey,
			DocID:        in.catalog.Name,
			Replicas:     s.ring,
			Client:       coordClient,
			StreamWindow: streamWindow,
			Schedule:     s.schedule,
		})
		if err != nil {
			return fail(err)
		}
		var handler http.Handler = coord
		if tr != nil {
			handler = tracedHandler(tr, spanCoord, "", coord)
		}
		ts := httptest.NewServer(handler)
		closers = append(closers, func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = coord.Shutdown(ctx) // only fails by timing out
			coordClient.CloseIdleConnections()
		})
		s.front, s.coordURL = ts.URL, ts.URL
	}

	// The load generator: a closed loop over at most conns connections.
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     in.topo.conns,
		MaxIdleConnsPerHost: in.topo.conns,
	}}
	closers = append(closers, s.client.CloseIdleConnections)
	if err := s.awaitHealthy(); err != nil {
		return fail(err)
	}
	return s, nil
}

// awaitHealthy returns once the front answers /healthz with 200.
func (s *system) awaitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := s.client.Get(s.front + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("front never became healthy: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
