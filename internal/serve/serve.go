// Package serve is CEDAR's request/response layer: a long-running HTTP
// server that turns the batch verification pipeline into an interactive
// service. The demo paper frames claim verification as something a reader
// does while reading — submit a claim, get a verdict — which needs a
// serving surface with production manners, not a one-shot CLI run.
//
// The package converts the run-scoped subsystems built for batch mode
// (bounded worker pool, resilience middleware, fee ledger, tracer) to
// request-scoped lifetimes with three mechanisms:
//
//   - Micro-batching: incoming requests queue as documents and a single
//     batch loop coalesces up to MaxBatch of them into one pipeline run
//     (the run remains the unit of ledger/tracer scope, now holding one
//     micro-batch instead of one corpus). Documents are independent under
//     CEDAR's splittable seeding, so batch composition affects fees
//     attribution and latency only — never a request's verdicts, which stay
//     bit-identical to a CLI run of the same (doc_id, claims).
//   - Admission control: a bounded queue sheds excess load with 429 +
//     Retry-After before it ties up memory, and a draining server answers
//     503 so load balancers fail over cleanly.
//   - Deadlines and drain: each request carries a context deadline — a
//     request whose context expires before its batch starts is dropped from
//     the batch, and one that expires mid-run gets 504 while the batch
//     completes (the work is billed; the response is lost). Shutdown stops
//     intake, verifies everything already admitted, then returns.
//
// Beyond the unary routes, POST /v1/verify/stream accepts an NDJSON stream
// of documents and streams per-claim verdicts back as their micro-batches
// land, admitting at most StreamWindow+2 documents before one is answered
// (backpressure, not buffering); verdicts the pipeline is least sure about are queued for human
// review (internal/review), exposed via GET /v1/review and resolved via
// POST /v1/review/{id}.
//
// The HTTP surface (POST /v1/verify, POST /v1/verify/batch,
// POST /v1/verify/stream, GET /v1/review, POST /v1/review/{id},
// GET /v1/status, GET /v1/metrics, GET /healthz) is documented in
// docs/CLI.md; doclint keeps that document in sync with the binary's flags.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/claim"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/review"
	"repro/internal/sqldb"
	"repro/internal/trace"
)

// RunStats are the run totals a Backend reports for one micro-batch.
type RunStats struct {
	// Claims is the number of claims the run verified.
	Claims int
	// Dollars is the run's simulated LLM fee; Calls its model invocations.
	// The batcher books Dollars as the nearest whole nanodollar
	// (fee.FromDollars), which is exact for a fee rendered from one.
	Dollars float64
	Calls   int
}

// Backend verifies one micro-batch of documents as a single request-scoped
// run, annotating claims in place. cedar.System.Verify satisfies the
// contract via a small adapter in cmd/cedar-serve; tests substitute fakes.
// The server serializes calls (one batch loop), so implementations need not
// be safe for concurrent use.
type Backend interface {
	VerifyDocuments(docs []*claim.Document) (RunStats, error)
}

// BackendFunc adapts a function to the Backend interface.
type BackendFunc func(docs []*claim.Document) (RunStats, error)

// VerifyDocuments implements Backend.
func (f BackendFunc) VerifyDocuments(docs []*claim.Document) (RunStats, error) { return f(docs) }

// Config assembles a Server.
type Config struct {
	// Backend runs micro-batches; required.
	Backend Backend
	// DB is the database claims are verified against; required.
	DB *sqldb.Database
	// DocID is the default document ID for requests that omit doc_id. It
	// seeds verification, so it defaults to the database name — the same
	// ID the cedar CLI derives, preserving CLI/HTTP bit-identity.
	DocID string
	// MaxBatch caps documents per micro-batch (default 8).
	MaxBatch int
	// BatchWait is how long the batch loop lingers for more requests after
	// the first of a batch arrives (default 2ms). Zero keeps the default;
	// negative flushes immediately (every request rides alone, useful in
	// determinism tests).
	BatchWait time.Duration
	// QueueDepth caps requests admitted but not yet batched (default 64).
	// At the cap, requests shed with 429 and a Retry-After hint.
	QueueDepth int
	// RequestTimeout bounds one request's end-to-end wait, propagated via
	// context (default 60s; negative disables).
	RequestTimeout time.Duration
	// RetryAfter is the Retry-After hint on 429 responses (default: the
	// expected time to drain one full queue, QueueDepth/MaxBatch batch
	// waits, floored at 1s). Fixed by configuration, so shedding behavior
	// is deterministic and testable.
	RetryAfter time.Duration
	// StreamWindow sets how far one POST /v1/verify/stream request reads
	// ahead of its answers (default 4): at most StreamWindow+2 of its
	// documents are admitted before one is answered, the one the handler
	// awaits and StreamWindow+1 queued behind it. Then the stream reader
	// stops consuming input — real backpressure, pushed to the client's TCP
	// window — instead of buffering past it.
	StreamWindow int
	// ReviewCap bounds the review queue's pending set (default
	// review.DefaultCap). At the cap, new items evict only lower-priority
	// ones; the queue keeps the claims most worth a human's attention.
	ReviewCap int
	// Schedule optionally names the planned verification schedule for
	// GET /v1/status.
	Schedule string
	// Resilience optionally snapshots the middleware counters for
	// GET /v1/metrics (nil omits the section).
	Resilience func() metrics.ResilienceSnapshot
	// Tracer, when non-nil, must be the tracer installed in the backend
	// system. The server reads it after each micro-batch (the backend
	// resets it per run) to accumulate per-method attempt rollups for
	// GET /v1/metrics.
	Tracer *trace.Tracer
	// Datasets is the ingested-dataset registry behind the /v1/datasets
	// routes. When nil, New builds an in-memory registry over DB (datasets
	// then live only as long as the process); cmd/cedar-serve passes one
	// backed by the System's persistent store so ingested catalogs survive
	// restarts.
	Datasets *ingest.Registry
}

// Server is the cedar-serve HTTP handler plus its batching machinery. Build
// one with New, serve it with net/http, and stop it with Shutdown.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	queue chan *job
	// mu guards draining and orders it against queue close: handlers hold
	// the read lock across the draining check and the (non-blocking) queue
	// send, so Shutdown cannot close the queue between the two.
	mu       sync.RWMutex
	draining bool
	// loopDone closes when the batch loop has drained the queue and exited.
	loopDone chan struct{}
	// batchSeq numbers micro-batch runs; touched only by the batch loop.
	batchSeq int64
	start    time.Time
	met      *serveMetrics
	// review holds verdicts ambiguous enough to deserve a human look,
	// ranked by expected value of review (see internal/review).
	review *review.Queue
}

// New validates the configuration, applies defaults, starts the batch loop,
// and returns the server. Callers own its lifecycle: serve it as an
// http.Handler and call Shutdown to drain.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("serve: Config.Backend is required")
	}
	if cfg.DB == nil {
		return nil, fmt.Errorf("serve: Config.DB is required")
	}
	if cfg.DocID == "" {
		cfg.DocID = cfg.DB.Name
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	if cfg.BatchWait == 0 {
		cfg.BatchWait = 2 * time.Millisecond
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.StreamWindow <= 0 {
		cfg.StreamWindow = 4
	}
	if cfg.ReviewCap <= 0 {
		cfg.ReviewCap = review.DefaultCap
	}
	if cfg.Datasets == nil {
		cfg.Datasets = ingest.NewRegistry(cfg.DB, nil, ingest.Options{})
	}
	if cfg.RetryAfter <= 0 {
		wait := cfg.BatchWait
		if wait < 0 {
			wait = 0
		}
		cfg.RetryAfter = time.Duration((cfg.QueueDepth+cfg.MaxBatch-1)/cfg.MaxBatch) * wait
		if cfg.RetryAfter < time.Second {
			cfg.RetryAfter = time.Second
		}
	}
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *job, cfg.QueueDepth),
		loopDone: make(chan struct{}),
		start:    time.Now(),
		met:      newServeMetrics(),
		review:   review.NewQueue(cfg.ReviewCap),
	}
	s.mux = s.routes()
	go s.batchLoop()
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Draining reports whether the server has stopped admitting work.
func (s *Server) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// QueueDepth returns the number of requests admitted but not yet batched.
func (s *Server) QueueDepth() int { return len(s.queue) }

// Shutdown drains the server gracefully: new requests are rejected with 503
// immediately, every request already admitted is verified and answered, and
// Shutdown returns once the batch loop has exited — or with ctx's error if
// the deadline expires first (the loop keeps draining regardless; admitted
// work is never abandoned). Safe to call more than once.
//
// Callers running an http.Server should call Shutdown here first, then
// http.Server.Shutdown, so in-flight handlers get their responses before
// the listener closes; cmd/cedar-serve wires SIGTERM to exactly that
// sequence.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	select {
	case <-s.loopDone:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with %d request(s) still queued", len(s.queue))
	}
}
