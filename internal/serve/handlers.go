package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/claim"
)

// maxBodyBytes caps request bodies; claim batches are text, so 8 MiB is
// generous while still bounding what one request can pin in memory.
const maxBodyBytes = 8 << 20

// routes builds the HTTP surface. Every route is documented in docs/CLI.md;
// doclint guards the flag surface, the e2e tests guard these.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("POST /v1/verify/batch", s.handleVerifyBatch)
	mux.HandleFunc("POST /v1/verify/stream", s.handleVerifyStream)
	mux.HandleFunc("GET /v1/review", s.handleReviewList)
	mux.HandleFunc("POST /v1/review/{id}", s.handleReviewResolve)
	mux.HandleFunc("POST /v1/datasets", s.handleDatasetCreate)
	mux.HandleFunc("GET /v1/datasets", s.handleDatasetList)
	mux.HandleFunc("GET /v1/datasets/{name}", s.handleDatasetGet)
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleDatasetDelete)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// requestContext applies a tier's configured per-request deadline (none when
// not positive) on top of the client's own cancellation.
func requestContext(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(r.Context(), timeout)
	}
	return context.WithCancel(r.Context())
}

// oversize answers 413 when a request declares a body past maxBodyBytes, so
// the caller learns the limit before the server reads (or a stream commits
// its 200). Bodies of undeclared length are caught as they are read, by
// limitBody.
func oversize(m *serveMetrics, w http.ResponseWriter, r *http.Request) bool {
	if r.ContentLength <= maxBodyBytes {
		return false
	}
	tooLarge(m, w)
	return true
}

// limitBody caps the request body at maxBodyBytes: reading past it fails
// with an *http.MaxBytesError (see isTooLarge) instead of ending the body
// early, which a JSON decoder reports as a syntax error in a valid document.
// It is given no ResponseWriter to flag: a stream reads its body on another
// goroutine than the one writing the response.
func limitBody(r *http.Request) io.Reader {
	return http.MaxBytesReader(nil, r.Body, maxBodyBytes)
}

func isTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// decodeBody strictly decodes a JSON request body into dst — the one decoder
// of both tiers — and returns the raw bytes, so a coordinator can relay a
// valid body verbatim. A failure is counted on m and answered 400, a body
// over maxBodyBytes 413.
func decodeBody(m *serveMetrics, w http.ResponseWriter, r *http.Request, dst any) ([]byte, bool) {
	if oversize(m, w, r) {
		return nil, false
	}
	body, err := io.ReadAll(limitBody(r))
	if isTooLarge(err) {
		tooLarge(m, w)
		return nil, false
	}
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(dst)
	}
	if err != nil {
		badRequest(m, w, fmt.Sprintf("decoding request body: %v", err))
		return nil, false
	}
	return body, true
}

// buildDocuments converts the wire documents of one request.
func (s *Server) buildDocuments(ins []DocumentInput) ([]*claim.Document, error) {
	docs := make([]*claim.Document, 0, len(ins))
	for i, in := range ins {
		doc, err := buildDocument(in, s.cfg.DocID, s.cfg.DB)
		if err != nil {
			return nil, fmt.Errorf("documents[%d]: %w", i, err)
		}
		docs = append(docs, doc)
	}
	return docs, nil
}

// serveDocuments is the shared verification path of both POST routes:
// admit the documents as one job, wait for its micro-batch, and return the
// batch stats. A non-nil apiError was already counted and must be rendered.
func (s *Server) serveDocuments(ctx context.Context, docs []*claim.Document) (BatchStats, *apiError) {
	j, aerr := s.admit(ctx, docs)
	if aerr != nil {
		return BatchStats{}, aerr
	}
	res, aerr := s.await(ctx, j)
	if aerr != nil {
		return BatchStats{}, aerr
	}
	return res.stats, nil
}

// handleVerify answers POST /v1/verify: one document's claims, one verdict
// set. Internally it is the single-document case of the batch path.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	var req VerifyRequest
	if _, ok := decodeBody(s.met, w, r, &req); !ok {
		return
	}
	doc, err := buildDocument(DocumentInput{DocID: req.DocID, Claims: req.Claims}, s.cfg.DocID, s.cfg.DB)
	if err != nil {
		badRequest(s.met, w, err.Error())
		return
	}
	ctx, cancel := requestContext(r, s.cfg.RequestTimeout)
	defer cancel()
	stats, aerr := s.serveDocuments(ctx, []*claim.Document{doc})
	if aerr != nil {
		s.renderError(w, aerr)
		return
	}
	s.reviewDocuments([]*claim.Document{doc}, stats)
	dr := documentResult(doc)
	s.met.recordRequest(time.Since(started))
	writeJSON(w, http.StatusOK, VerifyResponse{DocID: dr.DocID, Claims: dr.Claims, Batch: stats})
}

// handleVerifyBatch answers POST /v1/verify/batch: several documents
// verified together. The whole request is admitted as one job, so its
// documents always share a run and the response's batch totals cover at
// least them.
func (s *Server) handleVerifyBatch(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	var req BatchRequest
	if _, ok := decodeBody(s.met, w, r, &req); !ok {
		return
	}
	if len(req.Documents) == 0 {
		badRequest(s.met, w, "batch request has no documents")
		return
	}
	docs, err := s.buildDocuments(req.Documents)
	if err != nil {
		badRequest(s.met, w, err.Error())
		return
	}
	ctx, cancel := requestContext(r, s.cfg.RequestTimeout)
	defer cancel()
	stats, aerr := s.serveDocuments(ctx, docs)
	if aerr != nil {
		s.renderError(w, aerr)
		return
	}
	s.reviewDocuments(docs, stats)
	out := BatchResponse{Batch: stats}
	for _, d := range docs {
		out.Documents = append(out.Documents, documentResult(d))
	}
	s.met.recordRequest(time.Since(started))
	writeJSON(w, http.StatusOK, out)
}

// handleStatus answers GET /v1/status with the serving state.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	state := "serving"
	if s.Draining() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, StatusResponse{
		State:        state,
		QueueDepth:   len(s.queue),
		QueueCap:     s.cfg.QueueDepth,
		MaxBatch:     s.cfg.MaxBatch,
		BatchWaitMS:  s.cfg.BatchWait.Milliseconds(),
		StreamWindow: s.cfg.StreamWindow,
		Schedule:     s.cfg.Schedule,
		UptimeMS:     time.Since(s.start).Milliseconds(),
	})
}

// handleMetrics answers GET /v1/metrics with the cumulative counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	body := s.met.snapshot()
	body.Stream.Window = s.cfg.StreamWindow
	rc := reviewCounters(s.review.Stats())
	body.Review = &rc
	st := s.cfg.DB.PlanCacheStats()
	body.SQL = &SQLCounters{
		PlanHits: st.Hits, PlanMisses: st.Misses, PlanEntries: st.Entries,
		VecRuns: st.VecRuns, RowFallbacks: st.RowFallbacks, RowOnlyPlans: st.RowOnlyPlans,
		IndexBuilds: st.IndexBuilds, IndexProbes: st.IndexProbes, FoldHits: st.FoldHits, IndexJoins: st.IndexJoins,
	}
	if s.cfg.Resilience != nil {
		rs := s.cfg.Resilience()
		body.Resilience = &ResilienceCounters{
			Attempts:      rs.Attempts,
			Retries:       rs.Retries,
			Faults:        rs.Faults,
			RateLimited:   rs.RateLimited,
			Timeouts:      rs.Timeouts,
			Transient:     rs.Transient,
			Permanent:     rs.Permanent,
			Hedges:        rs.Hedges,
			HedgeWins:     rs.HedgeWins,
			BreakerTrips:  rs.BreakerTrips,
			BreakerSheds:  rs.BreakerSheds,
			BreakerProbes: rs.BreakerProbes,
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// handleHealthz answers GET /healthz: 200 "ok" while serving, 503 while
// draining so orchestrators stop routing here during shutdown.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// renderError writes an admission/await error with its envelope and, for
// shed responses, the Retry-After hint.
func (s *Server) renderError(w http.ResponseWriter, e *apiError) {
	retry := time.Duration(0)
	if e.retryAfter {
		retry = s.cfg.RetryAfter
	}
	writeError(w, e.status, e.code, e.msg, retry)
}
