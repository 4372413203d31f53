package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/claim"
	"repro/internal/review"
	"repro/internal/verify"
)

// The streaming verification surface: POST /v1/verify/stream turns the
// request/response server into an incremental pipeline. The client writes
// NDJSON documents (the DocumentInput shape, one per line) and reads NDJSON
// StreamEvents back — per-claim verdicts as soon as each document's
// micro-batch lands, then a closing summary. Two invariants anchor it:
//
//   - Backpressure, not buffering: at most Config.StreamWindow documents per
//     stream are admitted but unanswered. Past the window the server simply
//     stops reading the request body, which TCP turns into client-side
//     backpressure; a slow producer costs the server nothing and a fast one
//     cannot queue unbounded work.
//   - Determinism survives streaming: every streamed document becomes an
//     ordinary micro-batch job through the same admission queue and batch
//     loop as POST /v1/verify, and CEDAR's splittable seeding makes verdicts
//     independent of batch composition and arrival order — so a streamed
//     corpus answers bit-identically to the same corpus POSTed as one batch
//     (the `make stream` gate proves it end to end).
//
// Ambiguous verdicts — transport-failed, semantically exhausted, or settled
// only after method disagreement — are enqueued for human review on every
// verification route; stream events carry the review ID inline.

// streamPending is one admitted stream document awaiting its verdicts.
type streamPending struct {
	j     *job
	doc   *claim.Document
	index int
}

// admitStream admits one streamed document's job, blocking while the queue
// is full instead of shedding with 429: the stream window already bounds
// what one stream can pin, so waiting for a slot is backpressure, not
// unbounded queueing. Draining and deadline still reject, shaped like the
// unary admission errors.
func (s *Server) admitStream(ctx context.Context, docs []*claim.Document) (*job, *apiError) {
	j := newJob(ctx, docs)
	for {
		s.mu.RLock()
		if s.draining {
			s.mu.RUnlock()
			s.met.inc(&s.met.rejectedDraining)
			return nil, &apiError{status: http.StatusServiceUnavailable, code: CodeDraining,
				msg: "server is draining; retry against another replica"}
		}
		select {
		case s.queue <- j:
			s.mu.RUnlock()
			return j, nil
		default:
		}
		s.mu.RUnlock()
		select {
		case <-ctx.Done():
			s.met.inc(&s.met.deadlineExpired)
			return nil, &apiError{status: http.StatusGatewayTimeout, code: CodeDeadlineExceeded,
				msg: "request deadline expired waiting for an admission slot"}
		case <-time.After(time.Millisecond):
		}
	}
}

// reviewVerdict enqueues one verified claim for human review when its
// verdict is ambiguous, returning the review ID ("" when the claim was not
// enqueued — agreement, an already-resolved ID, or a full queue it did not
// outrank). feeSunk is the claim's share of its batch's fee.
func (s *Server) reviewVerdict(doc *claim.Document, c *claim.Claim, feeSunk float64) string {
	d := verify.Disagreement(c.Result)
	if d <= 0 {
		return ""
	}
	ok := s.review.Enqueue(review.Item{
		DocID:        doc.ID,
		ClaimID:      c.ID,
		Sentence:     c.Sentence,
		Value:        c.Value,
		Verified:     c.Result.Verified,
		Correct:      c.Result.Correct,
		Method:       c.Result.Method,
		Attempts:     c.Result.Attempts,
		Failure:      c.Result.Failure,
		Disagreement: d,
		FeeSunk:      feeSunk,
		Weight:       1,
	})
	if !ok {
		return ""
	}
	return review.ItemID(doc.ID, c.ID, c.Sentence, c.Value)
}

// reviewDocuments runs reviewVerdict over every claim of a finished batch,
// returning how many were enqueued. The unary and batch handlers call it for
// its side effect; the stream handler re-derives per-claim IDs itself so it
// can put them on the wire.
func (s *Server) reviewDocuments(docs []*claim.Document, stats BatchStats) int {
	fee := feeShare(stats)
	n := 0
	for _, doc := range docs {
		for _, c := range doc.Claims {
			if s.reviewVerdict(doc, c, fee) != "" {
				n++
			}
		}
	}
	return n
}

// feeShare is the per-claim share of a batch's fee — the "fee sunk" input of
// the review priority.
func feeShare(stats BatchStats) float64 {
	if stats.Claims <= 0 {
		return 0
	}
	return stats.Dollars / float64(stats.Claims)
}

// handleVerifyStream answers POST /v1/verify/stream. A reader goroutine
// decodes and admits documents — it stalls (and stops reading the socket)
// whenever the in-flight window is full — while the handler goroutine awaits
// each document's batch in arrival order and streams its verdict events. The
// split means verification of document N+1..N+window proceeds while document
// N's verdicts are being written.
func (s *Server) handleVerifyStream(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if oversize(s.met, w, r) {
		return
	}
	ctx, cancel := requestContext(r, s.cfg.RequestTimeout)
	defer cancel()
	s.met.inc(&s.met.streams)

	pending := make(chan streamPending, s.cfg.StreamWindow)
	// readerErr holds at most one terminal input-side error, read only after
	// pending closes (the channel buffer orders the memory accesses).
	readerErr := make(chan ErrorDetail, 1)
	go func() {
		defer close(pending)
		readStream(s.met, r, readerErr, func(index int, in DocumentInput) bool {
			doc, err := buildDocument(in, s.cfg.DocID, s.cfg.DB)
			if err != nil {
				s.met.inc(&s.met.badRequests)
				readerErr <- ErrorDetail{Code: CodeBadRequest,
					Message: fmt.Sprintf("stream document %d: %v", index, err)}
				return false
			}
			j, aerr := s.admitStream(ctx, []*claim.Document{doc})
			if aerr != nil {
				readerErr <- ErrorDetail{Code: aerr.code, Message: aerr.msg}
				return false
			}
			select {
			case pending <- streamPending{j: j, doc: doc, index: index}:
				return true
			case <-ctx.Done():
				// The client is gone (or the deadline hit) with the window
				// full. The admitted job's done channel is buffered, so the
				// batch loop finishes it without anyone waiting.
				return false
			}
		})
	}()

	emit := streamEmitter(w)

	var sum StreamSummary
	// Stream documents may coalesce into shared micro-batches; fee totals
	// are summed once per distinct batch, not once per document.
	seenBatch := make(map[int64]bool)
	for p := range pending {
		res, aerr := s.await(ctx, p.j)
		if aerr != nil {
			emit(StreamEvent{Event: "error", DocID: p.doc.ID, Index: p.index,
				Error: &ErrorDetail{Code: aerr.code, Message: aerr.msg}})
			if ctx.Err() != nil {
				// Client gone or stream deadline hit: stop writing. Jobs still
				// pending complete in the batch loop against their buffered
				// done channels — a dead client never wedges the batcher.
				break
			}
			continue
		}
		fee := feeShare(res.stats)
		dr := documentResult(p.doc)
		for ci := range dr.Claims {
			cr := dr.Claims[ci]
			id := s.reviewVerdict(p.doc, p.doc.Claims[ci], fee)
			if id != "" {
				sum.Reviewed++
			}
			emit(StreamEvent{Event: "verdict", DocID: dr.DocID, Index: p.index, Claim: &cr, ReviewID: id})
		}
		sum.Docs++
		sum.Claims += len(dr.Claims)
		if !seenBatch[res.batch] {
			seenBatch[res.batch] = true
			sum.Dollars += res.stats.Dollars
			sum.Calls += res.stats.Calls
			sum.Batches = append(sum.Batches, res.batch)
		}
		s.met.addStreamDoc()
	}
	closeStream(ctx, s.met, started, emit, readerErr, sum.Docs, &sum)
}

// closeStream ends a stream response: the reader's terminal error, if it left
// one, as an error event at errIndex (read only now that the reader is done —
// the channel buffer orders the memory accesses); the request booked unless
// the client left or the deadline hit; then the closing summary.
func closeStream(ctx context.Context, m *serveMetrics, started time.Time, emit func(StreamEvent), readerErr <-chan ErrorDetail, errIndex int, sum *StreamSummary) {
	select {
	case ed := <-readerErr:
		emit(StreamEvent{Event: "error", Index: errIndex, Error: &ed})
	default:
	}
	if ctx.Err() == nil {
		m.recordRequest(time.Since(started))
	}
	emit(StreamEvent{Event: "summary", Index: sum.Docs, Summary: sum})
}

// reviewCounters renders a queue snapshot onto the wire shape shared by
// GET /v1/review and the /v1/metrics review section.
func reviewCounters(st review.Stats) ReviewCounters {
	return ReviewCounters{
		Depth:       st.Depth,
		Enqueued:    st.Enqueued,
		Resolved:    st.Resolved,
		Dropped:     st.Dropped,
		OldestAgeMS: st.OldestAge.Milliseconds(),
		MaxPriority: st.MaxPriority,
	}
}

// readStream decodes the NDJSON documents of a stream request body, handing
// each to admit with its arrival index until admit returns false or the body
// ends. A document that fails to decode ends the stream with a bad_request on
// readerErr, which holds at most one terminal input-side error; a body that
// runs past maxBodyBytes ends it with too_large (the documents before the
// limit were admitted and are answered).
func readStream(m *serveMetrics, r *http.Request, readerErr chan<- ErrorDetail, admit func(index int, in DocumentInput) bool) {
	dec := json.NewDecoder(limitBody(r))
	dec.DisallowUnknownFields()
	for index := 0; ; index++ {
		var in DocumentInput
		if err := dec.Decode(&in); err != nil {
			switch {
			case err == io.EOF:
			case isTooLarge(err):
				m.inc(&m.badRequests)
				readerErr <- ErrorDetail{Code: CodeTooLarge, Message: tooLargeMessage}
			default:
				m.inc(&m.badRequests)
				readerErr <- ErrorDetail{Code: CodeBadRequest,
					Message: fmt.Sprintf("decoding stream document %d: %v", index, err)}
			}
			return
		}
		if !admit(index, in) {
			return
		}
	}
}

// streamEmitter commits a stream response's headers and returns its event
// writer: one flushed NDJSON line per event. Headers commit before the first
// verdict; from here on, failures are in-band error events, not HTTP
// statuses. Full duplex keeps the request body readable after the first write
// — without it, an HTTP/1.x server discards unread input once the response
// starts, truncating the stream.
func streamEmitter(w http.ResponseWriter) func(StreamEvent) {
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	return func(ev StreamEvent) {
		_ = enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// reviewLimit reads GET /v1/review's ?limit=N (0 = everything), answering 400
// for anything but a non-negative integer.
func reviewLimit(m *serveMetrics, w http.ResponseWriter, r *http.Request) (int, bool) {
	v := r.URL.Query().Get("limit")
	if v == "" {
		return 0, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		badRequest(m, w, "limit must be a non-negative integer")
		return 0, false
	}
	return n, true
}

// decodeResolve decodes and validates the body of POST /v1/review/{id},
// returning the raw bytes too so a coordinator can broadcast them.
func decodeResolve(m *serveMetrics, w http.ResponseWriter, r *http.Request) (ReviewResolveRequest, []byte, bool) {
	var req ReviewResolveRequest
	body, ok := decodeBody(m, w, r, &req)
	if ok && !review.ValidResolution(req.Resolution) {
		badRequest(m, w, fmt.Sprintf("resolution must be %q or %q", review.ResolutionConfirmed, review.ResolutionOverturned))
		ok = false
	}
	return req, body, ok
}

// handleReviewList answers GET /v1/review: the pending review items in
// deterministic review order (priority descending, ID ascending), optionally
// truncated by ?limit=N.
func (s *Server) handleReviewList(w http.ResponseWriter, r *http.Request) {
	limit, ok := reviewLimit(s.met, w, r)
	if !ok {
		return
	}
	items := s.review.Pending(limit)
	if items == nil {
		items = []review.Item{}
	}
	writeJSON(w, http.StatusOK, ReviewListResponse{Items: items, Stats: reviewCounters(s.review.Stats())})
}

// handleReviewResolve answers POST /v1/review/{id}: it records the human
// verdict for one pending item and returns the resolved item. Resolution is
// idempotent — the first resolution wins and repeats return it unchanged —
// so a retried resolve (e.g. replayed through the failover proxy) cannot
// flip a verdict twice.
func (s *Server) handleReviewResolve(w http.ResponseWriter, r *http.Request) {
	req, _, ok := decodeResolve(s.met, w, r)
	if !ok {
		return
	}
	it, ok := s.review.Resolve(r.PathValue("id"), req.Resolution, req.Note)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no review item with that id", 0)
		return
	}
	writeJSON(w, http.StatusOK, it)
}
