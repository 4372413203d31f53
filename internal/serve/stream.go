package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
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
//   - Backpressure, not buffering: at most Config.StreamWindow+2 documents
//     per stream are admitted before one is answered. Past that the server
//     simply stops reading the request body, which TCP turns into client-side
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
// unary admission errors. queued runs once the job is on the queue, under
// handoff: the lock the stream's handler takes to see whether its pending
// queue is empty.
func (s *Server) admitStream(j *job, handoff *sync.Mutex, queued func()) *apiError {
	for {
		s.mu.RLock()
		if s.draining {
			s.mu.RUnlock()
			s.met.inc(&s.met.rejectedDraining)
			return &apiError{status: http.StatusServiceUnavailable, code: CodeDraining,
				msg: "server is draining; retry against another replica"}
		}
		handoff.Lock()
		select {
		case s.queue <- j:
			queued()
			handoff.Unlock()
			s.mu.RUnlock()
			return nil
		default:
		}
		handoff.Unlock()
		s.mu.RUnlock()
		select {
		case <-j.ctx.Done():
			s.met.inc(&s.met.deadlineExpired)
			return &apiError{status: http.StatusGatewayTimeout, code: CodeDeadlineExceeded,
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
	return stats.Dollars.Dollars() / float64(stats.Claims)
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

	// The reader admits a document and puts it on pending in one step under
	// handoff, and the handler looks for an empty pending under handoff too:
	// no batch can finish with one of its documents between the two, so the
	// handler never flushes a batch's verdicts apart. The reader takes room
	// first, so its send under handoff never blocks. Room for one document
	// past the window admits as many at once as a reader that admitted
	// first and then waited for room on pending did.
	pending := make(chan streamPending, s.cfg.StreamWindow+1)
	room := make(chan struct{}, s.cfg.StreamWindow+1)
	var handoff sync.Mutex
	// readerErr holds at most one terminal input-side error, read only after
	// pending closes (the channel buffer orders the memory accesses).
	readerErr := make(chan ErrorDetail, 1)
	var ended atomic.Bool // the body was read to its end
	go func() {
		defer close(pending)
		ended.Store(readStream(s.met, r, readerErr, nil, func(index int, in DocumentInput, _ []byte) bool {
			doc, err := buildDocument(in, s.cfg.DocID, s.cfg.DB)
			if err != nil {
				s.met.inc(&s.met.badRequests)
				readerErr <- ErrorDetail{Code: CodeBadRequest,
					Message: fmt.Sprintf("stream document %d: %v", index, err)}
				return false
			}
			select {
			case room <- struct{}{}:
			case <-ctx.Done():
				// The client is gone (or the deadline hit) with the window
				// full.
				return false
			}
			j := newJob(ctx, []*claim.Document{doc})
			if aerr := s.admitStream(j, &handoff, func() {
				pending <- streamPending{j: j, doc: doc, index: index}
			}); aerr != nil {
				readerErr <- ErrorDetail{Code: aerr.code, Message: aerr.msg}
				return false
			}
			return true
		}))
	}()

	sw := newStreamWriter(w)

	var sum StreamSummary
	// Stream documents may coalesce into shared micro-batches; fee totals
	// are summed once per distinct batch, not once per document.
	seenBatch := make(map[int64]bool)
	for {
		// Events are flushed only before the handler waits: on the reader
		// here, on the batch below.
		handoff.Lock()
		idle := len(pending) == 0
		handoff.Unlock()
		if idle {
			sw.flush()
		}
		p, ok := <-pending
		if !ok {
			break
		}
		<-room
		if !p.j.finished() {
			sw.flush()
		}
		res, aerr := s.await(ctx, p.j)
		if aerr != nil {
			sw.emit(&StreamEvent{Event: "error", DocID: p.doc.ID, Index: p.index,
				Error: &ErrorDetail{Code: aerr.code, Message: aerr.msg}})
			if ctx.Err() != nil {
				// Client gone or stream deadline hit: stop writing. Jobs still
				// pending complete in the batch loop, whose close of their
				// done channels never blocks — a dead client never wedges the
				// batcher.
				break
			}
			continue
		}
		fee := feeShare(res.stats)
		for _, c := range p.doc.Claims {
			cr := claimResult(c)
			id := s.reviewVerdict(p.doc, c, fee)
			if id != "" {
				sum.Reviewed++
			}
			sw.emit(&StreamEvent{Event: "verdict", DocID: p.doc.ID, Index: p.index, Claim: &cr, ReviewID: id})
		}
		sum.Docs++
		sum.Claims += len(p.doc.Claims)
		if !seenBatch[res.batch] {
			seenBatch[res.batch] = true
			sum.Dollars += res.stats.Dollars
			sum.Calls += res.stats.Calls
			sum.Batches = append(sum.Batches, res.batch)
		}
		s.met.addStreamDoc()
	}
	closeStream(ctx, s.met, started, sw, readerErr, sum.Docs, &sum, ended.Load())
}

// closeStream ends a stream response: the reader's terminal error, if it left
// one, as an error event at errIndex (read only now that the reader is done —
// the channel buffer orders the memory accesses); the request booked unless
// the client left or the deadline hit; then the closing summary, flushed. A
// stream whose body was not read to its end closes its connection after the
// reply (closeAfterReply).
func closeStream(ctx context.Context, m *serveMetrics, started time.Time, sw *streamWriter, readerErr <-chan ErrorDetail, errIndex int, sum *StreamSummary, ended bool) {
	select {
	case ed := <-readerErr:
		sw.emit(&StreamEvent{Event: "error", Index: errIndex, Error: &ed})
	default:
	}
	if ctx.Err() == nil {
		m.recordRequest(time.Since(started))
	}
	sw.emit(&StreamEvent{Event: "summary", Index: sum.Docs, Summary: sum})
	sw.flush()
	if !ended {
		closeAfterReply(sw.w)
	}
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
// each to admit with its arrival index and its bytes as the client sent them
// (valid until admit returns), until admit returns false or the body ends.
// It reports whether the body was read to its end, which a stream that
// stops early may still have done in its last read.
// idle, when not nil, runs before every read of the body, which may block. A
// document that fails to decode ends the stream with a bad_request on
// readerErr, which holds at most one terminal input-side error; a body that
// runs past maxBodyBytes ends it with too_large (the documents before the
// limit were admitted and are answered).
//
// Documents are read by the wire codec while it accepts them. The first one
// it declines, and everything after it, goes through a json.Decoder, which
// then also words any error: the stream reads as it did when the decoder
// read all of it.
func readStream(m *serveMetrics, r *http.Request, readerErr chan<- ErrorDetail, idle func(), admit func(index int, in DocumentInput, raw []byte) bool) (ended bool) {
	tap := &rawTap{r: limitBody(r), idle: idle}
	defer func() { ended = tap.err == io.EOF }()
	index := 0
	for ; ; index++ {
		raw, err := tap.nextObject()
		if err == io.EOF {
			return
		}
		var in DocumentInput
		if err != nil || !decodeDocument(raw, &in) {
			break
		}
		if !admit(index, in, raw) {
			return
		}
		tap.consume(len(raw))
	}
	dec := json.NewDecoder(tap)
	dec.DisallowUnknownFields()
	base := tap.base + int64(tap.next)
	for ; ; index++ {
		tap.drop(base + dec.InputOffset())
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
		raw := bytes.TrimLeft(tap.upTo(base+dec.InputOffset()), " \t\r\n")
		if !admit(index, in, raw) {
			return
		}
	}
}

// rawTap reads a stream body and keeps it from the end of the last document
// on, so that document's bytes can be handed on untouched. The codec reads
// documents from buf directly (nextObject); once it declines one, the tap is
// a json.Decoder's reader. Either way it reads the body only when everything
// read so far has been taken, calling idle first: that read is the one that
// may block.
type rawTap struct {
	r    io.Reader
	idle func()
	buf  []byte // the body from offset base on
	base int64
	next int   // buf[next:] is read but not yet taken
	err  error // the body's error, handed on once buf is drained
	// scan is how far nextObject has looked past next for the end of the
	// object it is reading, and depth and inString the state it reached.
	scan, depth int
	inString    bool
}

// tapRead is the least a rawTap asks of the body per read.
const tapRead = 4 << 10

// fill reads more of the body onto buf, calling idle first.
func (t *rawTap) fill() (int, error) {
	if t.err != nil {
		return 0, t.err
	}
	if t.idle != nil {
		t.idle()
	}
	if cap(t.buf)-len(t.buf) < tapRead {
		t.buf = append(make([]byte, 0, 2*cap(t.buf)+tapRead), t.buf...)
	}
	n, err := t.r.Read(t.buf[len(t.buf):cap(t.buf)])
	t.buf, t.err = t.buf[:len(t.buf)+n], err
	return n, err
}

func (t *rawTap) Read(p []byte) (int, error) {
	if t.next == len(t.buf) {
		if n, err := t.fill(); n == 0 {
			return 0, err
		}
	}
	n := copy(p, t.buf[t.next:])
	t.next += n
	return n, nil
}

// drop forgets the body before offset off.
func (t *rawTap) drop(off int64) {
	k := int(off - t.base)
	t.buf = t.buf[:copy(t.buf, t.buf[k:])]
	t.next -= k
	t.base = off
}

// upTo returns the body from the last drop to offset off.
func (t *rawTap) upTo(off int64) []byte { return t.buf[:off-t.base] }

// nextObject skips the whitespace before the next document and returns the
// bytes of the JSON object that starts there, reading the body until its
// closing brace: the span a json.Decoder would read for it, found by
// matching brackets outside strings. It returns io.EOF at the end of a body
// with no document left, and a non-nil error to hand the stream to the
// decoder: the next value is no object, holds a byte no JSON value outside
// a string can, or the body failed or ended within it. The whitespace is
// taken; the object is not until consume.
func (t *rawTap) nextObject() ([]byte, error) {
	for {
		for t.next < len(t.buf) && isSpace(t.buf[t.next]) {
			t.next++
		}
		if t.next < len(t.buf) {
			break
		}
		t.drop(t.base + int64(t.next))
		if n, err := t.fill(); n == 0 && err != nil {
			return nil, err
		}
	}
	if t.buf[t.next] != '{' {
		return nil, errDeclined
	}
	t.scan, t.depth, t.inString = t.next, 0, false
	for {
		for ; t.scan < len(t.buf); t.scan++ {
			c := t.buf[t.scan]
			if t.inString {
				switch c {
				case '\\':
					// Skip the escaped byte; past the end of buf, the scan
					// resumes after it once more is read.
					t.scan++
				case '"':
					t.inString = false
				}
				continue
			}
			switch c {
			case '"':
				t.inString = true
			case '{', '[':
				t.depth++
			case '}', ']':
				t.depth--
				if t.depth == 0 {
					t.scan++
					return t.buf[t.next:t.scan], nil
				}
			case ' ', '\t', '\n', '\r', ':', ',', '-', '+', '.',
				'0', '1', '2', '3', '4', '5', '6', '7', '8', '9',
				'a', 'e', 'f', 'l', 'n', 'r', 's', 't', 'u', 'E':
			default:
				return nil, errDeclined
			}
		}
		if n, err := t.fill(); n == 0 && err != nil {
			return nil, errDeclined
		}
	}
}

// consume takes the n bytes nextObject returned and forgets them.
func (t *rawTap) consume(n int) {
	t.next += n
	t.drop(t.base + int64(t.next))
}

// errDeclined hands a stream to the json.Decoder.
var errDeclined = errors.New("serve: declined by the wire codec")

// streamWriter writes a stream response's NDJSON events into the response's
// buffer and sends them on flush, which the handlers call only before they
// wait — on the request body's reader or on a batch — and after the summary.
type streamWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	buf     []byte // one event's bytes, in scratch unless the event is larger
	dirty   bool   // written since the last flush
	scratch [1024]byte
}

// newStreamWriter commits a stream response's headers: from here on,
// failures are in-band error events, not HTTP statuses. Full duplex keeps the
// request body readable after the first write — without it, an HTTP/1.x
// server discards unread input once the response starts, truncating the
// stream. The headers go out with the first flush.
func newStreamWriter(w http.ResponseWriter) *streamWriter {
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	sw := &streamWriter{w: w, flusher: flusher}
	sw.buf = sw.scratch[:0]
	return sw
}

func (sw *streamWriter) emit(ev *StreamEvent) {
	sw.buf = ev.appendJSON(sw.buf[:0])
	_, _ = sw.w.Write(sw.buf)
	sw.dirty = true
}

// flush sends the events written since the last flush, if any.
func (sw *streamWriter) flush() {
	if sw.dirty && sw.flusher != nil {
		sw.flusher.Flush()
	}
	sw.dirty = false
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
	body, ok := decodeBody(m, w, r, func(b []byte) error { return decodeJSON(b, &req) })
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
