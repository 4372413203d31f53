package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/review"
	"repro/internal/shard"
)

// The coordinator's streaming surface mirrors the replica's: NDJSON
// documents in, NDJSON events out. Each document is routed by the ring as
// soon as it is read and queued, as the bytes the client sent, for its owner.
// A session keeps at most one exchange in flight with each replica: a POST
// /v1/verify/stream carrying every document queued for that replica when it
// starts. A replica's next exchange starts when its last one ends, or when
// the session's reader is about to block — on the client's body, on
// StreamWindow, or at the end — so documents read together reach their
// replica together, in one exchange instead of one each. A document's events
// go back once its exchange has ended, because the exchange's closing
// summary is what carries the fee: a verdict reaches the client only with its
// fee booked, as when each document was its own exchange, and two of a
// session's exchanges with one replica never share a micro-batch, so their
// summaries add up. Events go back in session order, re-indexed, with review
// IDs preserved (they are content fingerprints, identical on every replica).
// The review surface is two folds over the one broadcast
// (Coordinator.broadcast): GET /v1/review merges every live replica's queue
// into one deterministically ranked list, and POST /v1/review/{id} sends the
// resolution everywhere so a claim rehashed across replicas resolves wherever
// it was enqueued.

// streamDoc is one document of a coordinator stream session, from the read
// that routed it to the answer the handler emits. The exchange carrying it
// files its events; the session's lock guards the rest until done is closed,
// and then the handler reads it.
type streamDoc struct {
	index  int
	docID  string
	claims int      // verdict events that complete it
	nodes  []string // failover order, owner first
	hop    int      // position in nodes of the replica tried now
	err    error    // why the last replica tried did not take it
	// off and end bound its bytes in the body of the exchange carrying it.
	off, end int
	// node and status are the replica that answered it and its HTTP status
	// (0: no replica did).
	node     string
	status   int
	verdicts []StreamEvent
	errDet   *ErrorDetail // terminal failure for this document
	// settled is set once the answer is filed, before done closes.
	settled atomic.Bool
	done    chan struct{}
}

// answer answers d alone.
func (d *streamDoc) answer(det *ErrorDetail) {
	d.settle(det)
	close(d.done)
}

// settle files d's answer without closing done. An exchange settles every
// document it answers before it closes any, so a handler woken by one of
// them finds the others settled and writes their events together.
func (d *streamDoc) settle(det *ErrorDetail) {
	d.errDet = det
	d.settled.Store(true)
}

// streamSession is one client stream's traffic to the replicas.
type streamSession struct {
	c   *Coordinator
	ctx context.Context
	wg  sync.WaitGroup // one per exchange

	mu     sync.Mutex
	owners map[string]*ownerQueue
	fees   StreamSummary // Dollars and Calls of the exchanges that ended with a summary
}

// ownerQueue is a session's traffic to one replica: the documents waiting
// for its next exchange, their bytes, and whether an exchange is in flight.
type ownerQueue struct {
	busy bool
	docs []*streamDoc
	body []byte
}

// handleVerifyStream answers POST /v1/verify/stream on the coordinator. A
// reader goroutine decodes, validates, routes and queues documents — stalling
// once StreamWindow+1 of them are placed and unanswered, with one more read —
// while the handler goroutine writes each document's events in arrival order.
func (c *Coordinator) handleVerifyStream(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if c.rejectDraining(w) || oversize(c.met, w, r) {
		return
	}
	ctx, cancel := requestContext(r, c.cfg.RequestTimeout)
	defer cancel()
	c.met.inc(&c.met.streams)

	s := &streamSession{c: c, ctx: ctx, owners: make(map[string]*ownerQueue)}
	results := make(chan *streamDoc, c.cfg.StreamWindow)
	readerErr := make(chan ErrorDetail, 1)
	var ended atomic.Bool // the body was read to its end
	go func() {
		defer close(results)
		defer s.flush()
		ended.Store(readStream(c.met, r, readerErr, s.flush, func(index int, in DocumentInput, raw []byte) bool {
			key, docID := c.routeKey(in.DocID, in.Claims)
			d := &streamDoc{index: index, docID: docID, claims: len(in.Claims), done: make(chan struct{})}
			select {
			case results <- d:
			default:
				s.flush()
				select {
				case results <- d:
				case <-ctx.Done():
					return false
				}
			}
			// A replica ends its whole stream on a document it refuses, so an
			// exchange only carries documents it will accept.
			if _, err := buildDocument(in, c.cfg.DocID, nil); err != nil {
				c.met.inc(&c.met.badRequests)
				d.answer(&ErrorDetail{Code: CodeBadRequest, Message: fmt.Sprintf("stream document %d: %v", index, err)})
				return true
			}
			d.nodes = c.proxy.Successors(key)
			s.mu.Lock()
			s.placeLocked(d, raw)
			s.mu.Unlock()
			return true
		}))
	}()

	sw := newStreamWriter(w)

	var sum StreamSummary
	read := 0
	for {
		// Events are flushed only before the handler waits: on the reader
		// here, on the document's exchange below.
		if len(results) == 0 {
			sw.flush()
		}
		d, ok := <-results
		if !ok {
			break
		}
		if !d.settled.Load() {
			sw.flush()
		}
		<-d.done
		read++
		if d.status != 0 {
			c.traceRoute(d.docID, d.node, d.hop, d.status)
		}
		if d.errDet != nil {
			sw.emit(&StreamEvent{Event: "error", DocID: d.docID, Index: d.index, Error: d.errDet})
			continue
		}
		for i := range d.verdicts {
			ev := &d.verdicts[i]
			ev.Index = d.index // the session's arrival ordinal, not the replica's
			sw.emit(ev)
			if ev.ReviewID != "" {
				sum.Reviewed++
			}
		}
		sum.Docs++
		sum.Claims += len(d.verdicts)
		c.met.addStreamDoc()
	}
	s.wg.Wait()
	sum.Dollars, sum.Calls = s.fees.Dollars, s.fees.Calls
	closeStream(ctx, c.met, started, sw, readerErr, read, &sum, ended.Load())
}

// placeLocked queues d's bytes for the replica at d.hop along its failover
// order, or answers d once the order has run out.
func (s *streamSession) placeLocked(d *streamDoc, raw []byte) {
	if d.hop == len(d.nodes) {
		err := shard.ErrNoReplicas
		if d.hop > 0 {
			err = fmt.Errorf("shard: all %d replica(s) failed, last: %w", len(d.nodes), d.err)
		}
		_, det := s.c.proxyErrorDetail(err)
		d.answer(&det)
		return
	}
	node := d.nodes[d.hop]
	q := s.owners[node]
	if q == nil {
		q = &ownerQueue{}
		s.owners[node] = q
	}
	d.off = len(q.body)
	q.body = append(q.body, raw...)
	d.end = len(q.body)
	q.docs = append(q.docs, d)
}

// flush starts an exchange with each replica that has documents queued and
// none in flight. The reader calls it before anything that can block, and
// every exchange as it ends.
func (s *streamSession) flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
}

func (s *streamSession) flushLocked() {
	for node, q := range s.owners {
		if q.busy || len(q.docs) == 0 {
			continue
		}
		s.wg.Add(1)
		go s.exchange(node, q.docs, q.body)
		q.busy, q.docs, q.body = true, nil, nil
	}
}

// exchange sends docs to node as one stream request. Once it has ended, each
// document is answered, or moved on along its failover order if none of its
// bytes reached node or node was draining, and the session's next exchanges
// start. Only an answer that ended with its summary books fees.
func (s *streamSession) exchange(node string, docs []*streamDoc, body []byte) {
	defer s.wg.Done()
	x := &exchangeReply{docs: docs}
	res, taken, err := s.c.proxy.Send(s.ctx, node, "/v1/verify/stream", body, x.line)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil && x.fault == nil && x.sum != nil {
		s.fees.Dollars += x.sum.Dollars
		s.fees.Calls += x.sum.Calls
	}
	relayed := false
	var answered []*streamDoc
	for _, d := range docs {
		answer := func(det *ErrorDetail) {
			d.settle(det)
			answered = append(answered, d)
		}
		move := func(why error) {
			d.err = why
			d.hop++
			s.placeLocked(d, body[d.off:d.end])
		}
		switch {
		case err != nil && d.end > taken && s.ctx.Err() == nil:
			move(err)
		case err != nil && d.end > taken:
			_, det := s.c.proxyErrorDetail(err)
			answer(&det)
		case err != nil:
			// Its claims may have run and been billed, so it never goes
			// elsewhere.
			_, det := s.c.proxyErrorDetail(fmt.Errorf("%v: %w", err, shard.ErrAfterDelivery))
			answer(&det)
		case res.Status == http.StatusServiceUnavailable && d.hop < len(d.nodes)-1:
			move(fmt.Errorf("replica %s: draining (503)", node))
		default:
			relayed = true
			d.node, d.status = node, res.Status
			answer(x.outcome(d, res))
		}
	}
	for _, d := range answered {
		close(d.done)
	}
	if relayed {
		s.c.routed.Add(1)
		s.c.countRelay(res.Status)
	}
	s.owners[node].busy = false
	s.flushLocked()
}

// exchangeReply reads one exchange's answer a line at a time, filing each
// event under the document the replica numbers it by: its place in the
// exchange.
type exchangeReply struct {
	docs  []*streamDoc
	sum   *StreamSummary
	cause *ErrorDetail // the last error event naming no document
	fault *ErrorDetail // why the relay stopped reading
}

func (x *exchangeReply) line(line []byte) bool {
	var ev StreamEvent
	if !decodeStreamEvent(line, &ev) {
		slow := new(StreamEvent) // ev itself stays off the heap
		if err := json.Unmarshal(line, slow); err != nil {
			x.fault = &ErrorDetail{Code: CodeInternal, Message: fmt.Sprintf("parsing replica stream: %v", err)}
			return false
		}
		ev = *slow
	}
	switch {
	case ev.Event == "summary":
		x.sum = &StreamSummary{}
		if ev.Summary != nil {
			x.sum = ev.Summary
		}
	case ev.Event == "error" && ev.DocID == "":
		x.cause = errorOf(ev)
	case ev.Event != "verdict" && ev.Event != "error":
	case ev.Index < 0 || ev.Index >= len(x.docs):
		x.fault = &ErrorDetail{Code: CodeInternal,
			Message: fmt.Sprintf("parsing replica stream: no document %d in this exchange", ev.Index)}
		return false
	case ev.Event == "verdict":
		d := x.docs[ev.Index]
		d.verdicts = append(d.verdicts, ev)
	default:
		x.docs[ev.Index].errDet = errorOf(ev)
	}
	return true
}

// outcome is what a replica's answer says of d: nil when it carried all of
// d's verdicts, else d's error.
func (x *exchangeReply) outcome(d *streamDoc, res shard.Result) *ErrorDetail {
	switch {
	case res.Status != http.StatusOK:
		var eb ErrorBody
		if json.Unmarshal(res.Body, &eb) == nil && eb.Error.Code != "" {
			return &eb.Error
		}
		return &ErrorDetail{Code: CodeInternal, Message: fmt.Sprintf("replica answered status %d", res.Status)}
	case x.fault != nil:
		return x.fault
	case d.errDet != nil:
		return d.errDet
	case len(d.verdicts) == d.claims:
		return nil
	case x.cause != nil:
		return x.cause
	}
	return &ErrorDetail{Code: CodeReplicaLost,
		Message: fmt.Sprintf("replica %s: stream ended without this document's verdicts", res.Node)}
}

// errorOf is an error event's failure.
func errorOf(ev StreamEvent) *ErrorDetail {
	if ev.Error != nil {
		return ev.Error
	}
	return &ErrorDetail{Code: CodeInternal, Message: "replica stream error"}
}

// handleReviewList answers GET /v1/review by merging every live replica's
// pending queue. Item IDs are content fingerprints and the rank order is
// deterministic, so the merged list is identical however the keyspace is
// currently sharded; duplicates (a claim enqueued on two replicas across a
// rehash) collapse by ID. A replica that cannot answer fails the request: a
// partial queue would silently hide its items.
func (c *Coordinator) handleReviewList(w http.ResponseWriter, r *http.Request) {
	limit, ok := reviewLimit(c.met, w, r)
	if !ok {
		return
	}
	var (
		items  = []review.Item{}
		seen   = map[string]bool{}
		stats  ReviewCounters
		failed error
	)
	if !c.broadcast(w, r, r.URL.EscapedPath(), nil, func(res shard.Result, err error) bool {
		var parsed ReviewListResponse
		if err == nil {
			if res.Status != http.StatusOK {
				err = fmt.Errorf("status %d", res.Status)
			} else {
				err = json.Unmarshal(res.Body, &parsed)
			}
			if err != nil {
				err = fmt.Errorf("replica %s: %v", res.Node, err)
			}
		}
		if err != nil {
			failed = err
			return false
		}
		for _, it := range parsed.Items {
			if !seen[it.ID] {
				seen[it.ID] = true
				items = append(items, it)
			}
		}
		stats.Enqueued += parsed.Stats.Enqueued
		stats.Resolved += parsed.Stats.Resolved
		stats.Dropped += parsed.Stats.Dropped
		stats.OldestAgeMS = max(stats.OldestAgeMS, parsed.Stats.OldestAgeMS)
		stats.MaxPriority = max(stats.MaxPriority, parsed.Stats.MaxPriority)
		return true
	}) {
		return
	}
	if failed != nil {
		c.met.inc(&c.met.internalErrors)
		writeError(w, http.StatusBadGateway, CodeInternal, failed.Error(), 0)
		return
	}
	review.SortItems(items)
	if limit > 0 && len(items) > limit {
		items = items[:limit]
	}
	stats.Depth = len(seen)
	writeJSON(w, http.StatusOK, ReviewListResponse{Items: items, Stats: stats})
}

// handleReviewResolve broadcasts POST /v1/review/{id} to every live replica:
// the item lives on the replica that verified the claim, but after a rehash
// it may be pending on more than one, and resolving everywhere —
// idempotently, first resolution wins — keeps the tier agreeing with the
// human. The first replica that knows the item answers for the tier.
func (c *Coordinator) handleReviewResolve(w http.ResponseWriter, r *http.Request) {
	_, body, ok := decodeResolve(c.met, w, r)
	if !ok {
		return
	}
	var (
		resolved  *shard.Result
		reachable bool
	)
	if !c.broadcast(w, r, r.URL.EscapedPath(), body, func(res shard.Result, err error) bool {
		if err == nil {
			reachable = true
			if res.Status == http.StatusOK && resolved == nil {
				resolved = &res
			}
		}
		return true
	}) {
		return
	}
	switch {
	case resolved != nil:
		c.relay(w, *resolved)
	case reachable:
		writeError(w, http.StatusNotFound, CodeNotFound, "no review item with that id", 0)
	default:
		c.renderProxyError(w, shard.ErrNoReplicas)
	}
}
