package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/review"
	"repro/internal/shard"
)

// The coordinator's streaming surface mirrors the replica's: NDJSON
// documents in, NDJSON events out. Each document is proxied — as its own
// one-document stream — to the replica owning its shard key, up to
// StreamWindow documents concurrently; events relay back in arrival order
// with review IDs preserved (they are content fingerprints, identical on
// every replica). The review surface is two folds over the one broadcast
// (Coordinator.broadcast): GET /v1/review merges every live replica's queue
// into one deterministically ranked list, and POST /v1/review/{id} sends the
// resolution everywhere so a claim rehashed across replicas resolves wherever
// it was enqueued.

// streamRelay is the outcome of proxying one streamed document.
type streamRelay struct {
	docID  string
	node   string        // the replica that answered (fee-dedup key)
	events []StreamEvent // verdict events, review IDs preserved
	sum    StreamSummary // the replica's per-document summary
	errDet *ErrorDetail  // terminal failure for this document
}

// handleVerifyStream answers POST /v1/verify/stream on the coordinator. A
// reader goroutine decodes, routes, and dispatches documents — stalling when
// StreamWindow relays are in flight — while the handler goroutine writes
// each document's events in arrival order.
func (c *Coordinator) handleVerifyStream(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if c.rejectDraining(w) || oversize(c.met, w, r) {
		return
	}
	ctx, cancel := requestContext(r, c.cfg.RequestTimeout)
	defer cancel()
	c.met.inc(&c.met.streams)

	results := make(chan chan streamRelay, c.cfg.StreamWindow)
	readerErr := make(chan ErrorDetail, 1)
	go func() {
		defer close(results)
		readStream(c.met, r, readerErr, func(_ int, in DocumentInput) bool {
			ch := make(chan streamRelay, 1)
			select {
			case results <- ch:
			case <-ctx.Done():
				return false
			}
			go func() { ch <- c.relayStreamDoc(ctx, in) }()
			return true
		})
	}()

	emit := streamEmitter(w)

	var sum StreamSummary
	// Relay summaries report whole-batch totals. Two of this stream's
	// documents coalesced into one micro-batch on their shared replica would
	// double-count, so fees sum once per distinct (replica, batch ordinal) —
	// the ordinals ride back on the relay summary's Batches field.
	type batchKey struct {
		node  string
		batch int64
	}
	seenBatch := make(map[batchKey]bool)
	index := 0
	for ch := range results {
		rel := <-ch
		if rel.errDet != nil {
			emit(StreamEvent{Event: "error", DocID: rel.docID, Index: index, Error: rel.errDet})
			index++
			continue
		}
		for _, ev := range rel.events {
			ev.Index = index // the stream-global arrival ordinal, not the replica's
			emit(ev)
		}
		sum.Docs++
		sum.Claims += rel.sum.Claims
		sum.Reviewed += rel.sum.Reviewed
		fresh := true
		for _, b := range rel.sum.Batches {
			key := batchKey{rel.node, b}
			fresh = fresh && !seenBatch[key]
			seenBatch[key] = true
		}
		if fresh {
			sum.Dollars += rel.sum.Dollars
			sum.Calls += rel.sum.Calls
		}
		c.met.addStreamDoc()
		index++
	}
	closeStream(ctx, c.met, started, emit, readerErr, index, &sum)
}

// relayStreamDoc proxies one streamed document to the replica owning its
// shard key as a one-document stream, and parses the replica's event lines
// back. A replica lost after delivery surfaces as a replica_lost error event
// (the proxy refuses to failover work that may already have run and billed);
// pre-delivery failures failed over transparently inside the proxy.
func (c *Coordinator) relayStreamDoc(ctx context.Context, in DocumentInput) streamRelay {
	key, docID := c.routeKey(in.DocID, in.Claims)
	rel := streamRelay{docID: docID}
	fail := func(det ErrorDetail) streamRelay {
		rel.errDet = &det
		return rel
	}
	body, err := json.Marshal(in)
	if err != nil {
		c.met.inc(&c.met.internalErrors)
		return fail(ErrorDetail{Code: CodeInternal, Message: err.Error()})
	}
	res, err := c.proxy.Do(ctx, key, "/v1/verify/stream", append(body, '\n'))
	if err != nil {
		_, det := c.proxyErrorDetail(err)
		return fail(det)
	}
	rel.node = res.Node
	c.bookRoute(docID, res)
	c.countRelay(res.Status)
	if res.Status != http.StatusOK {
		var eb ErrorBody
		if json.Unmarshal(res.Body, &eb) == nil && eb.Error.Code != "" {
			return fail(eb.Error)
		}
		return fail(ErrorDetail{Code: CodeInternal, Message: fmt.Sprintf("replica answered status %d", res.Status)})
	}
	for dec := json.NewDecoder(bytes.NewReader(res.Body)); ; {
		var ev StreamEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return rel
		} else if err != nil {
			return fail(ErrorDetail{Code: CodeInternal, Message: fmt.Sprintf("parsing replica stream: %v", err)})
		}
		switch ev.Event {
		case "verdict":
			rel.events = append(rel.events, ev)
		case "summary":
			if ev.Summary != nil {
				rel.sum = *ev.Summary
			}
		case "error":
			if ev.Error != nil {
				return fail(*ev.Error)
			}
			return fail(ErrorDetail{Code: CodeInternal, Message: "replica stream error"})
		}
	}
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
