package serve

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/shard"
)

// coordinator_datasets.go fans the /v1/datasets routes out across the
// replica tier. Unlike verification requests — routed to one owner by shard
// key — a dataset mutation must reach every replica: ring routing is only
// deterministic when all replicas hold the same catalog, so a claim over an
// ingested table verifies identically wherever its key lands. Each route is
// a fold over the one broadcast (Coordinator.broadcast): POST relays the raw
// body to every live replica and fails if any replica fails (ingestion is
// deterministic, so replicas that did succeed hold the same catalog a retry
// will re-apply idempotently); reads answer from the first replica that
// answers; DELETE succeeds if any replica knew the dataset.

// mutate broadcasts a catalog mutation. It must reach every live replica, so
// it stops at the first one it cannot reach and answers 502 naming it — hint
// tells the caller how to converge the replicas already written. each sees
// every replica's answer and returns false to stop early. mutate reports
// whether the answer is still the caller's to write.
func (c *Coordinator) mutate(w http.ResponseWriter, r *http.Request, uri string, body []byte, hint string, each func(shard.Result) bool) bool {
	var failed error
	if !c.broadcast(w, r, uri, body, func(res shard.Result, err error) bool {
		failed = err
		return err == nil && each(res)
	}) {
		return false
	}
	if failed != nil {
		c.met.inc(&c.met.internalErrors)
		writeError(w, http.StatusBadGateway, CodeInternal, fmt.Sprintf("%v (%s)", failed, hint), 0)
		return false
	}
	return true
}

// handleDatasetBroadcastCreate answers POST /v1/datasets by replaying the
// request body on every live replica. All replicas must succeed: a partial
// catalog would break routing determinism, so any failure fails the request
// (naming the replica), and the caller re-POSTs — ingestion is deterministic,
// so replicas that already applied it converge idempotently.
func (c *Coordinator) handleDatasetBroadcastCreate(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if c.rejectDraining(w) {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxDatasetBody))
	if err != nil {
		badRequest(c.met, w, fmt.Sprintf("reading request body: %v", err))
		return
	}
	var first, rejected *shard.Result
	if !c.mutate(w, r, r.URL.RequestURI(), body, "catalog may be partially applied; re-POST to converge",
		func(res shard.Result) bool {
			if res.Status != http.StatusOK {
				// The replica rejected the ingestion (bad data, name collision).
				// Replicas are deterministic, so the first rejection speaks for
				// the tier; relay its error envelope.
				rejected = &res
			} else if first == nil {
				first = &res
			}
			return rejected == nil
		}) {
		return
	}
	if rejected != nil {
		c.relay(w, *rejected)
		return
	}
	c.met.recordRequest(time.Since(started))
	c.relay(w, *first)
}

// handleDatasetRelay answers GET /v1/datasets and GET /v1/datasets/{name}
// from the first live replica that answers — every replica holds the same
// registry when mutations flow through this coordinator.
func (c *Coordinator) handleDatasetRelay(w http.ResponseWriter, r *http.Request) {
	var answer *shard.Result
	if !c.broadcast(w, r, r.URL.EscapedPath(), nil, func(res shard.Result, err error) bool {
		if err == nil {
			answer = &res
		}
		return answer == nil // an unreachable replica is skipped
	}) {
		return
	}
	if answer == nil {
		c.renderProxyError(w, shard.ErrNoReplicas)
		return
	}
	c.relay(w, *answer)
}

// handleDatasetBroadcastDelete answers DELETE /v1/datasets/{name} on every
// live replica. Idempotent by construction: the request succeeds if any
// replica knew the dataset (404s elsewhere mean an earlier partial delete
// already removed it there), and 404s only if every replica answered 404.
func (c *Coordinator) handleDatasetBroadcastDelete(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if c.rejectDraining(w) {
		return
	}
	var deleted *shard.Result
	if !c.mutate(w, r, r.URL.EscapedPath(), nil, "delete may be partially applied; re-DELETE to converge",
		func(res shard.Result) bool {
			if res.Status == http.StatusOK && deleted == nil {
				deleted = &res
			}
			return true
		}) {
		return
	}
	if deleted == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "no dataset with that name", 0)
		return
	}
	c.met.recordRequest(time.Since(started))
	c.relay(w, *deleted)
}
