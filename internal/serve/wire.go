package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/claim"
	"repro/internal/fee"
	"repro/internal/review"
	"repro/internal/sqldb"
)

// Wire types of the cedar-serve HTTP API (documented in docs/CLI.md). The
// JSON field names are a compatibility surface: doclint and the API
// reference both name them, so renames are breaking changes.

// ClaimInput is one claim as submitted by a client — the same shape the
// cedar CLI's -claims file uses, so a claims file can be POSTed verbatim as
// the "claims" array of a request.
type ClaimInput struct {
	// ID identifies the claim in the response; defaults to "c<position>".
	ID string `json:"id,omitempty"`
	// Sentence is the claim sentence.
	Sentence string `json:"sentence"`
	// Value is the claimed value as it appears in the sentence.
	Value string `json:"value"`
	// Context is the optional paragraph containing the sentence.
	Context string `json:"context,omitempty"`
}

// DocumentInput is one batch-request entry: a set of claims verified as one
// document. DocID seeds every attempt, so a fixed (doc_id, claims) pair
// reproduces bit-identically regardless of what else shares the micro-batch.
type DocumentInput struct {
	// DocID defaults to the server's database name — the same document ID
	// the cedar CLI derives, which makes served runs reproduce CLI runs.
	DocID string `json:"doc_id,omitempty"`
	// Claims are the claims to verify, in order (order determines seeding).
	Claims []ClaimInput `json:"claims"`
}

// VerifyRequest is the body of POST /v1/verify: one document's claims.
type VerifyRequest struct {
	DocID  string       `json:"doc_id,omitempty"`
	Claims []ClaimInput `json:"claims"`
}

// BatchRequest is the body of POST /v1/verify/batch.
type BatchRequest struct {
	Documents []DocumentInput `json:"documents"`
}

// ClaimResult is one claim's verdict.
type ClaimResult struct {
	ID       string `json:"id"`
	Correct  bool   `json:"correct"`
	Verified bool   `json:"verified"`
	Method   string `json:"method,omitempty"`
	Query    string `json:"query,omitempty"`
	// Attempts counts the method invocations spent on the claim; more than
	// one means the methods disagreed before a verdict landed, which feeds
	// the review queue's disagreement score.
	Attempts int `json:"attempts,omitempty"`
	// Failure is the transport-error class when the claim's method is
	// "failed" — the provider, not the translation, is why it went
	// unverified (see internal/claim).
	Failure string `json:"failure,omitempty"`
}

// DocumentResult is the verdict set for one submitted document.
type DocumentResult struct {
	DocID  string        `json:"doc_id"`
	Claims []ClaimResult `json:"claims"`
}

// BatchStats describes the micro-batch a request rode in. Fees are
// accounted per batch (the run is the billing unit), so Dollars/Calls cover
// every document of the batch, not just the caller's; Docs and Claims say
// how many that was. A request submitted alone — or any POST /v1/verify/batch
// sized at least MaxBatch — gets totals covering exactly its own claims.
type BatchStats struct {
	// Docs is the number of documents the micro-batch verified.
	Docs int `json:"docs"`
	// Claims is the total number of claims across those documents.
	Claims int `json:"claims"`
	// Dollars is the batch run's simulated LLM fee.
	Dollars fee.Fee `json:"dollars"`
	// Calls is the batch run's model invocation count.
	Calls int `json:"calls"`
}

// VerifyResponse is the body answering POST /v1/verify.
type VerifyResponse struct {
	DocID  string        `json:"doc_id"`
	Claims []ClaimResult `json:"claims"`
	Batch  BatchStats    `json:"batch"`
}

// BatchResponse is the body answering POST /v1/verify/batch.
type BatchResponse struct {
	Documents []DocumentResult `json:"documents"`
	Batch     BatchStats       `json:"batch"`
}

// StreamEvent is one NDJSON line of a POST /v1/verify/stream response. The
// request body is itself NDJSON — one DocumentInput per line — and the
// response interleaves three event kinds: "verdict" (one claim's result, as
// soon as its document's micro-batch lands), "error" (a per-document or
// stream-level failure carrying the standard error detail), and a final
// "summary". Index is the 0-based arrival ordinal of the document the event
// belongs to; it is meaningful on verdict and error events only.
type StreamEvent struct {
	Event string `json:"event"`
	DocID string `json:"doc_id,omitempty"`
	Index int    `json:"index"`
	// Claim is the verdict payload of a "verdict" event.
	Claim *ClaimResult `json:"claim,omitempty"`
	// ReviewID is set on a "verdict" event whose claim was enqueued for
	// human review; resolve it via POST /v1/review/{id}.
	ReviewID string `json:"review_id,omitempty"`
	// Error is the failure payload of an "error" event.
	Error *ErrorDetail `json:"error,omitempty"`
	// Summary is the closing payload of a "summary" event.
	Summary *StreamSummary `json:"summary,omitempty"`
}

// StreamSummary closes a verification stream. Like BatchStats, Dollars and
// Calls cover the micro-batches the stream's documents rode in — which may
// include other requests' claims coalesced into the same runs.
type StreamSummary struct {
	// Docs and Claims count what this stream submitted and had verified.
	Docs   int `json:"docs"`
	Claims int `json:"claims"`
	// Dollars and Calls total the batch runs that carried those documents.
	Dollars fee.Fee `json:"dollars"`
	Calls   int     `json:"calls"`
	// Reviewed counts this stream's claims enqueued for human review.
	Reviewed int `json:"reviewed"`
	// Batches lists the distinct micro-batch ordinals (1-based, server-local)
	// whose totals Dollars and Calls summed, in first-seen order. A consumer
	// holding several streams against one server at once can use it to count
	// a shared batch's fee once, not once per stream. The coordinator's
	// relay does not need it: a session's exchanges with one replica never
	// overlap.
	Batches []int64 `json:"batches,omitempty"`
}

// ReviewListResponse is the body answering GET /v1/review.
type ReviewListResponse struct {
	// Items are the pending review items in deterministic review order:
	// priority descending, then ID ascending.
	Items []review.Item `json:"items"`
	// Stats snapshots the queue counters (same shape as /v1/metrics review).
	Stats ReviewCounters `json:"stats"`
}

// ReviewResolveRequest is the body of POST /v1/review/{id}.
type ReviewResolveRequest struct {
	// Resolution is "confirmed" or "overturned".
	Resolution string `json:"resolution"`
	// Note is the reviewer's optional free-form comment.
	Note string `json:"note,omitempty"`
}

// StatusResponse is the body answering GET /v1/status.
type StatusResponse struct {
	// State is "serving" or "draining".
	State string `json:"state"`
	// QueueDepth is the number of requests waiting for a micro-batch slot;
	// QueueCap is the admission limit above which requests shed with 429.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// MaxBatch and BatchWaitMS echo the coalescing configuration.
	MaxBatch    int   `json:"max_batch"`
	BatchWaitMS int64 `json:"batch_wait_ms"`
	// StreamWindow is the per-stream in-flight document bound of
	// POST /v1/verify/stream; zero on coordinators (the replicas enforce it).
	StreamWindow int `json:"stream_window,omitempty"`
	// Schedule is the planned verification schedule serving requests.
	Schedule string `json:"schedule,omitempty"`
	// UptimeMS is wall time since the server started.
	UptimeMS int64 `json:"uptime_ms"`
	// Role distinguishes the serving tiers: "" or "replica" for a plain
	// server, "coordinator" for the sharding front end.
	Role string `json:"role,omitempty"`
	// Replicas lists the coordinator's registered replicas and their health;
	// present only on coordinators.
	Replicas []ReplicaStatus `json:"replicas,omitempty"`
}

// ReplicaStatus is one registered replica as seen by the coordinator.
type ReplicaStatus struct {
	// URL is the replica's base URL — also its name on the hash ring.
	URL string `json:"url"`
	// Healthy reports whether the replica is currently in the ring; an
	// ejected replica stays registered and is probed for readmission.
	Healthy bool `json:"healthy"`
}

// ReplicaRequest is the body of POST /v1/replicas: a replica announcing
// itself to (or, with the DELETE method, withdrawing from) a coordinator.
type ReplicaRequest struct {
	URL string `json:"url"`
}

// ErrorBody is the uniform error envelope: every non-2xx response carries
// {"error": {"code", "message"}}. Codes are stable strings (docs/CLI.md):
// bad_request, overloaded, draining, deadline_exceeded, internal, too_large,
// not_found, replica_lost.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the code/message pair inside an ErrorBody.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes of the ErrorBody envelope.
const (
	CodeBadRequest       = "bad_request"
	CodeOverloaded       = "overloaded"
	CodeDraining         = "draining"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeInternal         = "internal"
	// CodeTooLarge answers a verify body over 8 MiB: 413 on the unary and
	// batch routes and on a stream that declares its length, an in-band
	// error event on a stream that crosses the limit as it is read.
	CodeTooLarge = "too_large"
	// CodeNotFound answers a resolve of an unknown review item.
	CodeNotFound = "not_found"
	// CodeReplicaLost reports a replica that failed after a request was
	// delivered to it, or answered more than the coordinator relays
	// (8 MiB): the work may have run (and been billed), so the
	// coordinator must not silently retry it elsewhere — the caller decides
	// whether re-submitting is acceptable (it is always verdict-safe;
	// determinism makes re-verification idempotent, only fees recur).
	CodeReplicaLost = "replica_lost"
)

// buildDocument converts one wire document into the domain model, defaulting
// the document ID to defaultDocID (the serving database's name) and claim IDs
// to their positions — the exact defaults the cedar CLI applies, preserving
// the CLI/HTTP bit-identity contract. A replica binds the document to its
// database; a coordinator validating a streamed document passes none.
func buildDocument(in DocumentInput, defaultDocID string, db *sqldb.Database) (*claim.Document, error) {
	if len(in.Claims) == 0 {
		return nil, fmt.Errorf("document %q has no claims", in.DocID)
	}
	docID := in.DocID
	if docID == "" {
		docID = defaultDocID
	}
	doc := &claim.Document{ID: docID, Domain: "serve", Data: db}
	for i, ci := range in.Claims {
		id := ci.ID
		if id == "" {
			id = fmt.Sprintf("c%d", i+1)
		}
		c, err := claim.New(id, ci.Sentence, ci.Value, ci.Context)
		if err != nil {
			return nil, err
		}
		doc.Claims = append(doc.Claims, c)
	}
	return doc, nil
}

// documentResult snapshots a verified document's claim annotations.
func documentResult(doc *claim.Document) DocumentResult {
	return DocumentResult{DocID: doc.ID, Claims: appendClaimResults(make([]ClaimResult, 0, len(doc.Claims)), doc)}
}

// appendClaimResults appends a verified document's claim annotations to dst.
func appendClaimResults(dst []ClaimResult, doc *claim.Document) []ClaimResult {
	for _, c := range doc.Claims {
		dst = append(dst, claimResult(c))
	}
	return dst
}

// claimResult snapshots one verified claim's annotation.
func claimResult(c *claim.Claim) ClaimResult {
	return ClaimResult{
		ID:       c.ID,
		Correct:  c.Result.Correct,
		Verified: c.Result.Verified,
		Method:   c.Result.Method,
		Query:    c.Result.Query,
		Attempts: c.Result.Attempts,
		Failure:  c.Result.Failure,
	}
}

// writeJSON writes a JSON response body with the given status through
// encoding/json: the routes off the verify path (metrics, review, datasets,
// status, replicas) answer with it, the verify path with writeWire.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// writeError writes the uniform error envelope; retryAfter > 0 adds a
// Retry-After header (seconds, rounded up) per RFC 9110 §10.2.3.
func writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	body := ErrorBody{Error: ErrorDetail{Code: code, Message: msg}}
	writeWire(w, status, body.appendJSON)
}

// tooLargeMessage names the limit an oversize body crossed.
var tooLargeMessage = fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes)

// tooLarge counts an oversize request on m, with the malformed ones, and
// answers it 413.
func tooLarge(m *serveMetrics, w http.ResponseWriter) {
	m.inc(&m.badRequests)
	writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge, tooLargeMessage, 0)
}

// badRequest counts a malformed request on m and answers it 400.
func badRequest(m *serveMetrics, w http.ResponseWriter, msg string) {
	m.inc(&m.badRequests)
	writeError(w, http.StatusBadRequest, CodeBadRequest, msg, 0)
}
