package cedar

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/trace"
)

// ErrStreamClosed is returned by Submit after Close.
var ErrStreamClosed = errors.New("cedar: stream closed")

// StreamResult delivers one streamed document's outcome: the document (its
// claims annotated in place), the per-document run report, and the arrival
// ordinal it was submitted under.
type StreamResult struct {
	// Index is the 0-based arrival ordinal of the document.
	Index int
	// Doc is the submitted document, its claim Results annotated.
	Doc *Document
	// Report covers exactly this document's run (fees, calls, quality).
	Report Report
	// Err is the run error, if any (e.g. ErrNotProfiled).
	Err error
}

// Stream is an incremental verification session: documents are submitted as
// they arrive and verified one per run through the same pipeline Verify uses,
// with a bounded in-flight window providing backpressure — Submit blocks when
// the window is full instead of buffering without limit (the Evergreen-style
// cost bound of DESIGN.md §14).
//
// Determinism survives streaming by construction: each document is its own
// run, and under CEDAR's splittable seeding a claim's verdict depends only on
// (seed, doc ID, claim, method, try) — never on what else shares a run or on
// arrival order. Streaming the same corpus in any order therefore yields
// bit-identical verdicts, fees, and (normalized) traces to one batch Verify
// call; the `make stream` gate proves it.
//
// Results are delivered in arrival order on Results(). A Stream is intended
// for one producer goroutine (Submit/Close) and one consumer (Results), but
// is safe for concurrent use.
type Stream struct {
	sys *System
	in  chan *Document
	out chan StreamResult

	// sendMu serializes the submit path (Submit vs Close) and is held across
	// the blocking window send. It must stay distinct from mu: the worker
	// takes mu to record spans while draining the window, so a Submit blocked
	// on a full window must not be holding the lock the worker needs.
	sendMu sync.Mutex
	closed bool

	mu        sync.Mutex
	spans     []trace.Span
	streamSeq map[string]int
}

// NewStream opens an incremental verification session over the system. The
// window (default 4) bounds admitted, undelivered documents: Submit blocks
// (backpressure) once window wait behind one being verified or delivered.
// The system must be profiled, like Verify. Close the stream to end the
// session; Results closes after the last outcome.
func (s *System) NewStream(window int) *Stream {
	if window <= 0 {
		window = 4
	}
	st := &Stream{
		sys:       s,
		in:        make(chan *Document, window),
		out:       make(chan StreamResult),
		streamSeq: make(map[string]int),
	}
	go st.run()
	return st
}

// run is the session worker: it consumes submitted documents in arrival
// order and verifies each as one run. Runs are already serialized by the
// System's runMu, so a single worker loses no parallelism — concurrency
// lives inside the run (Options.Workers), exactly as in batch mode.
func (st *Stream) run() {
	defer close(st.out)
	index := 0
	for doc := range st.in {
		st.recordStreamSpan(doc.ID, trace.KindStreamAdmit, fmt.Sprintf("arrival=%d", index))
		var spans []trace.Span
		rep, err := st.sys.verifyRun([]*Document{doc}, &spans)
		st.mu.Lock()
		st.spans = append(st.spans, spans...)
		st.mu.Unlock()
		st.recordStreamSpan(doc.ID, trace.KindStreamResult, fmt.Sprintf("claims=%d", rep.Claims))
		st.out <- StreamResult{Index: index, Doc: doc, Report: rep, Err: err}
		index++
	}
}

// recordStreamSpan appends one arrival-order span to the session trace. The
// spans are recorded session-side, not through the System's tracer — the
// tracer is reset per run, which would wipe an admit span recorded before
// its run starts. ReplayNormalize drops them; they exist so a raw streamed
// trace shows when each document arrived relative to its verification.
func (st *Stream) recordStreamSpan(docID, kind, detail string) {
	if !st.sys.opts.Tracer.Enabled() {
		return
	}
	key := trace.Key{Doc: docID, Method: "stream"}
	st.mu.Lock()
	seqKey := docID
	sp := trace.Span{Key: key, Seq: st.streamSeq[seqKey], Kind: kind, Detail: detail}
	st.streamSeq[seqKey] = sp.Seq + 1
	st.spans = append(st.spans, sp)
	st.mu.Unlock()
}

// Submit admits one document into the session, blocking while the in-flight
// window is full. It returns ErrStreamClosed after Close.
func (st *Stream) Submit(doc *Document) error {
	// sendMu is held across the (possibly blocking) send so Close cannot
	// close the channel between the check and the send; the worker always
	// drains the window, so a blocked Submit — and anyone waiting on the
	// lock — eventually proceeds.
	st.sendMu.Lock()
	defer st.sendMu.Unlock()
	if st.closed {
		return ErrStreamClosed
	}
	st.in <- doc
	return nil
}

// Results returns the session's outcome channel. Outcomes arrive in
// submission order and the channel closes once Close has been called and
// every admitted document has been delivered.
func (st *Stream) Results() <-chan StreamResult { return st.out }

// Close ends the session: no further Submits are accepted, admitted
// documents finish verifying, then Results closes. Safe to call more than
// once.
func (st *Stream) Close() {
	st.sendMu.Lock()
	defer st.sendMu.Unlock()
	if st.closed {
		return
	}
	st.closed = true
	close(st.in)
}

// Spans returns the session's accumulated trace in canonical order: every
// per-document run's spans plus the stream_admit/stream_result arrival spans.
// Normalized with trace.ReplayNormalize it is byte-identical to the trace of
// one batch Verify over the same documents. Call it after Results has closed
// for a complete session trace; nil when the System has no tracer.
func (st *Stream) Spans() []trace.Span {
	st.mu.Lock()
	out := make([]trace.Span, len(st.spans))
	copy(out, st.spans)
	st.mu.Unlock()
	trace.SortSpans(out)
	return out
}
