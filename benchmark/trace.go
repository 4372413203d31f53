package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span names, outermost first. The tree is
//
//	op → doc → coord.handler → replica.handler → serve.batch → verify.translate → llm.complete
//
// with the layers a workload does not have simply absent: a library
// workload goes op → doc → verify.translate → llm.complete.
const (
	spanOp        = "op"
	spanDoc       = "doc"
	spanCoord     = "coord.handler"
	spanReplica   = "replica.handler"
	spanBatch     = "serve.batch"
	spanTranslate = "verify.translate"
	spanComplete  = "llm.complete"
)

// span is one timed call into a layer, recorded by a wrapper in this
// package. Start and End are nanoseconds on the run clock.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	// Doc is the document the span is attributed to: its own for most
	// spans, the first of the session or micro-batch where one call serves
	// several (Docs then lists all of them).
	Doc   string `json:"doc"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`

	Docs    []string `json:"docs,omitempty"`
	Replica string   `json:"replica,omitempty"`
	// Attempt identity of translate and complete spans.
	Method string `json:"method,omitempty"`
	Claim  int    `json:"claim,omitempty"`
	Try    int    `json:"try,omitempty"`
	// What the provider reported for a completion: tokens and the
	// simulated latency the throttle sleeps a fraction of.
	PromptTokens     int   `json:"ptok,omitempty"`
	CompletionTokens int   `json:"ctok,omitempty"`
	SimNS            int64 `json:"sim_ns,omitempty"`
}

func (s *span) interval() interval { return interval{s.Start, s.End} }

// attemptKey identifies one method invocation; the pipeline stamps it on
// the verify.Invocation and on every llm.Request the method issues, which
// is what lets a completion find the translate span that caused it.
type attemptKey struct {
	doc, method string
	claim, try  int
}

// tracer keeps a traced run's spans in memory. The program's interfaces
// carry no context, so a wrapper finds its parent by the document ID (or
// attempt key) its call carries; the maps below hold the open span per key.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
	// docSpan and session are filled by the load generator before it sends
	// a document: the doc's client-side span, and the first document of the
	// op it belongs to (a stream session's handler is found under that one).
	docSpan map[string]int64
	session map[string]string
	coord   map[string]int64
	replica map[string]int64
	batch   map[string]int64
	attempt map[attemptKey]int64
}

func newTracer(workload string) *tracer {
	t := &tracer{workload: workload}
	t.reset()
	return t
}

// reset drops every span and key and restarts the run clock. Only between
// runs: no traced call may be in flight.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.t0 = time.Now()
	t.spans = nil
	t.docSpan = make(map[string]int64)
	t.session = make(map[string]string)
	t.coord = make(map[string]int64)
	t.replica = make(map[string]int64)
	t.batch = make(map[string]int64)
	t.attempt = make(map[attemptKey]int64)
}

// begin opens a span and returns its ID. init, when non-nil, runs under the
// tracer's lock with the new span: it resolves the parent from the key maps
// and registers the span under its own key.
func (t *tracer) begin(name, doc string, init func(t *tracer, s *span)) int64 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	s := span{ID: id, Name: name, Workload: t.workload, Doc: doc, Start: now}
	if init != nil {
		init(t, &s)
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// end closes a span; fin, when non-nil, runs under the lock to fill in what
// only the finished call knows and to drop the span's key.
func (t *tracer) end(id int64, fin func(t *tracer, s *span)) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = now
	if fin != nil {
		fin(t, s)
	}
	t.mu.Unlock()
}

// firstOf returns the first non-zero span ID registered for doc in the
// given maps, then for the first document of doc's session.
func (t *tracer) firstOf(doc string, maps ...map[string]int64) int64 {
	for _, d := range []string{doc, t.session[doc]} {
		if d == "" {
			continue
		}
		for _, m := range maps {
			if id := m[d]; id != 0 {
				return id
			}
		}
	}
	return 0
}

// write dumps the spans as JSON lines.
func (t *tracer) write(dir string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+t.workload+".jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}
