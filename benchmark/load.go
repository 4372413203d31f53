package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/claim"
	"repro/internal/sqldb"
)

// verdict is one claim's outcome in the shape both entry points give it:
// claim.Result's fields from the library, the ClaimResult JSON of the HTTP
// API (docs/CLI.md) from a server.
type verdict struct {
	ID       string `json:"id"`
	Correct  bool   `json:"correct"`
	Verified bool   `json:"verified"`
	Method   string `json:"method"`
	Query    string `json:"query"`
	Attempts int    `json:"attempts"`
}

func verdictsOf(d *claim.Document) []verdict {
	out := make([]verdict, len(d.Claims))
	for i, c := range d.Claims {
		r := c.Result
		out[i] = verdict{ID: c.ID, Correct: r.Correct, Verified: r.Verified, Method: r.Method, Query: r.Query, Attempts: r.Attempts}
	}
	return out
}

// query is one (database, SQL text) pair a run executed or should have.
type query struct {
	db  *sqldb.Database
	sql string
}

// recorder accumulates a run's outcomes as documents complete. It keeps
// sums, not documents: a run verifies hundreds of thousands of claims, and
// holding their results would make the benchmark's own heap the largest
// thing it measures.
type recorder struct {
	in        *inputs
	templates []*claim.Document
	// firstMethod is the schedule's first step; a verdict by any other
	// method (or none) means the claim escalated past it.
	firstMethod string

	mu sync.Mutex
	// docs and failed count documents; claims counts claims of documents
	// that did not fail.
	docs, failed, claims int
	failures             []string
	latency, streamDoc   sample // ms: library calls and unary requests; stream documents
	ttfv                 sample // ms
	dollars              float64
	// digest sums a hash of every document's verdicts; a sum, because
	// serving completes documents in no fixed order.
	digest                      uint64
	tp, fp, fn                  int
	attempts, verified, escaped int
	// samples are the 1-in-sampleOneIn documents kept for the reference.
	samples []docOutcome
	// queries collects up to maxQueries distinct queries, model-written and
	// gold, in completion order, for replay; queryUses counts the verdicts
	// resting on each (gold queries no model wrote stay at 0).
	queries    []query
	queryUses  map[query]int
	maxQueries int
}

type docOutcome struct {
	ref      docRef
	verdicts []verdict
}

func newRecorder(in *inputs, s *system) *recorder {
	first, _, _ := bytes.Cut([]byte(s.schedule), []byte(" "))
	return &recorder{in: in, templates: s.templates, firstMethod: string(first), queryUses: make(map[query]int)}
}

// fail counts one document as failed.
func (r *recorder) fail(ref docRef, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.docs++
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, ref.id+": "+fmt.Sprintf(format, args...))
	}
}

// done books one completed document: the claims returned must be the claims
// sent, in order. timed, when non-nil, runs under the recorder's lock once
// the document has passed, to book its timings.
func (r *recorder) done(ref docRef, vs []verdict, timed func()) {
	tmpl := r.templates[ref.tmpl]
	if len(vs) != len(tmpl.Claims) {
		r.fail(ref, "%d verdicts for %d claims", len(vs), len(tmpl.Claims))
		return
	}
	h := fnv.New64a()
	_, _ = io.WriteString(h, ref.id)
	for i, v := range vs {
		if v.ID != tmpl.Claims[i].ID {
			r.fail(ref, "verdict %d is for claim %q, sent %q", i, v.ID, tmpl.Claims[i].ID)
			return
		}
		if v.Attempts < 1 || v.Method == "" {
			r.fail(ref, "claim %q came back unattempted", v.ID)
			return
		}
		fmt.Fprintf(h, "|%s|%t|%t|%s|%d|%s", v.ID, v.Verified, v.Correct, v.Method, v.Attempts, v.Query)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.docs++
	r.claims += len(vs)
	r.digest += h.Sum64()
	for i, v := range vs {
		gold := tmpl.Claims[i].Gold
		r.attempts += v.Attempts
		if v.Verified {
			r.verified++
		}
		if v.Method != r.firstMethod {
			r.escaped++
		}
		// Scored as metrics.Evaluate scores: over the incorrect class,
		// skipping claims the provider failed.
		if v.Method != claim.MethodFailed {
			switch {
			case !v.Correct && !gold.Correct:
				r.tp++
			case !v.Correct:
				r.fp++
			case !gold.Correct:
				r.fn++
			}
		}
		r.collect(query{tmpl.Data, gold.Query}, 0)
		r.collect(query{tmpl.Data, v.Query}, 1)
	}
	if r.in.sampled(ref.id) {
		r.samples = append(r.samples, docOutcome{ref, vs})
	}
	if timed != nil {
		timed()
	}
}

func (r *recorder) collect(q query, uses int) {
	if q.sql == "" {
		return
	}
	if _, seen := r.queryUses[q]; !seen {
		if len(r.queries) >= r.maxQueries {
			return
		}
		r.queries = append(r.queries, q)
	}
	r.queryUses[q] += uses
}

func (r *recorder) f1() float64 {
	if r.tp == 0 {
		return 0
	}
	p := float64(r.tp) / float64(r.tp+r.fp)
	rec := float64(r.tp) / float64(r.tp+r.fn)
	return 2 * p * rec / (p + rec)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runOps is the load generator: a closed loop of conns workers, each taking
// the next operation of the shared list when its previous one completes. It
// stops early only at deadline, a guard against a program far slower than
// the one the list was sized on. It returns the wall time of the list.
func runOps(s *system, in *inputs, ops []op, rec *recorder, tr *tracer, deadline time.Time) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < in.topo.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || time.Now().After(deadline) {
					return
				}
				s.exec(in, ops[i], rec, tr)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// exec runs one operation to completion.
func (s *system) exec(in *inputs, o op, rec *recorder, tr *tracer) {
	var opSpan int64
	var docSpans []int64
	if tr != nil {
		docSpans = make([]int64, len(o.docs))
		first := o.docs[0].id
		opSpan = tr.begin(spanOp, first, nil)
		for i, d := range o.docs {
			id := d.id
			docSpans[i] = tr.begin(spanDoc, id, func(t *tracer, sp *span) {
				sp.Parent = opSpan
				t.docSpan[id] = sp.ID
				if id != first {
					t.session[id] = first
				}
			})
		}
	}
	endDoc := func(i int) {
		if tr != nil {
			tr.end(docSpans[i], nil)
		}
	}
	switch {
	case s.verify != nil:
		s.execLibrary(o, rec, endDoc)
	case o.stream:
		s.execStream(in, o, rec, endDoc)
	default:
		s.execUnary(in, o, rec, endDoc)
	}
	if tr != nil {
		tr.end(opSpan, nil)
	}
}

func (s *system) execLibrary(o op, rec *recorder, endDoc func(int)) {
	ref := o.docs[0]
	d := claim.CloneDocuments(s.templates[ref.tmpl : ref.tmpl+1])[0]
	d.ID = ref.id
	start := time.Now()
	dollars, err := s.verify(d)
	lat := ms(time.Since(start))
	endDoc(0)
	if err != nil {
		rec.fail(ref, "%v", err)
		return
	}
	rec.done(ref, verdictsOf(d), func() {
		rec.dollars += dollars
		rec.latency = append(rec.latency, lat)
	})
}

func (s *system) execUnary(in *inputs, o op, rec *recorder, endDoc func(int)) {
	ref := o.docs[0]
	body := in.body(ref)
	start := time.Now()
	resp, err := s.client.Post(s.front+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		endDoc(0)
		rec.fail(ref, "%v", err)
		return
	}
	var out struct {
		Claims []verdict `json:"claims"`
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(raw, &out)
	}
	lat := ms(time.Since(start))
	endDoc(0)
	switch {
	case err != nil:
		rec.fail(ref, "%v", err)
	case resp.StatusCode != http.StatusOK:
		rec.fail(ref, "status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	default:
		rec.done(ref, out.Claims, func() { rec.latency = append(rec.latency, lat) })
	}
}

// streamEvent is one NDJSON line of a POST /v1/verify/stream response.
type streamEvent struct {
	Event string   `json:"event"`
	Index int      `json:"index"`
	Claim *verdict `json:"claim"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// execStream sends one session's documents and reads verdicts as they
// arrive. Time to first verdict runs from the request being sent to the
// first verdict line being read; a document is complete when its last
// claim's verdict is.
func (s *system) execStream(in *inputs, o op, rec *recorder, endDoc func(int)) {
	var body bytes.Buffer
	for _, d := range o.docs {
		body.Write(in.body(d))
	}
	got := make([][]verdict, len(o.docs))
	ended := make([]bool, len(o.docs))
	finish := func(i int, why string) {
		if ended[i] {
			return
		}
		ended[i] = true
		endDoc(i)
		if why != "" {
			rec.fail(o.docs[i], "%s", why)
		}
	}
	failRest := func(why string) {
		for i := range o.docs {
			finish(i, why)
		}
	}
	start := time.Now()
	resp, err := s.client.Post(s.front+"/v1/verify/stream", "application/x-ndjson", &body)
	if err != nil {
		failRest(err.Error())
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		failRest(fmt.Sprintf("status %d", resp.StatusCode))
		return
	}
	first := true
	lines := bufio.NewScanner(resp.Body)
	lines.Buffer(make([]byte, 64<<10), 4<<20) // a verdict line carries a whole query
	for lines.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(lines.Bytes(), &ev); err != nil {
			failRest("undecodable event: " + err.Error())
			return
		}
		switch {
		case ev.Event == "verdict" && ev.Claim != nil && ev.Index >= 0 && ev.Index < len(o.docs):
			if first {
				first = false
				rec.mu.Lock()
				rec.ttfv = append(rec.ttfv, ms(time.Since(start)))
				rec.mu.Unlock()
			}
			i := ev.Index
			got[i] = append(got[i], *ev.Claim)
			if len(got[i]) == len(s.templates[o.docs[i].tmpl].Claims) && !ended[i] {
				took := ms(time.Since(start))
				finish(i, "")
				rec.done(o.docs[i], got[i], func() { rec.streamDoc = append(rec.streamDoc, took) })
			}
		case ev.Event == "error":
			why := "stream error event"
			if ev.Error != nil {
				why = ev.Error.Code + ": " + ev.Error.Message
			}
			if ev.Index >= 0 && ev.Index < len(o.docs) && !ended[ev.Index] {
				finish(ev.Index, why)
			} else {
				failRest(why)
			}
		}
	}
	if err := lines.Err(); err != nil {
		failRest(err.Error())
		return
	}
	failRest("stream ended without this document's verdicts")
}
