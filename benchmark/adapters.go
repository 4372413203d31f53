package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strings"

	"repro/internal/claim"
	"repro/internal/llm"
	"repro/internal/serve"
	"repro/internal/sqldb"
	"repro/internal/trace"
	"repro/internal/verify"
)

// This file is the benchmark's whole pinned dependency surface on the
// program's interfaces: every wrapper that records a span implements one of
//
//	llm.Client      Complete(llm.Request) (llm.Response, error)
//	verify.Method   Name() string; ModelName() string;
//	                Translate(*claim.Claim, *sqldb.Database, verify.Invocation) (string, error)
//	serve.Backend   VerifyDocuments([]*claim.Document) (serve.RunStats, error)
//	http.Handler    ServeHTTP(http.ResponseWriter, *http.Request)
//
// and reads trace.Key{Doc, Claim, Method, Try} off verify.Invocation.Attempt
// and llm.Request.Attempt. A change to one of these signatures breaks the
// build here and nowhere else in the benchmark.

func keyOf(k trace.Key) attemptKey {
	return attemptKey{doc: k.Doc, method: k.Method, claim: k.Claim, try: k.Try}
}

// tracedClient records one llm.complete span per logical model call. It is
// set on the exported Client field of a method, so it sits outside the whole
// middleware stack: a call the retrier repeats or the hedger races is one
// span here, and its throttle sleeps are inside it.
type tracedClient struct {
	inner llm.Client
	tr    *tracer
	cap   *capture
}

func (c *tracedClient) Complete(req llm.Request) (llm.Response, error) {
	k := keyOf(req.Attempt)
	id := c.tr.begin(spanComplete, k.doc, func(t *tracer, s *span) {
		s.Parent = t.attempt[k]
		s.Method, s.Claim, s.Try = k.method, k.claim, k.try
	})
	resp, err := c.inner.Complete(req)
	c.tr.end(id, func(_ *tracer, s *span) {
		s.PromptTokens = resp.Usage.PromptTokens
		s.CompletionTokens = resp.Usage.CompletionTokens
		s.SimNS = int64(resp.Latency)
	})
	c.cap.request(req)
	return resp, err
}

// tracedMethod records one verify.translate span per method invocation,
// under the micro-batch (serving) or document (library) running it.
type tracedMethod struct {
	verify.Method
	tr  *tracer
	cap *capture
}

func (m *tracedMethod) Translate(c *claim.Claim, db *sqldb.Database, inv verify.Invocation) (string, error) {
	k := keyOf(inv.Attempt)
	id := m.tr.begin(spanTranslate, k.doc, func(t *tracer, s *span) {
		s.Parent = t.batch[k.doc]
		if s.Parent == 0 {
			s.Parent = t.docSpan[k.doc]
		}
		s.Method, s.Claim, s.Try = k.method, k.claim, k.try
		t.attempt[k] = s.ID
	})
	if _, oneShot := m.Method.(*verify.OneShot); oneShot {
		m.cap.prompt(c, db, inv.Sample)
	}
	query, err := m.Method.Translate(c, db, inv)
	m.tr.end(id, func(t *tracer, _ *span) { delete(t.attempt, k) })
	return query, err
}

// traceMethods wraps every method and its model client. OneShot and Agent
// export their Client, which is the only way in from outside the program.
func traceMethods(methods []verify.Method, tr *tracer, cp *capture) []verify.Method {
	out := make([]verify.Method, len(methods))
	for i, m := range methods {
		switch m := m.(type) {
		case *verify.OneShot:
			m.Client = &tracedClient{inner: m.Client, tr: tr, cap: cp}
		case *verify.Agent:
			m.Client = &tracedClient{inner: m.Client, tr: tr, cap: cp}
		}
		out[i] = &tracedMethod{Method: m, tr: tr, cap: cp}
	}
	return out
}

// tracedBackend records one serve.batch span per micro-batch, listing the
// documents it verified; translate spans find it through those IDs.
type tracedBackend struct {
	inner   serve.Backend
	tr      *tracer
	replica string
}

func (b *tracedBackend) VerifyDocuments(docs []*claim.Document) (serve.RunStats, error) {
	ids := make([]string, len(docs))
	for i, d := range docs {
		ids[i] = d.ID
	}
	id := b.tr.begin(spanBatch, ids[0], func(t *tracer, s *span) {
		s.Docs, s.Replica = ids, b.replica
		s.Parent = t.firstOf(ids[0], t.replica, t.docSpan)
		for _, d := range ids {
			t.batch[d] = s.ID
		}
	})
	stats, err := b.inner.VerifyDocuments(docs)
	b.tr.end(id, nil)
	return stats, err
}

// peekBytes is how much of a request body the handler wrapper looks at for
// the document ID; the generator writes doc_id first, so this is plenty.
const peekBytes = 96

// tracedHandler records one span per verification request around h. The
// document ID comes from the head of the body, which is then handed on
// unread; other routes (metrics, health) pass through untraced.
func tracedHandler(tr *tracer, name, replica string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !strings.HasPrefix(r.URL.Path, "/v1/verify") {
			h.ServeHTTP(w, r)
			return
		}
		br := bufio.NewReader(r.Body)
		head, _ := br.Peek(peekBytes) // a short body is all there is to see
		doc := peekDocID(head)
		r.Body = struct {
			io.Reader
			io.Closer
		}{br, r.Body}
		id := tr.begin(name, doc, func(t *tracer, s *span) {
			s.Replica = replica
			if name == spanCoord {
				s.Parent = t.firstOf(doc, t.docSpan)
				t.coord[doc] = s.ID
			} else {
				s.Parent = t.firstOf(doc, t.coord, t.docSpan)
				t.replica[doc] = s.ID
			}
		})
		h.ServeHTTP(w, r)
		tr.end(id, nil)
	})
}

var docIDField = []byte(`"doc_id":"`)

func peekDocID(head []byte) string {
	_, rest, ok := bytes.Cut(head, docIDField)
	if !ok {
		return ""
	}
	id, _, ok := bytes.Cut(rest, []byte(`"`))
	if !ok {
		return ""
	}
	return string(id)
}
