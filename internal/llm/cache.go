package llm

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/trace"
)

// maxCacheEntries bounds a Cached's in-memory table; past it the least
// recently used entry is evicted.
const maxCacheEntries = 4096

// Cached wraps a Client with a response cache for temperature-0 requests.
// Temperature-0 completions are deterministic per prompt (both for real
// APIs in greedy mode and for the simulated models), so repeating one is
// pure waste; cached hits cost nothing and are not re-billed by downstream
// ledgers because Complete is simply not invoked. Requests with a positive
// temperature always pass through — caching them would destroy the retry
// randomization CEDAR's scheduler depends on.
type Cached struct {
	// Client is the underlying completion provider.
	Client Client
	// Persist, when set, extends the cache across processes: every completion
	// this cache fills is appended to the store, and misses consult it before
	// invoking the model (DESIGN.md §11). Reads are gated on a non-zero
	// req.Attempt: anonymous traffic (profiling) must re-pay its completions
	// so the measured method statistics — and hence the planned schedule — are
	// identical whether or not a prior run warmed the store. Writes are not
	// gated; profiling legitimately warms the store for later eval traffic.
	Persist *store.Store
	// Tracer, when enabled, records cache_hit / cache_wait / persist_hit
	// spans. Which attempt leads a concurrent miss (and which attempts record
	// waits) is scheduling-dependent, so cache_hit/cache_wait are excluded
	// from the cross-worker determinism contract (DESIGN.md §10); persist_hit
	// participates via trace.ReplayNormalize (§11).
	Tracer *trace.Tracer

	mu          sync.Mutex
	table       map[string]*list.Element
	order       *list.List // front = most recently used
	inflight    map[string]*inflightCall
	hits        int
	calls       int
	persistGets int
	persistHits int
}

// cacheEntry holds one cached completion under its full key material. The
// table is keyed by the same string, so a lookup can never alias two distinct
// requests: equality is over the entire canonical encoding, not a hash of it.
// (The previous implementation keyed on a 64-bit FNV digest, where a silent
// collision would have returned the wrong completion with no detection.)
type cacheEntry struct {
	key  string
	resp Response
}

// inflightCall tracks a cache miss currently being filled, so concurrent
// requests for the same prompt wait for the leader instead of invoking the
// model again (single-flight). Without it, claim-level parallelism would
// bill a duplicate prompt once or twice depending on goroutine timing.
type inflightCall struct {
	done chan struct{}
	resp Response
	err  error
}

// NewCached wraps a client with a temperature-0 cache.
func NewCached(client Client) *Cached {
	return &Cached{Client: client}
}

// Complete implements Client. Concurrent misses on the same key are
// single-flighted: one request invokes the model (or reads the persistent
// store), the others block on it and share its response, so the underlying
// client sees each distinct key — (model, cap, seed, prompt) — exactly once
// regardless of scheduling. Distinct attempt identities never share a key
// (the seed is part of it), so within a pipeline run every attempt books
// its own fill; see cacheKey for why.
func (c *Cached) Complete(req Request) (Response, error) {
	if req.Temperature > 0 {
		return c.Client.Complete(req)
	}
	key := cacheKey(req)
	c.mu.Lock()
	c.calls++
	if c.table == nil {
		c.table = make(map[string]*list.Element)
		c.order = list.New()
		c.inflight = make(map[string]*inflightCall)
	}
	if el, ok := c.table[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		resp := el.Value.(*cacheEntry).resp
		c.mu.Unlock()
		if c.Tracer.Enabled() {
			c.Tracer.Record(trace.Span{Key: req.Attempt, Kind: trace.KindCacheHit, Model: req.Model})
		}
		return resp, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-call.done
		// Count the wait as a hit whether or not the leader's call
		// succeeded: either way the model was not re-invoked for this
		// request. (Error-path waits previously went uncounted, so the hit
		// rate understated cache effectiveness under fault injection.)
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		if c.Tracer.Enabled() {
			outcome := trace.OutcomeOK
			if call.err != nil {
				outcome = trace.OutcomeError
			}
			c.Tracer.Record(trace.Span{Key: req.Attempt, Kind: trace.KindCacheWait, Model: req.Model, Outcome: outcome})
		}
		return call.resp, call.err
	}
	call := &inflightCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()

	resp, err := c.leaderFill(req, key)
	call.resp, call.err = resp, err

	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.install(key, resp)
	}
	c.mu.Unlock()
	close(call.done)
	return resp, err
}

// leaderFill resolves a cache miss: first against the persistent store (for
// identified traffic), then against the underlying client. Successful model
// completions are appended to the store so future processes start warm.
func (c *Cached) leaderFill(req Request, key string) (Response, error) {
	if c.Persist != nil && req.Attempt != (trace.Key{}) {
		c.mu.Lock()
		c.persistGets++
		c.mu.Unlock()
		if val, ok := c.Persist.Get(persistKey(key)); ok {
			if resp, ok := decodePersistedResponse(val); ok {
				c.mu.Lock()
				c.persistHits++
				c.mu.Unlock()
				if c.Tracer.Enabled() {
					// A persist hit replays a completion another process paid
					// for; the span carries the full attempt replica (tokens,
					// the fee the original attempt was billed, latency) so
					// normalized cold and warm traces are byte-identical.
					// Fee here is informational replay context — the ledger
					// books nothing, which is the point.
					c.Tracer.Record(trace.Span{
						Key:              req.Attempt,
						Kind:             trace.KindPersistHit,
						Model:            req.Model,
						Temperature:      req.Temperature,
						Seed:             req.Seed,
						PromptTokens:     resp.Usage.PromptTokens,
						CompletionTokens: resp.Usage.CompletionTokens,
						Fee:              PriceFor(req.Model).Cost(resp.Usage),
						Latency:          resp.Latency,
						Outcome:          trace.OutcomeOK,
					})
				}
				return resp, nil
			}
		}
	}
	resp, err := c.Client.Complete(req)
	if err == nil && c.Persist != nil {
		// Best-effort warming: a failed append costs a future process one
		// re-bill, it cannot corrupt this run.
		_ = c.Persist.Put(persistKey(key), encodePersistedResponse(resp))
	}
	return resp, err
}

// install adds a filled entry to the in-memory LRU. Caller holds c.mu.
func (c *Cached) install(key string, resp Response) {
	c.table[key] = c.order.PushFront(&cacheEntry{key: key, resp: resp})
	for c.order.Len() > maxCacheEntries {
		back := c.order.Back()
		delete(c.table, back.Value.(*cacheEntry).key)
		c.order.Remove(back)
	}
}

// Stats returns the number of temperature-0 lookups and hits so far (in-memory
// and persistent hits combined; single-flight waits count as hits).
func (c *Cached) Stats() (calls, hits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls, c.hits + c.persistHits
}

// PersistStats returns how many misses consulted the persistent store and how
// many were answered by it.
func (c *Cached) PersistStats() (gets, hits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.persistGets, c.persistHits
}

// cacheKey canonically encodes every request field that can change a
// temperature-0 completion or its accounting: the model, MaxTokens (two
// identical prompts with different caps truncate differently, so they must
// not collide), the seed, and the messages. Every variable-length field is
// length-prefixed, so the encoding is injective — no two distinct requests
// share a key, which is what lets the table compare full key material
// instead of a hash digest.
//
// The seed is included even though temperature-0 completions ignore it:
// the fault-injection layer below this cache keys its deterministic fault
// schedule on (model, prompt, seed), so two attempt identities sharing one
// fill would make which identity's fault draw applies — and therefore which
// spans and fees land on which attempt — depend on goroutine scheduling.
// Keying on the seed means every attempt identity pays its own way exactly
// once per run (the paper's per-invocation accounting, and the golden-trace
// determinism contract), while true repeats — the same attempt identity in
// a later run or a later process — still hit, because llm.SplitSeed derives
// the identical seed from (run seed, doc, claim, method, try). Attempt is
// still excluded: it is observability metadata. (DESIGN.md §11.)
func cacheKey(req Request) string {
	n := 8 + 8 + 4 + len(req.Model)
	for _, m := range req.Messages {
		n += 8 + len(m.Role) + len(m.Content)
	}
	e := store.Enc{B: make([]byte, 0, n)}
	e.Str(req.Model)
	e.U64(uint64(req.MaxTokens))
	e.U64(uint64(req.Seed))
	for _, m := range req.Messages {
		e.Str(m.Role)
		e.Str(m.Content)
	}
	return string(e.B)
}

// persistKey places a completion cache key in the store's Completions family.
func persistKey(key string) []byte {
	return append([]byte(store.Completions), key...)
}

// persistedResponseVersion tags the on-disk completion value encoding; bump
// it when the layout changes so stale stores read as misses, never as
// garbage.
const persistedResponseVersion = 1

// encodePersistedResponse serializes a completion for the store: version,
// content, prompt tokens, completion tokens, latency in nanoseconds.
func encodePersistedResponse(resp Response) []byte {
	e := store.Enc{B: make([]byte, 0, 1+4+len(resp.Content)+24)}
	e.U8(persistedResponseVersion)
	e.Str(resp.Content)
	e.U64(uint64(resp.Usage.PromptTokens))
	e.U64(uint64(resp.Usage.CompletionTokens))
	e.U64(uint64(resp.Latency))
	return e.B
}

// decodePersistedResponse reverses encodePersistedResponse. A wrong version
// or malformed layout reads as a miss (ok=false); the caller falls through to
// the model.
func decodePersistedResponse(val []byte) (Response, bool) {
	d := store.Dec{B: val}
	if d.U8() != persistedResponseVersion {
		return Response{}, false
	}
	resp := Response{Content: d.Str()}
	resp.Usage.PromptTokens = int(d.U64())
	resp.Usage.CompletionTokens = int(d.U64())
	resp.Latency = time.Duration(d.U64())
	return resp, d.End() == nil
}
