package serve

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/fee"
	"repro/internal/trace"
)

// latencyWindowSize bounds the sliding windows behind the /v1/metrics
// quantiles. Counters and fee totals are exact and cumulative; quantiles
// cover the most recent window of samples so a long-lived server reports
// current behavior, not its whole history, at bounded memory.
const latencyWindowSize = 4096

// serveMetrics accumulates the server's operational counters. All methods
// are safe for concurrent use.
type serveMetrics struct {
	mu sync.Mutex

	requests         int64 // verification requests received (both routes)
	rejectedDraining int64
	shedOverload     int64
	deadlineExpired  int64
	badRequests      int64
	internalErrors   int64

	batches int64
	docs    int64
	claims  int64
	dollars fee.Fee
	calls   int64

	// streams counts POST /v1/verify/stream sessions; streamDocs the
	// documents answered through them (also counted in docs above — streamed
	// documents ride ordinary micro-batches).
	streams    int64
	streamDocs int64

	e2e     *window
	methods map[string]*methodAgg
}

// methodAgg is the cumulative per-method view fed from attempt spans.
type methodAgg struct {
	attempts, errors         int64
	promptTokens, compTokens int64
	fee                      fee.Fee
	lat                      *window
}

func newServeMetrics() *serveMetrics {
	return &serveMetrics{e2e: newWindow(latencyWindowSize), methods: make(map[string]*methodAgg)}
}

func (m *serveMetrics) inc(field *int64) {
	m.mu.Lock()
	*field++
	m.mu.Unlock()
}

func (m *serveMetrics) recordRequest(elapsed time.Duration) {
	m.mu.Lock()
	m.requests++
	m.e2e.add(elapsed)
	m.mu.Unlock()
}

func (m *serveMetrics) recordBatch(bs BatchStats) {
	m.mu.Lock()
	m.batches++
	m.docs += int64(bs.Docs)
	m.claims += int64(bs.Claims)
	m.dollars += bs.Dollars
	m.calls += int64(bs.Calls)
	m.mu.Unlock()
}

func (m *serveMetrics) addStreamDoc() {
	m.mu.Lock()
	m.streamDocs++
	m.mu.Unlock()
}

func (m *serveMetrics) recordAttempt(sp trace.Span) {
	method := sp.Method
	if method == "" {
		method = "(untracked)"
	}
	m.mu.Lock()
	a := m.methods[method]
	if a == nil {
		a = &methodAgg{lat: newWindow(latencyWindowSize)}
		m.methods[method] = a
	}
	a.attempts++
	if sp.Outcome != trace.OutcomeOK {
		a.errors++
	}
	a.promptTokens += int64(sp.PromptTokens)
	a.compTokens += int64(sp.CompletionTokens)
	a.fee += sp.Fee
	a.lat.add(sp.Latency)
	m.mu.Unlock()
}

// MetricsResponse is the body answering GET /v1/metrics.
type MetricsResponse struct {
	// Requests tallies admission outcomes since startup.
	Requests RequestCounters `json:"requests"`
	// Verify tallies micro-batch runs: batches, documents, claims, and the
	// cumulative fee/call totals of everything served.
	Verify VerifyCounters `json:"verify"`
	// LatencyMS gives end-to-end request latency quantiles (receive to
	// respond, real wall clock) over the most recent window of requests.
	LatencyMS LatencyQuantiles `json:"latency_ms"`
	// Methods breaks attempts down per verification method (cumulative
	// counts and fees; simulated-latency quantiles over a recent window).
	// Present only when the server was built with a tracer.
	Methods []MethodMetrics `json:"methods,omitempty"`
	// Resilience snapshots the middleware counters (retries, faults,
	// hedges, breaker activity); present when the server exposes them. On a
	// coordinator, breaker_trips/breaker_probes count replica ejections and
	// recovery probes of the replica-level breaker.
	Resilience *ResilienceCounters `json:"resilience,omitempty"`
	// Stream tallies the incremental verification surface; present on
	// servers and coordinators that route POST /v1/verify/stream.
	Stream *StreamCounters `json:"stream,omitempty"`
	// Review snapshots the human-review queue (depth, age, throughput).
	Review *ReviewCounters `json:"review,omitempty"`
	// Shard describes the routing tier; present only on coordinators.
	Shard *ShardCounters `json:"shard,omitempty"`
	// SQL says how the replica's database answered queries — plan cache
	// reuse and, above all, whether the vectorized engine or the row-engine
	// fallback did the work. Present only on replicas.
	SQL *SQLCounters `json:"sql,omitempty"`
	// Runtime is the process's garbage: what it has allocated and what
	// collecting it has cost, since startup.
	Runtime RuntimeCounters `json:"runtime"`
}

// RuntimeCounters are cumulative Go runtime counters, read from
// runtime/metrics, which stops no goroutine to read them. Two readings a
// known number of requests apart give allocation and GC cost per request.
type RuntimeCounters struct {
	AllocBytes   uint64  `json:"alloc_bytes"`    // bytes allocated on the heap
	AllocObjects uint64  `json:"alloc_objects"`  // heap objects allocated
	GCCycles     uint64  `json:"gc_cycles"`      // completed GC cycles
	GCCPUSeconds float64 `json:"gc_cpu_seconds"` // estimated CPU time spent collecting
	// HeapLiveBytes is the heap the last GC cycle marked live.
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
}

// runtimeSamples names the runtime/metrics readings behind RuntimeCounters,
// in its field order.
var runtimeSamples = [...]string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

// readRuntime reads the runtime counters.
func readRuntime() RuntimeCounters {
	var s [len(runtimeSamples)]metrics.Sample
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s[:])
	return RuntimeCounters{
		AllocBytes:    s[0].Value.Uint64(),
		AllocObjects:  s[1].Value.Uint64(),
		GCCycles:      s[2].Value.Uint64(),
		GCCPUSeconds:  s[3].Value.Float64(),
		HeapLiveBytes: s[4].Value.Uint64(),
	}
}

// SQLCounters mirrors sqldb.PlanCacheStats. VecRuns counts query
// executions, every one answered by its vectorized plan. The last four count
// the access paths those runs took on column images of more than 1,024 rows;
// they stay zero on a catalog of smaller tables.
type SQLCounters struct {
	PlanHits    uint64 `json:"plan_hits"`
	PlanMisses  uint64 `json:"plan_misses"`
	PlanEntries int    `json:"plan_entries"`
	VecRuns     uint64 `json:"vec_runs"`
	IndexBuilds uint64 `json:"index_builds"`
	IndexProbes uint64 `json:"index_probes"`
	FoldHits    uint64 `json:"fold_hits"`
	IndexJoins  uint64 `json:"index_joins"`
}

// StreamCounters tallies the streaming surface.
type StreamCounters struct {
	// Sessions counts stream requests; Docs the documents answered through
	// them (each also counted in verify.docs — streamed documents ride
	// ordinary micro-batches).
	Sessions int64 `json:"sessions"`
	Docs     int64 `json:"docs"`
	// Window echoes the configured in-flight bound per stream.
	Window int `json:"window"`
}

// ReviewCounters snapshots the review queue for /v1/metrics and /v1/review.
type ReviewCounters struct {
	// Depth is the pending count; Enqueued/Resolved/Dropped are cumulative.
	Depth    int   `json:"depth"`
	Enqueued int64 `json:"enqueued"`
	Resolved int64 `json:"resolved"`
	Dropped  int64 `json:"dropped"`
	// OldestAgeMS ages the oldest pending item; MaxPriority ranks the head.
	OldestAgeMS int64   `json:"oldest_age_ms"`
	MaxPriority float64 `json:"max_priority"`
}

// ShardCounters is the coordinator's routing rollup.
type ShardCounters struct {
	// Replicas is the registered count; Healthy how many are in the ring.
	Replicas int `json:"replicas"`
	Healthy  int `json:"healthy"`
	// Routed counts proxied requests; Failovers counts hops off a dead or
	// draining replica onto a ring successor.
	Routed    int64 `json:"routed"`
	Failovers int64 `json:"failovers"`
	// Ejections and Readmissions count replica-breaker state changes.
	Ejections    int64 `json:"ejections"`
	Readmissions int64 `json:"readmissions"`
}

// RequestCounters tallies admission and completion outcomes.
type RequestCounters struct {
	Received         int64 `json:"received"`
	ShedOverload     int64 `json:"shed_overload"`     // answered 429
	RejectedDraining int64 `json:"rejected_draining"` // answered 503
	DeadlineExpired  int64 `json:"deadline_expired"`  // answered 504
	BadRequests      int64 `json:"bad_requests"`      // answered 400
	InternalErrors   int64 `json:"internal_errors"`   // answered 500
}

// VerifyCounters tallies verification work done.
type VerifyCounters struct {
	Batches int64   `json:"batches"`
	Docs    int64   `json:"docs"`
	Claims  int64   `json:"claims"`
	Dollars fee.Fee `json:"dollars"`
	Calls   int64   `json:"calls"`
}

// LatencyQuantiles are nearest-rank quantiles in milliseconds.
type LatencyQuantiles struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// MethodMetrics is the served-traffic rollup for one verification method.
type MethodMetrics struct {
	Name             string  `json:"name"`
	Attempts         int64   `json:"attempts"`
	Errors           int64   `json:"errors"`
	PromptTokens     int64   `json:"ptok"`
	CompletionTokens int64   `json:"ctok"`
	Fee              fee.Fee `json:"fee"`
	// SimLatencyMS quantiles cover the method's recent attempts' simulated
	// per-attempt latency (what the tracer's rollups report).
	SimLatencyMS LatencyQuantiles `json:"sim_latency_ms"`
}

// ResilienceCounters mirrors metrics.ResilienceSnapshot with stable JSON
// names for the API surface.
type ResilienceCounters struct {
	Attempts      int64 `json:"attempts"`
	Retries       int64 `json:"retries"`
	Faults        int64 `json:"faults"`
	RateLimited   int64 `json:"rate_limited"`
	Timeouts      int64 `json:"timeouts"`
	Transient     int64 `json:"transient"`
	Permanent     int64 `json:"permanent"`
	Hedges        int64 `json:"hedges"`
	HedgeWins     int64 `json:"hedge_wins"`
	BreakerTrips  int64 `json:"breaker_trips"`
	BreakerSheds  int64 `json:"breaker_sheds"`
	BreakerProbes int64 `json:"breaker_probes"`
}

// snapshot renders the metrics wire body.
func (m *serveMetrics) snapshot() MetricsResponse {
	rt := readRuntime()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := MetricsResponse{
		Runtime: rt,
		Requests: RequestCounters{
			Received:         m.requests,
			ShedOverload:     m.shedOverload,
			RejectedDraining: m.rejectedDraining,
			DeadlineExpired:  m.deadlineExpired,
			BadRequests:      m.badRequests,
			InternalErrors:   m.internalErrors,
		},
		Verify: VerifyCounters{
			Batches: m.batches,
			Docs:    m.docs,
			Claims:  m.claims,
			Dollars: m.dollars,
			Calls:   m.calls,
		},
		LatencyMS: m.e2e.quantiles(),
		Stream:    &StreamCounters{Sessions: m.streams, Docs: m.streamDocs},
	}
	names := make([]string, 0, len(m.methods))
	for name := range m.methods {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := m.methods[name]
		out.Methods = append(out.Methods, MethodMetrics{
			Name:             name,
			Attempts:         a.attempts,
			Errors:           a.errors,
			PromptTokens:     a.promptTokens,
			CompletionTokens: a.compTokens,
			Fee:              a.fee,
			SimLatencyMS:     a.lat.quantiles(),
		})
	}
	return out
}

// window is a fixed-capacity ring of duration samples; quantiles are
// computed over whatever it currently holds.
type window struct {
	buf  []time.Duration
	next int
}

func newWindow(capacity int) *window { return &window{buf: make([]time.Duration, 0, capacity)} }

func (w *window) add(d time.Duration) {
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, d)
		return
	}
	w.buf[w.next] = d
	w.next = (w.next + 1) % len(w.buf)
}

// quantiles computes nearest-rank p50/p95/p99 in milliseconds — the same
// estimator internal/trace uses, so served and traced quantiles compare.
func (w *window) quantiles() LatencyQuantiles {
	n := len(w.buf)
	if n == 0 {
		return LatencyQuantiles{}
	}
	sorted := make([]time.Duration, n)
	copy(sorted, w.buf)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(q float64) float64 {
		r := int(q*float64(n) + 0.999999)
		if r < 1 {
			r = 1
		}
		if r > n {
			r = n
		}
		return float64(sorted[r-1]) / float64(time.Millisecond)
	}
	return LatencyQuantiles{N: n, P50: rank(0.50), P95: rank(0.95), P99: rank(0.99)}
}
