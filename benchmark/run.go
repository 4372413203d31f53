package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"syscall"
	"time"

	"repro/cedar"
	"repro/internal/claim"
	"repro/internal/exp"
	"repro/internal/sqldb"
)

// counters are the process- and database-wide counts a run is bracketed by.
type counters struct {
	cpu                  time.Duration // user + system, whole process
	mallocs, allocBytes  uint64
	gcCycles             uint32
	gcPauseNS            uint64
	planHits, planMisses uint64
}

func readCounters(dbs []*sqldb.Database) (counters, error) {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.mallocs, c.allocBytes, c.gcCycles, c.gcPauseNS = m.Mallocs, m.TotalAlloc, m.NumGC, m.PauseTotalNs
	for _, db := range dbs {
		st := db.PlanCacheStats()
		c.planHits += st.Hits
		c.planMisses += st.Misses
	}
	return c, nil
}

// serverMetrics is the part of a server's GET /v1/metrics the benchmark
// reads (docs/CLI.md).
type serverMetrics struct {
	Requests struct {
		Received     int64 `json:"received"`
		ShedOverload int64 `json:"shed_overload"`
	} `json:"requests"`
	Verify struct {
		Batches int64   `json:"batches"`
		Docs    int64   `json:"docs"`
		Claims  int64   `json:"claims"`
		Dollars float64 `json:"dollars"`
	} `json:"verify"`
	LatencyMS struct {
		N   int     `json:"n"`
		P50 float64 `json:"p50"`
		P99 float64 `json:"p99"`
	} `json:"latency_ms"`
	Shard *struct {
		Failovers int64 `json:"failovers"`
	} `json:"shard"`
}

func fetchMetrics(client *http.Client, base string) (serverMetrics, error) {
	var m serverMetrics
	resp, err := client.Get(base + "/v1/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return m, err
	}
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET %s/v1/metrics: status %d", base, resp.StatusCode)
	}
	return m, json.Unmarshal(raw, &m)
}

// tierMetrics reads every server of a serving system: the replicas, then
// the coordinator if there is one. Nil for a library system.
func (s *system) tierMetrics() ([]serverMetrics, error) {
	urls := s.replicaURLs
	if s.coordURL != "" {
		urls = append(append([]string(nil), urls...), s.coordURL)
	}
	out := make([]serverMetrics, 0, len(urls))
	for _, u := range urls {
		m, err := fetchMetrics(s.client, u)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// result is one measured pass over an operation list.
type result struct {
	rec           *recorder
	wall          time.Duration
	before, after counters
	// tierBefore and tierAfter are the servers' metrics around the list
	// (the warm-up pass went through the same servers), replicas first and
	// the front last.
	tierBefore, tierAfter []serverMetrics
	retries, hedges       int64
	dollars               float64
}

// replicaDelta returns a replica counter's growth over the run, per replica.
func (r *result) replicaDelta(replicas int, f func(m serverMetrics) float64) sample {
	out := make(sample, replicas)
	for i := range out {
		out[i] = f(r.tierAfter[i]) - f(r.tierBefore[i])
	}
	return out
}

// measure runs ops against s and collects everything read at the run's
// boundaries.
func measure(s *system, in *inputs, ops []op, tr *tracer, maxQueries int, guard time.Duration) (*result, error) {
	r := &result{rec: newRecorder(in, s)}
	r.rec.maxQueries = maxQueries
	var err error
	if r.tierBefore, err = s.tierMetrics(); err != nil {
		return nil, err
	}
	resBefore := s.resilience()
	if r.before, err = readCounters(s.dbs); err != nil {
		return nil, err
	}
	r.wall = runOps(s, in, ops, r.rec, tr, time.Now().Add(guard))
	if r.after, err = readCounters(s.dbs); err != nil {
		return nil, err
	}
	resAfter := s.resilience()
	r.retries, r.hedges = resAfter.Retries-resBefore.Retries, resAfter.Hedges-resBefore.Hedges
	if r.tierAfter, err = s.tierMetrics(); err != nil {
		return nil, err
	}
	r.dollars = r.rec.dollars
	if n := in.topo.replicas; n > 0 {
		// A server's response reports the fee of the whole micro-batch the
		// request rode in, so fees are read where they are booked once.
		r.dollars = r.replicaDelta(n, func(m serverMetrics) float64 { return m.Verify.Dollars }).sum()
	}
	return r, nil
}

// warmUp runs the warm-up operations; they count towards set-up, and a
// failure among them fails set-up.
func warmUp(s *system, in *inputs) error {
	rec := newRecorder(in, s)
	runOps(s, in, in.warm, rec, nil, time.Now().Add(time.Minute))
	if rec.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d documents failed: %v", rec.failed, rec.docs, rec.failures)
	}
	return nil
}

// setUp builds the system and warms it up, returning how long that took.
func setUp(in *inputs, tr *tracer, cp *capture) (*system, time.Duration, error) {
	start := time.Now()
	s, err := build(in, tr, cp)
	if err != nil {
		return nil, 0, err
	}
	if err := warmUp(s, in); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// heapLiveMB is the live heap after two collections (the second frees what
// the first's finalizers released), with the caller's systems and inputs
// still referenced.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// reference re-verifies the sampled documents through a fresh cedar.System
// and compares every verdict field for field. For a serving workload the
// system mirrors the replicas' resilience options and the claims are built
// from their wire fields with cedar.NewClaim, as the server builds them; it
// returns how many documents mismatched, and a description of the first few.
func reference(in *inputs, s *system, samples []docOutcome) (int, []string, error) {
	opts := cedar.Options{Seed: sysSeed, AccuracyTarget: accuracyTarget, Workers: 1}
	if in.topo.replicas > 0 {
		sr := exp.ServingResilience()
		opts.Workers = serveWorkers
		opts.Retries, opts.Timeout, opts.HedgeAfter = sr.Retries, sr.Timeout, sr.HedgeAfter
	}
	ref, err := cedar.New(opts)
	if err != nil {
		return 0, nil, err
	}
	if err := ref.ProfileOn(in.profile); err != nil {
		return 0, nil, err
	}
	mismatched := 0
	var diffs []string
	for _, smp := range samples {
		tmpl := s.templates[smp.ref.tmpl]
		claims := claim.CloneDocuments([]*claim.Document{tmpl})[0].Claims
		if in.topo.replicas > 0 {
			for i, c := range tmpl.Claims {
				if claims[i], err = cedar.NewClaim(c.ID, c.Sentence, c.Value, c.Context); err != nil {
					return 0, nil, err
				}
			}
		}
		if _, err := ref.VerifyClaims(smp.ref.id, tmpl.Data, claims); err != nil {
			return 0, nil, err
		}
		want := verdictsOf(&claim.Document{Claims: claims})
		for i := range want {
			if want[i] != smp.verdicts[i] {
				mismatched++
				if len(diffs) < 4 {
					diffs = append(diffs, fmt.Sprintf("%s claim %s: got %+v, library says %+v", smp.ref.id, want[i].ID, smp.verdicts[i], want[i]))
				}
				break
			}
		}
	}
	return mismatched, diffs, nil
}

// metric is one reported number with the count of samples behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// setupRepeats is how many times an untraced run sets the system up; the
// median is reported, and the last system built is the one measured.
const setupRepeats = 5

// guardFactor bounds a run at this many times the seconds asked for.
const guardFactor = 4

// outcome is what one benchmark run reports.
type outcome struct {
	attempted, failed int
	// problems are what failed; notes qualify a number without failing it.
	problems, notes []string
	metrics         []metric
	// info is printed for a reader and is no part of the result: timings of
	// the benchmark's own phases, the verdict digest.
	info   []metric
	digest uint64
}

// runUntraced measures the end-to-end metrics: set-up several times, the
// whole operation list once, then the library reference over the sample.
func runUntraced(in *inputs, cfg config) (*outcome, error) {
	var s *system
	var setups sample
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			s.close()
		}
		var took time.Duration
		var err error
		if s, took, err = setUp(in, nil, nil); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer s.close()
	r, err := measure(s, in, in.ops, nil, 0, cfg.guard())
	if err != nil {
		return nil, err
	}
	heap := heapLiveMB()
	runtime.KeepAlive(in)

	refStart := time.Now()
	mismatched, diffs, err := reference(in, s, r.rec.samples)
	if err != nil {
		return nil, err
	}
	rec := r.rec
	out := &outcome{attempted: rec.docs, failed: rec.failed + mismatched}
	out.problems = append(append(out.problems, rec.failures...), diffs...)
	if rec.docs < docCount(in.ops) {
		out.notes = append(out.notes, fmt.Sprintf("stopped at the %v guard with %d of %d documents done", cfg.guard(), rec.docs, docCount(in.ops)))
	}
	lat := rec.latency.sorted()
	if !supported(len(lat), 0.95) {
		out.notes = append(out.notes, fmt.Sprintf("latency_p95_ms rests on %d samples, fewer than %d beyond it", len(lat), minBeyond))
	}
	claims := rec.claims
	// A library call returns all its verdicts at once, so its time to first
	// verdict is its latency; only a stream delivers some verdicts early.
	ttfv := rec.ttfv
	if in.topo.replicas == 0 {
		ttfv = rec.latency
	}
	out.metrics = []metric{
		{"setup_s", setups.q(0.5), "s", len(setups)},
		{"claims_per_s", float64(claims) / r.wall.Seconds(), "claims/s", claims},
		{"latency_p50_ms", quantile(lat, 0.50), "ms", len(lat)},
		{"latency_p95_ms", quantile(lat, 0.95), "ms", len(lat)},
		{"ttfv_ms", ttfv.q(0.5), "ms", len(ttfv)},
		{"cpu_ms_per_claim", per(ms(r.after.cpu-r.before.cpu), claims), "ms", claims},
		{"heap_live_mb", heap, "MB", 1},
		{"dollars_per_kclaim", per(r.dollars*1000, claims), "usd", claims},
		{"f1", rec.f1(), "score", claims},
	}
	out.info = []metric{
		{"fail_share", per(float64(out.failed), out.attempted), "share", out.attempted},
		{"bench.wall_s", r.wall.Seconds(), "s", 1},
		{"bench.reference_s", time.Since(refStart).Seconds(), "s", len(rec.samples)},
	}
	out.digest = rec.digest
	return out, nil
}

func docCount(ops []op) int {
	n := 0
	for _, o := range ops {
		n += len(o.docs)
	}
	return n
}

// tracedShare is the part of the operation list the traced run covers.
const tracedShare = 4

// runTraced measures the per-layer metrics: the first quarter of the
// operation list untraced (for the counters read at the run's boundaries
// and the tracing overhead), the same quarter again with the span wrappers
// in, then the replays. The two runs must agree on every verdict and on the
// fee.
func runTraced(w *workload, in *inputs, cfg config) (*outcome, error) {
	ops := in.ops[:(len(in.ops)+tracedShare-1)/tracedShare]

	plain, _, err := setUp(in, nil, nil)
	if err != nil {
		return nil, err
	}
	base, err := measure(plain, in, ops, nil, 0, cfg.guard())
	plain.close()
	if err != nil {
		return nil, err
	}

	tr := newTracer(w.name)
	cp := newCapture(cfg.replayMax)
	s, _, err := setUp(in, tr, cp)
	if err != nil {
		return nil, err
	}
	tr.reset() // the warm-up's spans belong to no document of the run
	traced, err := measure(s, in, ops, tr, cfg.replayMax, cfg.guard())
	s.close()
	if err != nil {
		return nil, err
	}
	if err := tr.write(cfg.out); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}

	out := &outcome{
		attempted: base.rec.docs + traced.rec.docs,
		failed:    base.rec.failed + traced.rec.failed,
		digest:    traced.rec.digest,
	}
	out.problems = append(append(out.problems, base.rec.failures...), traced.rec.failures...)
	if base.rec.digest != traced.rec.digest {
		out.failed++
		out.problems = append(out.problems, fmt.Sprintf("traced run's verdict digest %x differs from the untraced run's %x", traced.rec.digest, base.rec.digest))
	}
	// Fees are sums of per-call fees in completion order, which serving
	// does not fix; equal to within float summation is equal.
	if math.Abs(base.dollars-traced.dollars) > 1e-9*math.Abs(base.dollars) {
		out.failed++
		out.problems = append(out.problems, fmt.Sprintf("traced run's fee $%.9f differs from the untraced run's $%.9f", traced.dollars, base.dollars))
	}
	lm, problems, err := layerMetrics(in, s, base, traced, tr, cp)
	if err != nil {
		return nil, err
	}
	out.metrics = lm
	out.problems = append(out.problems, problems...)
	out.failed += len(problems)
	return out, nil
}
