// Package cedar is the public API of the CEDAR claim-verification system:
// cost-efficient, data-driven fact-checking of natural-language claims
// against relational data (Jayasekara & Trummer, PVLDB 2025).
//
// A System bundles the verification method stack (one-shot and agent-based
// claim-to-SQL translation over a family of language models), the profiling
// machinery that estimates each method's success probability and cost, and
// the cost-based scheduler that orders methods and retries to meet a
// user-chosen accuracy target at minimal expected cost.
//
// Typical use:
//
//	sys, _ := cedar.New(cedar.Options{Seed: 1, AccuracyTarget: 0.99})
//	profileDocs, _ := cedar.Benchmark(cedar.BenchAggChecker, 7)
//	_ = sys.ProfileOn(profileDocs[:8])
//	docs, _ := cedar.Benchmark(cedar.BenchAggChecker, 8)
//	report, _ := sys.Verify(docs)
//	fmt.Println(report)
package cedar

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/claim"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/route"
	"repro/internal/schedule"
	"repro/internal/sqldb"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Re-exported domain types (Definitions 2.1-2.6 of the paper).
type (
	// Document is a text document whose claims refer to a database.
	Document = claim.Document
	// Claim is one verifiable statement.
	Claim = claim.Claim
	// Result is a claim's verification outcome.
	Result = claim.Result
	// Quality holds precision/recall/F1 over the incorrect-claim class.
	Quality = metrics.Quality
	// Database is the relational store claims are verified against.
	Database = sqldb.Database
	// Table is one relation of a Database.
	Table = sqldb.Table
	// Tracer is the attempt-level trace recorder (internal/trace); install
	// one via Options.Tracer to capture per-attempt spans.
	Tracer = trace.Tracer
	// TraceManifest describes the run a trace belongs to.
	TraceManifest = trace.Manifest
)

// NewTracer constructs an enabled trace recorder for Options.Tracer.
func NewTracer() *Tracer { return trace.New() }

// Model names of the built-in simulated GPT family.
const (
	ModelGPT35 = llm.ModelGPT35
	ModelGPT4o = llm.ModelGPT4o
	ModelGPT41 = llm.ModelGPT41
)

// Options configure a System.
type Options struct {
	// Seed drives all simulated-model randomness; equal seeds reproduce
	// runs exactly.
	Seed int64
	// AccuracyTarget is the accuracy constraint for schedule planning in
	// (0, 1]; higher targets verify more thoroughly at higher cost.
	// Default 0.99 (the paper's default threshold).
	AccuracyTarget float64
	// CostBudgetPerClaim, when positive, plans for maximal accuracy within
	// an expected per-claim dollar budget instead of an accuracy target —
	// the inverse knob for deployments with a hard spending limit.
	CostBudgetPerClaim float64
	// MaxTries bounds retries per method in the schedule (default 2).
	MaxTries int
	// CacheResponses enables a temperature-0 completion cache in front of
	// each model: repeated deterministic prompts are answered locally and
	// incur no fees. Off by default to keep cost accounting comparable to
	// the paper's (which pays for every invocation).
	CacheResponses bool
	// CacheDir, when non-empty, extends the cache across processes: the
	// directory holds a disk-backed result store (internal/store, DESIGN.md
	// §11) persisting temperature-0 completions and claim-level verdict
	// memos. A warm run answers persisted work at zero fee with bit-identical
	// verdicts and (normalized) traces — the cross-process determinism
	// contract. Setting CacheDir implies CacheResponses. Call System.Close
	// to release the store's file handles.
	CacheDir string
	// Workers > 1 verifies concurrently: documents fan out across workers
	// and, within each document, independent claim attempts share the same
	// bounded pool. Verification is bit-for-bit deterministic regardless of
	// Workers — every model invocation draws randomness from a seed split
	// off (Seed, document, claim, method, try), never from shared state —
	// so parallelism only changes wall-clock time.
	Workers int

	// Route enables cross-database claim routing (DESIGN.md §16): compound
	// claims — conjunctions of several atomic statements — are decomposed,
	// each sub-claim is routed to the best-matching table of the catalog
	// registered via SetCatalog, verified there as an ordinary claim, and
	// the sub-verdicts recombine under AND-semantics. Claims that do not
	// decompose are verified whole against their home database, bit-identical
	// to Route being off. Routing never alters the verification schedule:
	// sub-claims verify under the same planned schedule as any other claim,
	// which is what keeps verdicts identical whether a sub-claim is planned
	// in-process, on a serving replica, or at a sharding coordinator (the
	// priced routed schedule is reporting-only; see RoutedSchedule).
	Route bool
	// RouteTopK bounds the candidate tables the routing stage considers per
	// sub-claim; 0 means route.DefaultTopK.
	RouteTopK int

	// Retries, when positive, retries each failed retryable model call up to
	// Retries additional times with capped exponential backoff and
	// deterministic seeded jitter (see internal/llm/resilience).
	Retries int
	// Timeout, when positive, bounds one logical call's simulated wall time
	// across retries; exceeding it fails the call with a timeout error.
	Timeout time.Duration
	// HedgeAfter, when positive, races a backup completion once the primary
	// exceeds this simulated latency; the faster result wins and both are
	// billed (tail-latency insurance costs tokens).
	HedgeAfter time.Duration
	// BreakerThreshold, when positive, installs a per-model circuit breaker
	// that trips open after this many consecutive failures and sheds calls
	// so the scheduler degrades to the next-cheapest method. The breaker's
	// shared state is order-dependent: enabling it gives up across-worker-
	// count bit-determinism in exchange for load shedding (DESIGN.md §9).
	BreakerThreshold int
	// FaultRate, when positive, injects deterministic transport failures
	// into every model call at this per-attempt probability — the chaos-
	// testing knob. Faults derive from (Seed, request identity), so a faulty
	// run reproduces exactly at any worker count.
	FaultRate float64
	// Tracer, when non-nil, records one structured span per model attempt
	// plus middleware events (cache, retry, hedge, breaker, fault) and
	// per-attempt outcomes — the DESIGN.md §10 observability layer. Verify
	// resets it at the start of each run (like the fee ledger) so a trace
	// covers exactly one run. Nil (the default) disables tracing at zero
	// cost on the attempt hot path.
	Tracer *trace.Tracer
}

// System is a configured CEDAR instance.
type System struct {
	opts  Options
	stack *verify.Stack
	stats []schedule.MethodStats
	pipe  *core.Pipeline
	// store is the persistent result store (nil without Options.CacheDir).
	store *store.Store
	// catalog indexes the routable databases when Options.Route is on;
	// catalogFP fingerprints their contents into the memo config key.
	catalog   *route.Catalog
	catalogFP []byte

	// runMu serializes verification runs: the fee ledger and the tracer are
	// run-scoped (reset at run start, read at run end), so overlapping runs
	// would cross-bill each other. Serialization makes Verify/VerifyClaims
	// safe for concurrent callers — cedar-serve relies on this when its
	// micro-batch loop shares one System across all HTTP requests.
	runMu sync.Mutex
}

// ErrNotProfiled is returned by Verify before ProfileOn (or SetStats) has
// provided the scheduler with method statistics.
var ErrNotProfiled = errors.New("cedar: system not profiled; call ProfileOn first")

// ErrNoCatalog is returned by Verify when Options.Route is on but no catalog
// has been registered via SetCatalog.
var ErrNoCatalog = errors.New("cedar: routing enabled but no catalog registered; call SetCatalog first")

// New builds a System with the standard four-method stack of Section 7.1:
// one-shot translation with GPT-3.5 and GPT-4o, agent-based verification
// with GPT-4o and GPT-4.1 (simulated models; see internal/llm/sim), wrapped
// in the middleware the options ask for (verify.NewStack).
func New(opts Options) (*System, error) {
	if opts.AccuracyTarget == 0 {
		opts.AccuracyTarget = 0.99
	}
	if opts.AccuracyTarget < 0 || opts.AccuracyTarget > 1 {
		return nil, fmt.Errorf("cedar: accuracy target %v outside (0, 1]", opts.AccuracyTarget)
	}
	var st *store.Store
	if opts.CacheDir != "" {
		// A persistent store without the in-memory cache layer has nothing to
		// feed it, so CacheDir implies CacheResponses.
		opts.CacheResponses = true
		var err error
		st, err = store.Open(opts.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("cedar: opening cache dir: %w", err)
		}
	}
	stack, err := verify.NewStack(opts.Seed, verify.Middleware{
		FaultRate:        opts.FaultRate,
		Retries:          opts.Retries,
		Timeout:          opts.Timeout,
		HedgeAfter:       opts.HedgeAfter,
		BreakerThreshold: opts.BreakerThreshold,
		Tracer:           opts.Tracer,
		Store:            st,
		Cache:            opts.CacheResponses,
	})
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, err
	}
	return &System{opts: opts, stack: stack, store: st}, nil
}

// ProfileOn estimates per-method success probabilities and costs on a
// labeled sample of documents and plans the verification schedule for the
// configured accuracy target.
func (s *System) ProfileOn(docs []*Document) error {
	stats, err := profile.Run(s.stack.Methods, docs, s.stack.Ledger, profile.Options{})
	if err != nil {
		return fmt.Errorf("cedar: profiling: %w", err)
	}
	s.stack.Ledger.Reset()
	return s.SetStats(stats)
}

// SetStats installs externally obtained profiling statistics and replans
// the schedule.
func (s *System) SetStats(stats []schedule.MethodStats) error {
	p, err := core.New(core.Config{
		Methods:        s.stack.Methods,
		Stats:          stats,
		AccuracyTarget: s.opts.AccuracyTarget,
		CostBudget:     s.opts.CostBudgetPerClaim,
		MaxTries:       s.opts.MaxTries,
		Seed:           s.opts.Seed,
		Workers:        s.opts.Workers,
		Tracer:         s.opts.Tracer,
	})
	if err != nil {
		return err
	}
	s.stats = stats
	s.pipe = p
	return nil
}

// Stats returns the current profiling statistics (nil before ProfileOn).
func (s *System) Stats() []schedule.MethodStats { return s.stats }

// SetCatalog registers the databases whose tables compound claims may route
// to (Options.Route). The catalog is rebuilt from the databases' current
// contents — re-register after ingesting or dropping tables. Registration
// order is part of the routing identity: use the same order everywhere the
// same claims are planned.
func (s *System) SetCatalog(dbs ...*Database) error {
	if len(dbs) == 0 {
		return errors.New("cedar: SetCatalog needs at least one database")
	}
	cat := route.NewCatalog(dbs...)
	if cat.Len() == 0 {
		return errors.New("cedar: SetCatalog found no tables to route to")
	}
	fp := newFields()
	fp.u64(uint64(len(dbs)))
	for _, db := range dbs {
		d := dbFingerprint(db)
		fp.buf = append(fp.buf, d[:]...)
	}
	s.catalog = cat
	s.catalogFP = fp.buf
	return nil
}

// Catalog returns the registered routing catalog (nil before SetCatalog).
func (s *System) Catalog() *route.Catalog { return s.catalog }

// RoutedSchedule renders the DP-priced end-to-end schedule of a routed
// claim: the planned verification schedule with the routing stage's fee and
// wrong-routing risk applied (schedule.RouteStage). It is a reporting and
// planning surface — verification itself always runs the shared schedule,
// so that a sub-claim's verdict is identical to the verdict of the same
// sentence arriving as a plain claim.
func (s *System) RoutedSchedule() string {
	if s.pipe == nil {
		return "(not planned)"
	}
	if !s.opts.Route {
		return s.Schedule()
	}
	mt := s.opts.MaxTries
	if mt <= 0 {
		mt = 2
	}
	rs := schedule.RouteStage{Fee: route.DefaultFee, Accuracy: route.DefaultAccuracy}
	plan, err := schedule.PlanRouted(s.stats, mt, s.opts.AccuracyTarget, rs)
	if err != nil {
		return s.Schedule()
	}
	return plan.String()
}

// Resilience snapshots the operational counters of the resilience middleware
// (attempts, retries, injected faults, hedges, breaker activity) accumulated
// since the system was built.
func (s *System) Resilience() metrics.ResilienceSnapshot { return s.stack.Resilience.Snapshot() }

// TraceManifest assembles the run manifest for a trace of the given corpus:
// the seed, worker count, corpus size, and the system's full option set. It
// belongs with the trace summary, not the JSONL span stream — it names the
// worker count, which the byte-identical determinism contract deliberately
// excludes.
func (s *System) TraceManifest(docs []*Document) TraceManifest {
	return trace.Manifest{
		Seed:    s.opts.Seed,
		Workers: s.opts.Workers,
		Docs:    len(docs),
		Claims:  claim.TotalClaims(docs),
		Options: s.opts,
	}
}

// Schedule describes the planned verification schedule.
func (s *System) Schedule() string {
	if s.pipe == nil {
		return "(not planned)"
	}
	return s.pipe.Schedule().String()
}

// Report summarizes one verification run.
type Report struct {
	// Quality scores the verdicts against gold labels where documents
	// carry them (synthetic benchmarks); all-zero for unlabeled input.
	Quality Quality
	// Claims is the number of claims processed.
	Claims int
	// Verified counts claims that some method verified plausibly.
	Verified int
	// Flagged counts claims marked incorrect.
	Flagged int
	// Dollars is the total simulated LLM fee of the run.
	Dollars float64
	// Calls is the number of model invocations.
	Calls int
	// PersistedHits counts temperature-0 completions this run answered from
	// the persistent store (Options.CacheDir) at zero fee — completions some
	// earlier run already paid for. Zero without a cache dir.
	PersistedHits int
	// RoutedSubClaims counts routing decisions of the run (sub-claims of
	// compound claims bound to catalog tables; Options.Route); RouteDollars
	// is their total routing fee, already included in Dollars. Both are zero
	// when routing is off or nothing decomposed.
	RoutedSubClaims int
	RouteDollars    float64
	// MemoHits counts claims whose freshly computed verdict matched a
	// persisted verdict memo; MemoMismatches counts disagreements (the memo
	// is then overwritten — memos validate, they never override).
	MemoHits       int
	MemoMismatches int
}

// String renders the report.
func (r Report) String() string {
	return fmt.Sprintf("claims=%d verified=%d flagged=%d cost=$%.4f calls=%d | %v",
		r.Claims, r.Verified, r.Flagged, r.Dollars, r.Calls, r.Quality)
}

// Verify runs multi-stage verification (Algorithm 1) over the documents,
// annotating each claim's Result in place, and returns a run report.
//
// Verify is safe for concurrent use: runs are serialized, because the fee
// ledger and the tracer cover exactly one run each. Documents within a run
// are mutually independent (per-document schedules, samples, and split
// seeds), so a claim's verdict depends only on its own document's identity
// and contents — never on which other documents share the run. That
// independence is what lets cedar-serve coalesce concurrent requests into
// micro-batches without perturbing any request's results.
func (s *System) Verify(docs []*Document) (Report, error) {
	return s.verifyRun(docs, nil)
}

// verifyRun is Verify plus an optional span capture: when spans is non-nil it
// receives the run's trace while runMu is still held, so the capture cannot
// race a subsequent run's tracer reset. Stream uses it to accumulate per-run
// traces across a streamed session.
func (s *System) verifyRun(docs []*Document, spans *[]trace.Span) (Report, error) {
	if s.pipe == nil {
		return Report{}, ErrNotProfiled
	}
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.stack.Ledger.Reset()
	// A trace covers exactly one run: drop spans from profiling or earlier
	// runs, mirroring the ledger reset.
	s.opts.Tracer.Reset()
	// Routing expands compound claims into routed single-claim unit
	// documents before verification; documents without compound claims pass
	// through as the same pointers, so a route-enabled run over simple
	// claims is bit-identical to routing being off. Planning happens under
	// runMu and single-threaded, so bindings and route spans are
	// deterministic at any worker count.
	runDocs := docs
	var plan *route.Plan
	if s.opts.Route {
		if s.catalog == nil {
			return Report{}, ErrNoCatalog
		}
		plan = route.PlanDocuments(docs, s.catalog, route.Options{
			Seed:   s.opts.Seed,
			TopK:   s.opts.RouteTopK,
			Tracer: s.opts.Tracer,
		})
		runDocs = plan.Expanded
	}
	prePersist := s.persistHits()
	if s.opts.Workers > 1 {
		s.pipe.VerifyDocumentsParallel(runDocs, s.opts.Workers)
	} else {
		s.pipe.VerifyDocuments(runDocs)
	}
	if plan != nil {
		plan.Recombine()
	}
	rep := Report{
		Quality:       metrics.Evaluate(docs),
		Claims:        claim.TotalClaims(docs),
		Dollars:       s.stack.Ledger.TotalDollars(),
		Calls:         s.stack.Ledger.TotalCalls(),
		PersistedHits: s.persistHits() - prePersist,
	}
	if plan != nil {
		rep.RoutedSubClaims = plan.SubClaims
		rep.RouteDollars = plan.Fee
		rep.Dollars += plan.Fee
	}
	rep.MemoHits, rep.MemoMismatches = s.memoPass(runDocs)
	for _, d := range docs {
		for _, c := range d.Claims {
			if c.Result.Verified {
				rep.Verified++
			}
			if !c.Result.Correct {
				rep.Flagged++
			}
		}
	}
	if spans != nil && s.opts.Tracer.Enabled() {
		*spans = s.opts.Tracer.Spans()
	}
	s.stack.Ledger.Reset()
	return rep, nil
}

// persistHits sums persisted-store hits across the per-model caches (a
// lifetime counter; Verify reports per-run deltas).
func (s *System) persistHits() int {
	total := 0
	for _, c := range s.stack.Caches {
		_, hits := c.PersistStats()
		total += hits
	}
	return total
}

// memoPass reconciles freshly computed verdicts with the persistent memo
// layer after a run (DESIGN.md §11). For each claim it recomputes the memo
// key and either (a) validates the fresh verdict against the stored memo —
// counting a hit on agreement, recording a memo_mismatch span and
// overwriting on disagreement — or (b) stores a new memo on a miss. Memos
// never feed verdicts forward: the pipeline has already run, so a corrupt or
// stale memo can surface as a mismatch but cannot alter a Result.
func (s *System) memoPass(docs []*Document) (hits, mismatches int) {
	if s.store == nil {
		return 0, 0
	}
	cfgFP := s.configFingerprint()
	for _, d := range docs {
		dbFP := dbFingerprint(d.Data)
		for i, c := range d.Claims {
			key := memoKey(dbFP, cfgFP, d.ID, i, c)
			fresh := c.Result
			if val, ok := s.store.Get(key); ok {
				if memo, ok := decodeMemo(val); ok {
					if memoEqual(memo, fresh) {
						hits++
						continue
					}
					mismatches++
					if s.opts.Tracer.Enabled() {
						s.opts.Tracer.Record(trace.Span{
							Key:     trace.Key{Doc: d.ID, Claim: i, Method: "memo"},
							Kind:    trace.KindMemoMismatch,
							Outcome: trace.OutcomeError,
							Detail:  fmt.Sprintf("memo %s vs fresh %s", memoVerdict(memo), memoVerdict(fresh)),
						})
					}
				}
			}
			// Miss, undecodable, or mismatch: persist the fresh verdict.
			_ = s.store.Put(key, encodeMemo(fresh))
		}
	}
	return hits, mismatches
}

// memoVerdict renders a Result's verdict compactly for mismatch diagnostics.
func memoVerdict(r claim.Result) string {
	return fmt.Sprintf("{verified=%t correct=%t method=%s attempts=%d}", r.Verified, r.Correct, r.Method, r.Attempts)
}

// Close releases the persistent result store's file handles (a no-op without
// Options.CacheDir). The System must not verify after Close.
func (s *System) Close() error {
	if s.store == nil {
		return nil
	}
	st := s.store
	s.store = nil
	return st.Close()
}

// Store exposes the persistent store (nil without Options.CacheDir) so
// callers can share it — the dataset registry persists ingested catalogs
// into the same store under its own key prefix.
func (s *System) Store() *store.Store { return s.store }

// StoreStats snapshots the persistent store's activity counters (zero Stats
// without Options.CacheDir).
func (s *System) StoreStats() store.Stats {
	if s.store == nil {
		return store.Stats{}
	}
	return s.store.Stats()
}

// VerifyClaims verifies one batch of claims against a database as a single
// request-scoped run. It wraps the claims in a document whose ID seeds
// every attempt — llm.SplitSeed(Seed, docID, claimIndex, method, try) — so
// the same (docID, claims) pair yields bit-identical verdicts and fees no
// matter which ingress path submitted it. This is the entry point shared by
// cmd/cedar (one run per invocation) and cedar-serve (one run per
// micro-batch); both paths funnel into the same pipeline, so there is no
// behavioral fork between batch and served verification to keep in sync.
//
// The returned Report's Dollars/Calls cover exactly this run. Like Verify,
// concurrent calls are serialized.
func (s *System) VerifyClaims(docID string, db *Database, claims []*Claim) (Report, error) {
	doc := &Document{ID: docID, Domain: "request", Data: db, Claims: claims}
	return s.Verify([]*Document{doc})
}

// --- document construction helpers ---

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database { return sqldb.NewDatabase(name) }

// LoadCSVTable reads a table from CSV (header row then data rows) for use
// in a document's database.
func LoadCSVTable(name string, r io.Reader) (*Table, error) {
	return sqldb.LoadCSV(name, r)
}

// NewClaim builds a claim from a sentence, the claimed value as it appears
// in the sentence, and the surrounding context paragraph. The value's token
// span is located automatically.
func NewClaim(id, sentence, value, context string) (*Claim, error) {
	c, err := claim.New(id, sentence, value, context)
	if err != nil {
		return nil, fmt.Errorf("cedar: %w", err)
	}
	return c, nil
}

// --- benchmark corpora ---

// Benchmark names accepted by Benchmark.
const (
	BenchAggChecker = "aggchecker"
	BenchTabFact    = "tabfact"
	BenchWikiText   = "wikitext"
)

// Benchmark generates one of the built-in synthetic benchmark corpora
// shaped after the paper's datasets.
func Benchmark(name string, seed int64) ([]*Document, error) {
	switch name {
	case BenchAggChecker:
		return data.AggChecker(seed)
	case BenchTabFact:
		return data.TabFact(seed)
	case BenchWikiText:
		return data.WikiText(seed)
	default:
		return nil, fmt.Errorf("cedar: unknown benchmark %q (want %s, %s, or %s)",
			name, BenchAggChecker, BenchTabFact, BenchWikiText)
	}
}

// Evaluate scores annotated documents against their gold labels.
func Evaluate(docs []*Document) Quality { return metrics.Evaluate(docs) }
