package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/cedar"
	"repro/internal/claim"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/exp"
	"repro/internal/fee"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/schedule"
	"repro/internal/serve"
	"repro/internal/sqldb"
	"repro/internal/trace"
	"repro/internal/verify"
)

// The identity matrix holds the determinism contract (DESIGN.md §8) in one
// table: a claim's verdict and fee depend on (seed, document, claim) and on
// nothing else — not the layer or transport that carries it, the worker or
// shard count, stream order, store warmth or plan-cache warmth. Cells are
// generated from these axes and filtered by valid; testdata/
// identity_cells.txt pins them one per line, so a lost cell is a diff
// (`go test ./cmd/cedar-serve -run IdentityMatrix -update` rewrites it).
var (
	corpusAxis  = []string{"aggchecker", "joinbench", "routebench", "airlines", "routed", "sales"}
	faultAxis   = []string{"0", "0.05", "0.2", "0.2+hedge", "0.5", "0.2-bare", "serve"}
	layerAxis   = []string{"pipeline", "exp", "system", "stream", "shuffled", "replica-unary", "replica-batch", "replica-stream", "coord-unary", "coord-batch", "coord-stream"}
	workersAxis = []int{1, 2, 8}
	shardsAxis  = []int{1, 2, 4, 8}
	routeAxis   = []bool{false, true}
	storeAxis   = []string{"none", "cold", "warm", "warm-again"}
	planAxis    = []string{"cold", "warm"}
)

var identityCellsPath = filepath.Join("testdata", "identity_cells.txt")

// cell is one point of the axes' product.
type cell struct {
	corpus, fault, layer string
	workers, shards      int
	route                bool
	store, plan          string
}

func (c cell) String() string {
	return fmt.Sprintf("%s fault=%s %s workers=%d shards=%d route=%t store=%s plan=%s",
		c.corpus, c.fault, c.layer, c.workers, c.shards, c.route, c.store, c.plan)
}

// served says whether the corpus is a cedar-serve workload over the airlines
// fixture; its "system" cell is the direct library run cmd/cedar would make.
func (c cell) served() bool {
	return c.corpus == "airlines" || c.corpus == "routed" || c.corpus == "sales"
}

// tier says whether the cell goes over HTTP.
func (c cell) tier() bool { return strings.Contains(c.layer, "-") }

// valid is the one rule that cuts the axes' product down to the cells run.
// Library corpora run on the library layers, served corpora at the serving
// defaults on the direct run and the tier. A coordinator alone has shards,
// and the routed deployment boots two tiers, not four. Routing is on where
// claims compound, and on aggchecker's degenerate system cells. Only the
// System keeps a store; only the pipeline varies its plan cache (fault-free)
// or runs two workers; the exp stack runs the fault rates cedar-bench does.
func valid(c cell) bool {
	compound := c.corpus == "routebench" || c.corpus == "routed"
	switch {
	case c.shards > 1 && !strings.HasPrefix(c.layer, "coord-"),
		c.corpus == "routed" && c.shards != 1 && c.shards != 4,
		c.route != compound && !(c.corpus == "aggchecker" && c.layer == "system" && c.store == "none"),
		c.store != "none" && (c.corpus != "aggchecker" || c.layer != "system"),
		c.plan == "warm" && (c.layer != "pipeline" || c.fault != "0"),
		c.workers == 2 && c.layer != "pipeline",
		c.served() != (c.fault == "serve"),
		c.tier() && !c.served():
		return false
	case c.served():
		return c.workers == 8 && (c.tier() || c.layer == "system")
	case c.layer == "pipeline":
		return c.corpus == "aggchecker" && c.fault != "0.2-bare" || c.corpus == "joinbench" && c.fault == "0"
	case c.layer == "exp":
		return c.corpus == "aggchecker" && (c.fault == "0" || c.fault == "0.2")
	}
	return (c.fault == "0" || c.fault == "0.2-bare") && (c.corpus == "aggchecker" || c.layer == "system" && compound)
}

// identityCells generates the matrix in run order. Each class's first cell
// is its most visible layer's, and a store's cold cell comes before its
// warm ones.
func identityCells() []cell {
	var cells []cell
	for _, corpus := range corpusAxis {
		for _, fault := range faultAxis {
			for _, layer := range layerAxis {
				for _, route := range routeAxis {
					for _, store := range storeAxis {
						for _, workers := range workersAxis {
							for _, shards := range shardsAxis {
								for _, plan := range planAxis {
									if c := (cell{corpus, fault, layer, workers, shards, route, store, plan}); valid(c) {
										cells = append(cells, c)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// middleware is a fault profile's resilience stack: retries recover the
// injected faults, except in "0.2-bare" (a warm store cannot replay a cold
// retry's trace, DESIGN.md §11); "serve" is cedar-serve's default stack.
func middleware(fault string) verify.Middleware {
	switch fault {
	case "serve":
		return exp.ServingResilience()
	case "0.2-bare":
		return verify.Middleware{FaultRate: 0.2}
	case "0.2+hedge":
		return verify.Middleware{FaultRate: 0.2, Retries: 2, HedgeAfter: 2 * time.Second}
	}
	rate, _ := strconv.ParseFloat(fault, 64)
	return verify.Middleware{FaultRate: rate, Retries: 2}
}

// sig is what a cell shows of its run. lines renders what is compared with
// the class reference; the rest feeds the per-cell invariants.
type sig struct {
	ids     []string       // "doc/claim", in document order
	results []claim.Result // a served cell fills only the wire's fields
	full    bool           // results carry Executable and Trace
	quality *metrics.Quality
	ledger  []string // "usage" and "wall" lines, where the ledger is visible
	noFee   bool     // a warm store's fee and calls answer to its cold run
	runs    string   // the run composition a routed fee and trace depend on
	fee     fee.Fee
	calls   int
	spans   []trace.Span // canonical order

	rep     cedar.Report // a System run's store and route accounting
	dir     string       // its store directory
	faults  int64
	touched int // replicas that verified something
}

func (s *sig) addDocs(docs []*claim.Document) {
	for _, d := range docs {
		for _, c := range d.Claims {
			s.ids, s.results = append(s.ids, d.ID+"/"+c.ID), append(s.results, c.Result)
		}
	}
	q := metrics.Evaluate(docs)
	s.full, s.quality = true, &q
}

// lines renders the signature, one "kind text" line each.
func (s *sig) lines() []string {
	var out []string
	for i, r := range s.results {
		out = append(out, fmt.Sprintf("verdict %s verified=%t correct=%t method=%s query=%q attempts=%d failure=%s",
			s.ids[i], r.Verified, r.Correct, r.Method, r.Query, r.Attempts, r.Failure))
		if s.full {
			out = append(out, fmt.Sprintf("result %s executable=%t trace=%q", s.ids[i], r.Executable, r.Trace))
		}
	}
	if s.quality != nil {
		out = append(out, fmt.Sprintf("quality %+v", *s.quality))
	}
	out = append(out, s.ledger...)
	if s.runs == "timed" {
		return out
	}
	if !s.noFee {
		out = append(out, fmt.Sprintf("fee%s %d", s.runs, s.fee), fmt.Sprintf("calls%s %d", s.runs, s.calls))
	}
	return append(out, spanLines("trace"+s.runs, trace.ReplayNormalize(s.spans))...)
}

func spanLines(kind string, spans []trace.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		b, _ := json.Marshal(sp)
		out[i] = kind + " " + string(b)
	}
	return out
}

// firstDiff is the matrix's one first-divergence printer: "" when want and
// got are equal, else the first line that differs.
func firstDiff(want, got []string) string {
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			return fmt.Sprintf("first divergence at line %d:\n want %s\n  got %s", i+1, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		return fmt.Sprintf("%d lines, want %d", len(got), len(want))
	}
	return ""
}

// corpus is a generated corpus of the library layers (prof, eval, dbs) or a
// served corpus's documents (work).
type corpus struct {
	seed              int64
	prof, eval        []*claim.Document
	dbs               []*sqldb.Database // the routing catalog
	work              []serve.DocumentInput
	claims, subClaims int
}

// loadCorpora generates every corpus. The sales claims are the surface an
// in-process ingestion of the fixture generates, two to a document.
func loadCorpora(t *testing.T) (map[string]*corpus, string) {
	agg, err := data.AggChecker(404)
	must(t, err)
	_, norm, err := data.JoinBench(405)
	must(t, err)
	flat, _, err := data.JoinBench(406)
	must(t, err)
	rb, err := data.RouteBench(7)
	must(t, err)
	sales, err := ingest.NewRegistry(sqldb.NewDatabase("airlines"), nil, ingest.Options{Seed: 1}).
		IngestFrom(strings.NewReader(salesFixtureCSV), ingest.Options{Table: "sales"})
	must(t, err)
	cs := map[string]*corpus{
		"aggchecker": {seed: 404, prof: agg[:8], eval: agg[8:20]},
		"joinbench":  {seed: 405, prof: flat[:6], eval: norm},
		"routebench": {seed: 404, prof: agg[:8], eval: rb.Docs, dbs: rb.Databases, subClaims: rb.SubClaims},
		"airlines":   {},
		"routed":     {},
		"sales":      {},
	}
	for _, d := range cs["aggchecker"].eval {
		cs["aggchecker"].dbs = append(cs["aggchecker"].dbs, d.Data)
	}
	cs["airlines"].work = append(shardWorkload(10), serve.DocumentInput{Claims: testClaims}) // the default document ID
	cs["routed"].work = routedWorkload(8)
	for _, in := range cs["routed"].work {
		cs["routed"].subClaims += 2 * (len(in.Claims) - 1) // two conjuncts in each claim but "simple"
	}
	w := &cs["sales"].work
	for i, c := range sales.Surface.Claims {
		if i%2 == 0 {
			*w = append(*w, serve.DocumentInput{DocID: fmt.Sprintf("sales-%d", i/2)})
		}
		(*w)[len(*w)-1].Claims = append((*w)[len(*w)-1].Claims, serve.ClaimInput{ID: c.ID, Sentence: c.Sentence, Value: c.Value, Context: c.Context})
	}
	for _, cp := range cs {
		cp.claims = claim.TotalClaims(cp.eval)
		for _, in := range cp.work {
			cp.claims += len(in.Claims)
		}
	}
	return cs, sales.Info.Fingerprint
}

// matrix carries what cells share.
type matrix struct {
	t                *testing.T                     // owns the tiers and stores, which outlive a cell
	refs             map[string]map[string][]string // class → kind → the first cell's lines
	corpora          map[string]*corpus
	salesFP          string                            // the sales dataset's fingerprint
	stats            map[string][]schedule.MethodStats // per class
	colds            map[string]*sig                   // store=cold cells and their directories, by fault and workers
	tiers            map[string]*shardTier
	ingested         map[*shardTier]bool
	airlines, drinks string // the CSV fixtures
}

func TestIdentityMatrix(t *testing.T) {
	cells := identityCells()
	var pinned []string
	for _, c := range cells {
		pinned = append(pinned, c.String())
	}
	if *update {
		must(t, os.WriteFile(identityCellsPath, []byte(strings.Join(pinned, "\n")+"\n"), 0o644))
	}
	raw, err := os.ReadFile(identityCellsPath)
	must(t, err)
	if d := firstDiff(strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n"), pinned); d != "" {
		t.Fatalf("generated cells differ from %s (-update rewrites it): %s", identityCellsPath, d)
	}

	m := &matrix{t: t, refs: map[string]map[string][]string{}, stats: map[string][]schedule.MethodStats{},
		colds: map[string]*sig{}, tiers: map[string]*shardTier{},
		ingested: map[*shardTier]bool{}, airlines: writeCSVFixture(t), drinks: writeDrinksFixture(t)}
	m.corpora, m.salesFP = loadCorpora(t)
	for _, c := range cells {
		t.Run(c.String(), func(t *testing.T) { m.run(t, c) })
	}
}

func (m *matrix) run(t *testing.T, c cell) {
	var s *sig
	switch {
	case c.tier():
		s = m.served(t, c)
	case c.layer == "pipeline" || c.layer == "exp":
		s = m.pipeline(t, c)
	default:
		s = m.system(t, c)
	}
	m.invariants(t, c, s)
	// Duplicate sub-claims share one unit per run (DESIGN.md §16), so where
	// claims compound, fees and traces hold only across runs of the same
	// documents: all in one, or one each. A stream's micro-batches follow
	// timing.
	if c.corpus == "routebench" || c.corpus == "routed" {
		switch s.runs = "/batch"; c.layer[strings.IndexByte(c.layer, '-')+1:] {
		case "unary":
			s.runs = "/unary"
		case "stream":
			s.runs = "timed"
		}
	}
	m.compare(t, c.corpus+" fault="+c.fault, s.lines())
	if !c.tier() {
		rc := c
		rc.workers, rc.plan, rc.route = 0, "", false
		m.compare(t, rc.String(), spanLines("raw", s.spans))
	}
}

// compare holds lines to the class reference, which is, kind by kind, the
// first cell to show that kind. Raw traces form a class of cells that differ
// only in workers, plan-cache warmth or route.
func (m *matrix) compare(t *testing.T, class string, lines []string) {
	ref := m.refs[class]
	if ref == nil {
		ref = map[string][]string{}
		m.refs[class] = ref
	}
	got, kinds := map[string][]string{}, []string(nil)
	for _, l := range lines {
		k := l[:strings.IndexByte(l, ' ')]
		if got[k] == nil {
			kinds = append(kinds, k)
		}
		got[k] = append(got[k], l)
	}
	for _, k := range kinds {
		if want, ok := ref[k]; !ok {
			ref[k] = got[k]
		} else if d := firstDiff(want, got[k]); d != "" {
			t.Errorf("%s differs from the class reference: %s", k, d)
		}
	}
}

// statsFor profiles a class once; its cells plan from the same statistics.
func (m *matrix) statsFor(t *testing.T, c cell, cp *corpus) []schedule.MethodStats {
	if st, ok := m.stats[c.corpus+c.fault]; ok {
		return st
	}
	vs, err := verify.NewStack(cp.seed, middleware(c.fault))
	must(t, err)
	st, err := profile.Run(vs.Methods, claim.CloneDocuments(cp.prof), vs.Ledger)
	must(t, err)
	m.stats[c.corpus+c.fault] = st
	return st
}

// planCache sums the plan-cache hits and misses of docs' databases, after
// flushing the caches when flush is set.
func planCache(docs []*claim.Document, flush bool) (hits, misses uint64) {
	seen := map[*sqldb.Database]bool{}
	for _, d := range docs {
		if !seen[d.Data] {
			seen[d.Data] = true
			if flush {
				d.Data.InvalidatePlans()
			}
			st := d.Data.PlanCacheStats()
			hits, misses = hits+st.Hits, misses+st.Misses
		}
	}
	return hits, misses
}

// pipeline runs core.Pipeline over verify.NewStack, the ledger in view, or
// the experiment drivers' stack, exp.NewStackResilient.
func (m *matrix) pipeline(t *testing.T, c cell) *sig {
	cp, mw, s := m.corpora[c.corpus], middleware(c.fault), &sig{}
	mw.Tracer = trace.New()
	docs := claim.CloneDocuments(cp.eval)
	if c.layer == "exp" {
		st, err := exp.NewStackResilient(cp.seed, mw)
		must(t, err)
		st.Workers = c.workers
		_, rc, _, err := st.RunCEDAR(m.statsFor(t, c, cp), 0.99, docs)
		must(t, err)
		s.fee, s.calls, s.faults = fee.FromDollars(rc.Dollars), rc.Calls, st.Resilience.Snapshot().Faults
		s.ledger = []string{"wall " + rc.Wall.String()}
	} else {
		vs, err := verify.NewStack(cp.seed, mw)
		must(t, err)
		p, err := core.New(core.Config{Methods: vs.Methods, Stats: m.statsFor(t, c, cp), AccuracyTarget: 0.99,
			Seed: cp.seed, Workers: c.workers, Tracer: mw.Tracer})
		must(t, err)
		hits, misses := planCache(docs, c.plan == "cold")
		p.VerifyDocumentsParallel(docs, c.workers)
		if h, ms := planCache(docs, false); c.plan == "warm" && h <= hits || c.plan == "cold" && ms <= misses {
			t.Errorf("plan cache %s: hits %d→%d, misses %d→%d", c.plan, hits, h, misses, ms)
		}
		s.fee, s.calls, s.faults = vs.Ledger.TotalFee(), vs.Ledger.TotalCalls(), vs.Resilience.Snapshot().Faults
		s.ledger = []string{fmt.Sprintf("usage %+v", vs.Ledger.TotalUsage()), "wall " + vs.Ledger.TotalWall().String()}
	}
	s.spans = mw.Tracer.Spans()
	s.addDocs(docs)
	return s
}

// system runs cedar.System: one Verify, or a Stream in arrival or shuffled
// order, over a store directory when the cell keeps one. A served corpus's
// System is the one cmd/cedar assembles from the serving flags.
func (m *matrix) system(t *testing.T, c cell) *sig {
	tracer, s := cedar.NewTracer(), &sig{noFee: strings.HasPrefix(c.store, "warm")}
	var sys *cedar.System
	var docs []*cedar.Document
	var err error
	if c.served() {
		sys, docs = m.direct(t, c, tracer)
	} else {
		cp, mw, key := m.corpora[c.corpus], middleware(c.fault), fmt.Sprintf("%s/%d", c.fault, c.workers)
		if c.store == "cold" {
			s.dir = m.t.TempDir()
		} else if cold := m.colds[key]; c.store != "none" {
			if cold == nil {
				t.Fatalf("no cold store for %s", key)
			}
			s.dir = cold.dir
		}
		sys, err = cedar.New(cedar.Options{Seed: cp.seed, Workers: c.workers, FaultRate: mw.FaultRate, Retries: mw.Retries,
			HedgeAfter: mw.HedgeAfter, Route: c.route, Tracer: tracer, CacheDir: s.dir})
		must(t, err)
		must(t, sys.SetStats(m.statsFor(t, c, cp)))
		if c.route {
			must(t, sys.SetCatalog(cp.dbs...))
		}
		docs = claim.CloneDocuments(cp.eval)
	}
	defer func() { must(t, sys.Close()) }()
	if c.layer == "system" {
		s.rep, err = sys.Verify(docs)
		must(t, err)
		s.fee, s.calls, s.spans = fee.FromDollars(s.rep.Dollars), s.rep.Calls, tracer.Spans()
	} else {
		s.fee, s.calls, s.spans = streamRun(t, sys, docs, c.layer == "shuffled")
	}
	s.faults = sys.Resilience().Faults
	s.addDocs(docs)
	return s
}

// streamRun submits docs through one Stream with window 2, in order or
// shuffled, and returns the session's fee, calls and raw trace. A document
// never delivered shows as claims never attempted.
func streamRun(t *testing.T, sys *cedar.System, docs []*cedar.Document, shuffled bool) (fee.Fee, int, []trace.Span) {
	order := make([]int, len(docs))
	for i := range order {
		order[i] = i
	}
	if shuffled {
		slices.Reverse(order)
		order[0], order[2] = order[2], order[0]
	}
	st := sys.NewStream(2)
	go func() {
		for _, i := range order {
			if err := st.Submit(docs[i]); err != nil {
				t.Error(err)
			}
		}
		st.Close()
	}()
	var total fee.Fee
	calls, n := 0, 0
	for o := range st.Results() {
		if o.Err != nil || o.Index != n || o.Doc != docs[order[n]] {
			t.Errorf("outcome %d: index %d, err %v, or not in arrival order", n, o.Index, o.Err)
		}
		total, calls, n = total+fee.FromDollars(o.Report.Dollars), calls+o.Report.Calls, n+1
	}
	return total, calls, st.Spans()
}

// direct opens the System cmd/cedar assembles from the serving flags and
// builds the workload's documents over its database.
func (m *matrix) direct(t *testing.T, c cell, tracer *cedar.Tracer) (*cedar.System, []*cedar.Document) {
	o := testOptions(t, m.airlines)
	if c.route {
		routedTune(m.drinks)(o)
	}
	sys, err := o.Open(tracer, ingest.Options{Seed: o.Seed})
	must(t, err)
	if c.corpus == "sales" {
		ds, err := sys.Datasets.IngestFrom(strings.NewReader(salesFixtureCSV), ingest.Options{Table: "sales"})
		if err != nil || ds.Info.Fingerprint != m.salesFP {
			t.Fatalf("ingest: %v, fingerprint %s, want %s", err, ds.Info.Fingerprint, m.salesFP)
		}
	}
	var docs []*cedar.Document
	for _, in := range m.corpora[c.corpus].work {
		d := &cedar.Document{ID: in.DocID, Data: sys.DB}
		if d.ID == "" {
			d.ID = sys.Name
		}
		for _, ci := range in.Claims {
			cl, err := cedar.NewClaim(ci.ID, ci.Sentence, ci.Value, ci.Context)
			must(t, err)
			d.Claims = append(d.Claims, cl)
		}
		docs = append(docs, d)
	}
	return sys.System, docs
}

// tier boots a coordinator over c.shards replicas once per deployment. The
// airlines and sales corpora share one, the dataset posted after the
// airlines cells ran.
func (m *matrix) tier(t *testing.T, c cell) *shardTier {
	key := fmt.Sprintf("%t/%d", c.route, c.shards)
	tr := m.tiers[key]
	if tr == nil {
		var tune func(*serveOptions)
		if c.route {
			tune = routedTune(m.drinks)
		}
		tr = bootShardTier(m.t, m.airlines, c.shards, tune)
		m.tiers[key] = tr
	}
	if c.corpus == "sales" && !m.ingested[tr] {
		if got := postDataset(t, tr.coordTS.URL); got.Dataset.Fingerprint != m.salesFP {
			t.Fatalf("coordinator ingest fingerprint %s, want %s", got.Dataset.Fingerprint, m.salesFP)
		}
		m.ingested[tr] = true
	}
	return tr
}

// served sends the workload over HTTP, to the one-shard tier's replica or to
// a coordinator, and merges every replica's trace.
func (m *matrix) served(t *testing.T, c cell) *sig {
	tr := m.tier(t, c)
	base := tr.coordTS.URL
	if strings.HasPrefix(c.layer, "replica-") {
		base = tr.replicas[0].ts.URL
	}
	for _, r := range tr.replicas {
		r.sink.take()
	}
	work := m.corpora[c.corpus].work
	s := &sig{}
	var docs []serve.DocumentResult
	switch c.layer[strings.IndexByte(c.layer, '-')+1:] {
	case "unary":
		for _, in := range work {
			var out serve.VerifyResponse
			postJSON(t, base+"/v1/verify", serve.VerifyRequest{DocID: in.DocID, Claims: in.Claims}, &out)
			if out.Batch.Docs != 1 || out.Batch.Claims != len(in.Claims) {
				t.Errorf("%s: batch stats %+v do not describe the request", out.DocID, out.Batch)
			}
			docs = append(docs, serve.DocumentResult{DocID: out.DocID, Claims: out.Claims})
			s.fee, s.calls = s.fee+out.Batch.Dollars, s.calls+out.Batch.Calls
		}
	case "batch":
		var out serve.BatchResponse
		postJSON(t, base+"/v1/verify/batch", serve.BatchRequest{Documents: work}, &out)
		docs, s.fee, s.calls = out.Documents, out.Batch.Dollars, out.Batch.Calls
	case "stream":
		var body bytes.Buffer
		for _, in := range work {
			b, _ := json.Marshal(in)
			body.Write(append(b, '\n'))
		}
		resp, err := http.Post(base+"/v1/verify/stream", "application/x-ndjson", &body)
		must(t, err)
		defer resp.Body.Close()
		for dec, last := json.NewDecoder(resp.Body), -1; ; {
			var ev serve.StreamEvent
			if err := dec.Decode(&ev); err == io.EOF {
				break
			} else if err != nil || ev.Event == "error" {
				t.Fatalf("stream: %v %+v", err, ev.Error)
			}
			if ev.Event == "summary" {
				s.fee, s.calls = ev.Summary.Dollars, ev.Summary.Calls
			} else if ev.Index != last {
				docs, last = append(docs, serve.DocumentResult{DocID: ev.DocID, Claims: []serve.ClaimResult{*ev.Claim}}), ev.Index
			} else {
				docs[len(docs)-1].Claims = append(docs[len(docs)-1].Claims, *ev.Claim)
			}
		}
	}
	for _, d := range docs {
		for _, cr := range d.Claims {
			s.ids = append(s.ids, d.DocID+"/"+cr.ID)
			s.results = append(s.results, claim.Result{Verified: cr.Verified, Correct: cr.Correct, Method: cr.Method,
				Query: cr.Query, Attempts: cr.Attempts, Failure: cr.Failure})
		}
	}
	for i, r := range tr.replicas {
		spans := r.sink.take()
		if len(spans) > 0 {
			s.touched++
		}
		s.spans = append(s.spans, spans...)
		if c.corpus == "sales" {
			var got serve.DatasetResponse
			if _, body := getJSONStatus(t, r.ts.URL+"/v1/datasets/sales"); json.Unmarshal(body, &got) != nil ||
				got.Dataset.Fingerprint != m.salesFP {
				t.Errorf("replica %d dataset %s", i, body)
			}
		}
	}
	trace.SortSpans(s.spans)
	return s
}

func postJSON(t *testing.T, url string, in, out any) {
	t.Helper()
	body, _ := json.Marshal(in)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	must(t, err)
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, out) != nil {
		t.Fatalf("POST %s = %d: %s", url, resp.StatusCode, raw)
	}
}

// invariants are the checks of one cell on its own.
func (m *matrix) invariants(t *testing.T, c cell, s *sig) {
	cp := m.corpora[c.corpus]
	// No claim is lost: each has a verdict in exactly one terminal bucket,
	// and the quality partition sums to the claim count.
	good, failed := 0, 0
	for i, r := range s.results {
		routed, lost := strings.HasPrefix(r.Method, "route("), false
		switch {
		case routed: // a compound claim's verdict recombines its sub-claims'
		case r.Verified:
			lost = r.Method == "" || r.Method == claim.MethodUnverified || r.Method == claim.MethodFailed
		case r.Method == claim.MethodFailed:
			lost = r.Failure == ""
		default:
			lost = r.Method != claim.MethodUnverified || r.Failure != ""
		}
		if lost || r.Attempts == 0 {
			t.Errorf("claim %s lost: %+v", s.ids[i], r)
		}
		if r.Verified && r.Correct {
			good++
		}
		if r.Method == claim.MethodFailed {
			failed++
		}
		id := s.ids[i][strings.LastIndexByte(s.ids[i], '/')+1:]
		if c.corpus == "routed" && ((id == "simple") == routed || id == "mixed" && !r.Correct || id == "badmix" && r.Correct && r.Verified) {
			t.Errorf("routed claim %s: %+v", s.ids[i], r)
		}
	}
	if len(s.results) != cp.claims || good == 0 || good == cp.claims {
		t.Errorf("%d verdicts for %d claims, %d verified correct: lost or degenerate", len(s.results), cp.claims, good)
	}
	if q := s.quality; q != nil && (q.TP+q.FP+q.FN+q.TN+q.Failed != cp.claims || q.Failed != failed) {
		t.Errorf("quality %+v does not partition %d claims with %d failed", *q, cp.claims, failed)
	}
	attempts, admits := 0, 0
	for _, sp := range s.spans {
		switch sp.Kind {
		case trace.KindAttempt:
			attempts++
		case trace.KindStreamAdmit:
			admits++
		}
	}
	if c.store == "none" && attempts != s.calls {
		t.Errorf("%d attempt spans, %d calls booked", attempts, s.calls)
	}
	if (c.layer == "stream" || c.layer == "shuffled") && admits != len(cp.eval) {
		t.Errorf("%d stream_admit spans", admits)
	}
	if middleware(c.fault).FaultRate > 0 && s.faults == 0 {
		t.Error("no fault injected")
	}
	// A coordinator relays a batch whole to one replica; unary requests and
	// stream documents spread over the ring.
	if c.layer == "coord-batch" && s.touched != 1 || c.layer != "coord-batch" && c.shards > 1 && s.touched < 2 {
		t.Errorf("%d of %d replicas verified anything", s.touched, c.shards)
	}
	if r := s.rep; c.route && !c.tier() && (r.RoutedSubClaims != cp.subClaims || (r.RouteDollars > 0) != (cp.subClaims > 0) || r.Dollars <= r.RouteDollars) {
		t.Errorf("routed %d sub-claims (want %d) for $%v of $%v", r.RoutedSubClaims, cp.subClaims, r.RouteDollars, r.Dollars)
	}
	// A warm store answers what the cold run paid for, and nothing else.
	key, r := fmt.Sprintf("%s/%d", c.fault, c.workers), s.rep
	switch c.store {
	case "cold":
		if r.PersistedHits != 0 || r.MemoHits != 0 {
			t.Errorf("cold store answered %d completions and %d memos", r.PersistedHits, r.MemoHits)
		}
		m.colds[key] = s
	case "warm", "warm-again":
		cold := m.colds[key]
		if r.PersistedHits == 0 || s.calls != cold.calls-r.PersistedHits || s.fee >= cold.fee ||
			r.MemoHits != r.Claims || r.MemoMismatches != 0 {
			t.Errorf("warm %+v against cold %d calls, $%v", r, cold.calls, cold.fee.Dollars())
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
