package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/sqldb"
)

// The generator turns (workload, seed, seconds) into everything a run feeds
// the program: a held-out profiling corpus, document templates with gold
// labels, databases, and a frozen list of operations. The seed reaches
// nothing else — the systems are built from a topology that is a constant of
// the workload, and are seeded with sysSeed whatever the benchmark seed is.

const (
	// sysSeed seeds every system under test: the -seed default of the cedar
	// and cedar-serve commands.
	sysSeed = 1
	// profileSeed picks the held-out AggChecker corpus every system is
	// profiled on. It is fixed, as a deployment profiles once and then sees
	// varying traffic: profiling on seed-dependent documents would let the
	// seed pick the verification schedule (one seed in ten plans agent
	// steps), and the workloads would no longer be the same program.
	profileSeed = 1000020
	// sampleOneIn is the share of documents re-verified through the library
	// reference after a run.
	sampleOneIn = 16
	// streamDocs is the number of documents in one stream session.
	streamDocs = 8
)

// topology is what a workload's system looks like. It is a constant of the
// workload: nothing in it depends on the seed.
type topology struct {
	// replicas is the number of serving replicas; 0 is a library workload.
	replicas int
	// coordinator puts a sharding coordinator in front of the replicas.
	coordinator bool
	// throttle is the share of each simulated model latency really slept.
	throttle float64
	// immediate flushes micro-batches without lingering (BatchWait -1).
	immediate bool
	// conns is the closed loop's width: how many operations are in flight.
	conns int
	// profileDocs is how many held-out documents the system profiles on.
	profileDocs int
}

// workload names one of the benchmark's traffic mixes.
type workload struct {
	name string
	topo topology
	// docsPerSecond sizes the frozen operation list: the list holds about
	// docsPerSecond × seconds documents, calibrated on the seed commit so a
	// run measures for about the requested time. Fixed work, not fixed time:
	// counts, fees and verdicts then repeat exactly and only the clock
	// varies.
	docsPerSecond float64
	gen           func(w *workload, seed int64, docs int) (*inputs, error)
}

// The workloads, in the order they run. Each stresses different layers, so
// that for an optimisation of one layer some workload exercises it and some
// other bypasses it (README.md has the full reasoning).
var workloads = []*workload{
	{
		// The paper's corpus shape through the public API: CPU-bound in
		// llm/sim, nl, prompts and allocation, sqldb on tiny tables.
		name:          "lib-corpus",
		topo:          topology{conns: 1, profileDocs: 8},
		docsPerSecond: 1500,
		gen:           genCorpus,
	},
	{
		// A 16k-row ingested table, flat and normalized: sqldb's scan,
		// filter and hash join do nearly all the work.
		name:          "lib-bigtable",
		topo:          topology{conns: 1, profileDocs: 8},
		docsPerSecond: 26,
		gen:           genBigTable,
	},
	{
		// One replica awaiting throttled model calls: latency is provider
		// wait, and only batching and concurrency structure can move it.
		name:          "serve-wait",
		topo:          topology{replicas: 1, throttle: 0.01, conns: 2, profileDocs: 6},
		docsPerSecond: 36,
		gen:           genServe,
	},
	{
		// Coordinator and two replicas, no throttle, one-claim documents:
		// what HTTP, routing, relay and metrics cost per request.
		name:          "tier-cpu",
		topo:          topology{replicas: 2, coordinator: true, immediate: true, conns: 2, profileDocs: 6},
		docsPerSecond: 2750,
		gen:           genServe,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// docRef is one document of the operation list: a template verified under a
// run-unique ID (the ID seeds every retry, so each use is its own document).
type docRef struct {
	tmpl int
	id   string
}

// op is one operation of the closed loop: a library Verify call or unary
// request (one document), or a stream session (streamDocs documents).
type op struct {
	stream bool
	docs   []docRef
}

func (o op) String() string {
	kind := "verify"
	if o.stream {
		kind = "stream"
	}
	var b bytes.Buffer
	b.WriteString(kind)
	for _, d := range o.docs {
		fmt.Fprintf(&b, " %s/%d", d.id, d.tmpl)
	}
	return b.String()
}

// inputs is everything generated for one run.
type inputs struct {
	topo    topology
	profile []*claim.Document
	// templates are the documents the operations reference, with gold
	// labels; a run clones one per use. lib-bigtable's are built by the
	// system's own ingestion during set-up, from csv.
	templates []*claim.Document
	// catalog is the database serving replicas host; nil for the library.
	catalog *sqldb.Database
	csv     []byte
	// claimsJSON is templates[i]'s claims in wire form, for request bodies.
	claimsJSON [][]byte
	warm, ops  []op
	sampleSalt uint64
}

// derive splits an independent generator seed off the benchmark seed. It is
// llm.SplitSeed's scheme written out here on purpose: the inputs a seed
// generates must not change when the program's own seeding does.
func derive(seed int64, label string, k int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(label))
	binary.LittleEndian.PutUint64(buf[:], uint64(k))
	_, _ = h.Write(buf[:])
	return int64(h.Sum64() >> 1)
}

// sampled reports whether a document is in the reference sample.
func (in *inputs) sampled(docID string) bool {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], in.sampleSalt)
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(docID))
	return h.Sum64()%sampleOneIn == 0
}

// body renders one document as a request: the whole body of a unary POST
// /v1/verify, or one line of a stream session.
func (in *inputs) body(d docRef) []byte {
	cj := in.claimsJSON[d.tmpl]
	b := make([]byte, 0, len(cj)+len(d.id)+32)
	b = append(b, `{"doc_id":"`...)
	b = append(b, d.id...)
	b = append(b, `","claims":`...)
	b = append(b, cj...)
	return append(b, "}\n"...)
}

func (w *workload) generate(seed int64, seconds float64) (*inputs, error) {
	docs := int(w.docsPerSecond*seconds + 0.5)
	in, err := w.gen(w, seed, docs)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", w.name, err)
	}
	in.topo = w.topo
	in.sampleSalt = uint64(derive(seed, "sample", 0))
	prof, err := data.AggChecker(profileSeed)
	if err != nil {
		return nil, err
	}
	in.profile = prof[:w.topo.profileDocs]
	return in, nil
}

// maxCorpora is how many AggChecker-shaped corpora lib-corpus verifies,
// unless the list is too short to pass over that many twice. One corpus (56
// documents, 392 claims, about 59 of them incorrect) is too small a draw: F1
// and fee per claim move by several percent from seed to seed. Sixteen bring
// the spread between seeds to about two percent.
const (
	maxCorpora = 16
	corpusDocs = 56
)

// genCorpus builds lib-corpus: passes over the corpora, one document per
// Verify call, each pass under its own document IDs.
func genCorpus(_ *workload, seed int64, docs int) (*inputs, error) {
	in := &inputs{}
	corpora := docs / (2 * corpusDocs)
	if corpora > maxCorpora {
		corpora = maxCorpora
	}
	for k := 0; k < corpora || k == 0; k++ {
		corpus, err := data.AggChecker(derive(seed, "corpus", k))
		if err != nil {
			return nil, err
		}
		for _, d := range corpus {
			d.ID = fmt.Sprintf("c%02d-%s", k, d.ID)
			in.templates = append(in.templates, d)
		}
	}
	in.warm = passes(in.templates, 1, "w")
	in.ops = passes(in.templates, wholePasses(docs, len(in.templates)), "p")
	return in, nil
}

func wholePasses(docs, perPass int) int {
	n := (docs + perPass/2) / perPass
	if n < 1 {
		n = 1
	}
	return n
}

// passes lists n passes over the templates in order, each document under
// its template's ID suffixed with the pass.
func passes(templates []*claim.Document, n int, tag string) []op {
	ops := make([]op, 0, len(templates)*n)
	for p := 0; p < n; p++ {
		for t, d := range templates {
			ops = append(ops, op{docs: []docRef{{tmpl: t, id: d.ID + "-" + tag + strconv.Itoa(p)}}})
		}
	}
	return ops
}

// bigRows is the size of lib-bigtable's ingested table.
const bigRows = 16000

// Template indices of lib-bigtable, in the order the system's ingestion
// builds them.
const (
	bigFlat = iota
	bigNorm
)

// genBigTable builds lib-bigtable: a CSV for the system to ingest, and
// passes of flat, flat again under a second ID, normalized. Two flat to one
// normalized keeps the median inside one mode.
func genBigTable(_ *workload, seed int64, docs int) (*inputs, error) {
	rng := rand.New(rand.NewSource(derive(seed, "bigtable", 0)))
	teams := []string{"north", "south", "east", "west", "central", "coastal"}
	var b bytes.Buffer
	b.WriteString("name,team,units,revenue,discounted,day\n")
	for i := 0; i < bigRows; i++ {
		fmt.Fprintf(&b, "acct-%05d,%s,%d,%.2f,%t,2024-%02d-%02d\n", i,
			teams[rng.Intn(len(teams))], rng.Intn(500), float64(rng.Intn(1_000_000))/100,
			rng.Intn(2) == 1, 1+rng.Intn(12), 1+rng.Intn(28))
	}
	in := &inputs{csv: b.Bytes()}
	pass := func(tag string, n int) []op {
		var ops []op
		for p := 0; p < n; p++ {
			ops = append(ops,
				op{docs: []docRef{{tmpl: bigFlat, id: fmt.Sprintf("big-a-%s%d", tag, p)}}},
				op{docs: []docRef{{tmpl: bigFlat, id: fmt.Sprintf("big-b-%s%d", tag, p)}}},
				op{docs: []docRef{{tmpl: bigNorm, id: fmt.Sprintf("big-n-%s%d", tag, p)}}})
		}
		return ops
	}
	in.warm = pass("w", 1)
	in.ops = pass("p", wholePasses(docs, 3))
	return in, nil
}

const (
	// poolClaims caps the claim pool serving workloads draw documents from,
	// spread evenly over the catalog's tables. It is large for the same
	// reason maxCorpora is: so that F1 and fee per claim are a property of
	// the workload and not of the seed's draw.
	poolClaims = 8400
	// warmSeconds sizes a serving workload's warm-up pass, in seconds of
	// its operation list: long enough that set-up time is not all noise.
	warmSeconds = 0.5
	// tableDraws is how many single-document corpora per domain the
	// generator looks at to find each of the domain's tables.
	tableDraws = 24
)

var domains = []string{data.Domain538, data.DomainStackOverflow, data.DomainNYTimes, data.DomainWikipedia}

// genServe builds the serving workloads. Replicas host one catalog holding
// every AggChecker table (the same eight whatever the seed, so prompt sizes
// and with them simulated model latency do not depend on the seed; rows and
// claims do). Documents are unary requests and stream sessions, eight unary
// to one session, in seeded order; a document is seven claims about one
// table behind a throttled replica, one claim where the tier is measured.
func genServe(w *workload, seed int64, docs int) (*inputs, error) {
	claimsPerDoc := 7
	if w.topo.throttle == 0 {
		claimsPerDoc = 1
	}
	in := &inputs{catalog: sqldb.NewDatabase("catalog")}

	// data.Generate gives each document one table drawn from its domain, so
	// a domain's tables are found by looking at several one-claim corpora;
	// the first sight of each table is then generated at full size.
	type pick struct {
		domain string
		draw   int
	}
	var picks []pick
	seen := make(map[string]bool)
	for _, dom := range domains {
		for k := 0; k < tableDraws; k++ {
			probe, err := data.Generate(poolConfig(derive(seed, "table-"+dom, k), dom, 1))
			if err != nil {
				return nil, err
			}
			name := probe[0].Data.Tables()[0].Name
			if !seen[name] {
				seen[name] = true
				picks = append(picks, pick{dom, k})
			}
		}
	}
	// No more claims than the list has documents for, and no more than the
	// pool's cap: past it, documents reuse claims under new IDs.
	warmDocs := int(w.docsPerSecond * warmSeconds)
	pool := (docs + warmDocs) * claimsPerDoc
	if pool > poolClaims {
		pool = poolClaims
	}
	perTable := pool/len(picks) + claimsPerDoc
	perTable -= perTable % claimsPerDoc
	for _, p := range picks {
		full, err := data.Generate(poolConfig(derive(seed, "table-"+p.domain, p.draw), p.domain, perTable))
		if err != nil {
			return nil, err
		}
		t := full[0].Data.Tables()[0]
		if in.catalog.Table(t.Name) != nil {
			continue
		}
		in.catalog.AddTable(t)
		for i := 0; i+claimsPerDoc <= len(full[0].Claims); i += claimsPerDoc {
			in.templates = append(in.templates, &claim.Document{
				ID:     fmt.Sprintf("%s-%d", t.Name, i/claimsPerDoc),
				Domain: p.domain,
				Data:   in.catalog,
				Claims: full[0].Claims[i : i+claimsPerDoc],
			})
		}
	}
	// Interleave the tables, so any stretch of documents covers all of them.
	rng := rand.New(rand.NewSource(derive(seed, "order", 0)))
	rng.Shuffle(len(in.templates), func(i, j int) { in.templates[i], in.templates[j] = in.templates[j], in.templates[i] })

	for _, t := range in.templates {
		cj, err := wireClaims(t.Claims)
		if err != nil {
			return nil, err
		}
		in.claimsJSON = append(in.claimsJSON, cj)
	}

	next := 0
	in.warm = serveOps(rng, len(in.templates), &next, "w", warmDocs)
	in.ops = serveOps(rng, len(in.templates), &next, "d", docs)
	return in, nil
}

// poolConfig is data.AggChecker's hazard mix over one document of one domain.
func poolConfig(seed int64, domain string, claims int) data.GenConfig {
	return data.GenConfig{
		Seed:            seed,
		Docs:            1,
		ClaimsPerDoc:    claims,
		IncorrectRate:   0.15,
		AliasRate:       0.55,
		ShortPhraseRate: 0.45,
		Domains:         []string{domain},
	}
}

// serveOps lists about docs documents as unary requests and stream
// sessions, half the documents each way (eight unary per session), in
// seeded order. Templates are taken round-robin from *next on.
func serveOps(rng *rand.Rand, templates int, next *int, tag string, docs int) []op {
	sessions := docs / (2 * streamDocs)
	if sessions < 1 {
		sessions = 1
	}
	unary := sessions * streamDocs
	take := func() docRef {
		d := docRef{tmpl: *next % templates, id: tag + "-" + strconv.Itoa(*next)}
		*next++
		return d
	}
	ops := make([]op, 0, unary+sessions)
	for i := 0; i < unary; i++ {
		ops = append(ops, op{docs: []docRef{take()}})
	}
	for i := 0; i < sessions; i++ {
		o := op{stream: true}
		for j := 0; j < streamDocs; j++ {
			o.docs = append(o.docs, take())
		}
		ops = append(ops, o)
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// wireClaim is the claim shape of the HTTP API (docs/CLI.md).
type wireClaim struct {
	ID       string `json:"id"`
	Sentence string `json:"sentence"`
	Value    string `json:"value"`
	Context  string `json:"context,omitempty"`
}

func wireClaims(claims []*claim.Claim) ([]byte, error) {
	out := make([]wireClaim, len(claims))
	for i, c := range claims {
		out[i] = wireClaim{ID: c.ID, Sentence: c.Sentence, Value: c.Value, Context: c.Context}
	}
	return json.Marshal(out)
}
