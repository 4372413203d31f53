package main

import (
	"hash/fnv"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/claim"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/nl"
	"repro/internal/prompts"
	"repro/internal/shard"
	"repro/internal/sqldb"
	"repro/internal/verify"
)

// Layers with no interface to wrap — the simulated model under its
// middleware, the claim parser, prompt building, the SQL engine, the hash
// ring — are timed after the run by feeding the distinct inputs the
// wrappers captured straight to the layer's public function.

// capture collects distinct replay inputs during a traced run, at most max
// per layer.
type capture struct {
	max int

	mu       sync.Mutex
	seen     map[uint64]bool
	requests []llm.Request
	prompts  []promptInput
}

// promptInput is what verify.OneShot builds its prompt from.
type promptInput struct {
	claim  *claim.Claim
	db     *sqldb.Database
	sample *verify.Sample
}

func newCapture(max int) *capture {
	return &capture{max: max, seen: make(map[uint64]bool)}
}

// fresh reports whether the keyed input is new, and remembers it.
func (c *capture) fresh(parts ...string) bool {
	h := fnv.New64a()
	for _, p := range parts {
		_, _ = io.WriteString(h, p)
		_, _ = h.Write([]byte{0})
	}
	k := h.Sum64()
	if c.seen[k] {
		return false
	}
	c.seen[k] = true
	return true
}

func (c *capture) request(req llm.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.requests) >= c.max {
		return
	}
	if c.fresh("req", req.Model, llm.PromptText(req.Messages), strconv.FormatFloat(req.Temperature, 'g', -1, 64), strconv.FormatInt(req.Seed, 16)) {
		c.requests = append(c.requests, req)
	}
}

func (c *capture) prompt(cl *claim.Claim, db *sqldb.Database, sample *verify.Sample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.prompts) >= c.max {
		return
	}
	withSample := ""
	if sample != nil {
		withSample = sample.Query
	}
	if c.fresh("prompt", db.Name, cl.Sentence, withSample) {
		cc := *cl
		c.prompts = append(c.prompts, promptInput{claim: &cc, db: db, sample: sample})
	}
}

// replayBudget is how long one workload's replays may take in all; each
// timed loop below gets a slice of it.
const replayBudget = 2 * time.Second

// replayRounds is how many times each input is replayed; its time is the
// median, so a collection landing in one call does not count as the layer's.
const replayRounds = 3

// timeEach calls f(i) replayRounds times for each i in [0, n), until budget
// runs out, and returns each input's median duration in microseconds.
func timeEach(n int, budget time.Duration, f func(i int)) sample {
	out := make(sample, 0, n)
	stop := time.Now().Add(budget)
	for i := 0; i < n; i++ {
		var rounds [replayRounds]float64
		var end time.Time
		for r := range rounds {
			start := time.Now()
			f(i)
			end = time.Now()
			rounds[r] = float64(end.Sub(start)) / float64(time.Microsecond)
		}
		out = append(out, sample(rounds[:]).q(0.5))
		if end.After(stop) {
			break
		}
	}
	return out
}

// replaySim times sim.Model.Complete on the captured requests with no
// middleware around it.
func replaySim(cp *capture) (sample, error) {
	models := make(map[string]*sim.Model)
	for _, name := range []string{llm.ModelGPT35, llm.ModelGPT4o, llm.ModelGPT41} {
		m, err := sim.New(name, sysSeed)
		if err != nil {
			return nil, err
		}
		models[name] = m
	}
	return timeEach(len(cp.requests), replayBudget/4, func(i int) {
		req := cp.requests[i]
		_, _ = models[req.Model].Complete(req) // a refusal is a result here, not a failure
	}), nil
}

// replayParse times nl.ParseMasked on what the simulated model parses out
// of each captured one-shot prompt.
func replayParse(cp *capture) sample {
	type parseInput struct {
		masked, ctx string
		schema      *nl.Schema
	}
	var ins []parseInput
	for _, req := range cp.requests {
		prompt := llm.PromptText(req.Messages)
		if strings.Contains(prompt, prompts.AgentMarker) {
			continue
		}
		masked, _, ok := prompts.ExtractClaim(prompt)
		if !ok {
			continue
		}
		ins = append(ins, parseInput{masked, prompts.ExtractContext(prompt), nl.ParseSchemaText(prompt)})
	}
	lex := nl.DefaultLexicon()
	return timeEach(len(ins), replayBudget/8, func(i int) {
		_, _ = nl.ParseMasked(ins[i].masked, ins[i].schema, lex, ins[i].ctx) // unparseable claims are part of the mix
	})
}

// replayPrompt times the prompt build of verify.OneShot.Translate: masking,
// the schema rendering, the few-shot block, the template.
func replayPrompt(cp *capture) sample {
	return timeEach(len(cp.prompts), replayBudget/8, func(i int) {
		in := cp.prompts[i]
		masked, ctx := in.claim.Masked()
		block := ""
		if in.sample != nil {
			block = prompts.Sample(in.sample.MaskedClaim, in.sample.Query)
		}
		_ = prompts.OneShot(masked, in.claim.ValueType(), in.db.Schema(), block, ctx)
	})
}

// sqlReplay is what replaying a run's distinct queries measured.
type sqlReplay struct {
	warm, cold, parse, schema sample // µs
	allocKB, allocs           float64
	rowOnly, queries          int
	// weightedWarm is the mean warm time with each query counted once per
	// verdict resting on it: the mean over executions, not over texts.
	weightedWarm float64
}

// replaySQL runs the distinct (database, query) pairs a run collected: warm
// (plan cached), cold (after InvalidatePlans), parse only, and a warm loop
// between two MemStats readings for allocation per query. uses[q] is how
// many verdicts rest on q (none, for a gold query no model wrote).
func replaySQL(qs []query, uses map[query]int) sqlReplay {
	var r sqlReplay
	r.queries = len(qs)
	run := func(i int) { _, _ = sqldb.QueryScalar(qs[i].db, qs[i].sql) } // gold and model queries alike may not be scalar
	for i := range qs {
		run(i)
		if plan, err := sqldb.ExplainQuery(qs[i].db, qs[i].sql); err == nil && strings.HasPrefix(plan, "row-only") {
			r.rowOnly++
		}
	}
	r.warm = timeEach(len(qs), replayBudget/6, run)
	used := 0
	for i, us := range r.warm {
		r.weightedWarm += us * float64(uses[qs[i]])
		used += uses[qs[i]]
	}
	r.weightedWarm = per(r.weightedWarm, used)
	if n := len(r.warm); n > 0 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			run(i)
		}
		runtime.ReadMemStats(&after)
		r.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(n)
		r.allocs = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	r.cold = timeEach(len(qs), replayBudget/6, func(i int) {
		qs[i].db.InvalidatePlans()
		run(i)
	})
	r.parse = timeEach(len(qs), replayBudget/16, func(i int) { _, _ = sqldb.Parse(qs[i].sql) })
	var dbs []*sqldb.Database
	seen := make(map[*sqldb.Database]bool)
	for _, q := range qs {
		if !seen[q.db] {
			seen[q.db] = true
			dbs = append(dbs, q.db)
		}
	}
	r.schema = timeEach(len(dbs), replayBudget/16, func(i int) { _ = dbs[i].Schema() })
	return r
}

// replayRing times Ring.Assign on a ring of the tier's replicas, over the
// shard keys of the given documents: mean nanoseconds per call, timed over
// the whole loop because one call is shorter than reading the clock.
func replayRing(nodes []string, docs []string) (ns float64, n int) {
	if len(nodes) == 0 || len(docs) == 0 {
		return 0, 0
	}
	ring := shard.NewRing(0)
	for _, node := range nodes {
		ring.Add(node)
	}
	keys := make([][]byte, len(docs))
	for i, d := range docs {
		keys[i] = shard.Fingerprint(routeTag, d)
	}
	start := time.Now()
	for _, k := range keys {
		ring.Assign(k)
	}
	return float64(time.Since(start)) / float64(len(keys)), len(keys)
}
