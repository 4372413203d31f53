package main

import (
	"fmt"
	"strings"
)

// layer is one per-layer metric's name and unit; perLayer fixes the set and
// the order they are printed in. BENCHMARK.json lists the same names.
type layer struct{ name, unit string }

var perLayer = []layer{
	{"serve.handler_self_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p95", "ms"},
	{"serve.batch_busy_share", "share"},
	{"serve.docs_per_batch", "count"},
	{"serve.batches", "count"},
	{"serve.server_latency_p50_ms", "ms"},
	{"serve.shed_share", "share"},
	{"serve.stream_doc_ms_p50", "ms"},
	{"serve.latency_p99_ms", "ms"},
	{"shard.coord_self_ms_p50", "ms"},
	{"shard.ring_assign_ns", "ns"},
	{"shard.replica_skew", "ratio"},
	{"shard.failovers", "count"},
	{"core.self_ms_per_claim", "ms"},
	{"core.attempts_per_claim", "count"},
	{"core.verified_share", "share"},
	{"core.escalated_share", "share"},
	{"verify.translate_self_ms_per_claim", "ms"},
	{"verify.oneshot_translate_us_p50", "us"},
	{"verify.attempt_success_share", "share"},
	{"prompts.oneshot_build_us_p50", "us"},
	{"llm.complete_self_ms_per_claim", "ms"},
	{"llm.sim_complete_us_p50", "us"},
	{"llm.sim_complete_us_p95", "us"},
	{"llm.calls_per_claim", "count"},
	{"llm.prompt_tokens_per_claim", "count"},
	{"llm.completion_tokens_per_claim", "count"},
	{"llm.throttle_wait_ms_per_claim", "ms"},
	{"llm.sim_latency_ms_p50", "ms"},
	{"llm.sim_latency_ms_p99", "ms"},
	{"llm.retries", "count"},
	{"llm.hedges", "count"},
	{"nl.parse_masked_us_p50", "us"},
	{"sqldb.query_warm_us_p50", "us"},
	{"sqldb.query_warm_us_p95", "us"},
	{"sqldb.query_cold_us_p50", "us"},
	{"sqldb.parse_us_p50", "us"},
	{"sqldb.alloc_kb_per_query", "KB"},
	{"sqldb.allocs_per_query", "count"},
	{"sqldb.queries_per_claim", "count"},
	{"sqldb.plan_cache_hit_share", "share"},
	{"sqldb.row_only_share", "share"},
	{"sqldb.est_busy_share", "share"},
	{"sqldb.schema_us_p50", "us"},
	{"ingest.rows_per_s", "1/s"},
	{"ingest.surface_ms", "ms"},
	{"profile.run_ms", "ms"},
	{"schedule.plan_us", "us"},
	{"runtime.allocs_per_claim", "count"},
	{"runtime.alloc_kb_per_claim", "KB"},
	{"runtime.gc_cycles_per_kclaim", "count"},
	{"runtime.gc_pause_ms_per_kclaim", "ms"},
	{"trace.overhead_share", "share"},
	{"trace.spans", "count"},
}

// maxOrphanShare is the share of inner spans that may fail to resolve to a
// document before the trace is reported as broken.
const maxOrphanShare = 0.01

// spanTimes is what a traced run's spans add up to.
type spanTimes struct {
	queueWait, handlerSelf, coordSelf sample // ms
	translateUS                       sample // one-shot translate minus provider wait
	simLatency                        sample // ms, as the provider reported it
	// Totals in ms over the run.
	batchBusy, coreSelf, translateSelf, completeSelf, throttleWait float64
	batches, calls, ptok, ctok                                     int
	docs                                                           []string
	problems                                                       []string
}

// analyzeSpans computes self times and waits from a traced run's spans.
func analyzeSpans(tr *tracer, throttle float64, library bool) spanTimes {
	var st spanTimes
	spans := tr.spans
	byID := func(id int64) *span { return &spans[id-1] }
	children := make(map[int64][]interval) // by parent pointer
	for i := range spans {
		if sp := &spans[i]; sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp.interval())
		}
	}
	self := func(sp *span, kids []interval) float64 {
		ns := selfTime(sp.interval(), kids)
		if ns < 0 {
			st.problems = append(st.problems, fmt.Sprintf("span %d (%s) has negative self time", sp.ID, sp.Name))
		}
		return float64(ns) / 1e6
	}

	// A handler's children are the micro-batches that verified its
	// documents, and a coordinator handler's the replica handlers of its
	// documents: one batch serves many handlers, so these follow document
	// IDs where the parent pointer can name only one.
	batchesOf := make(map[int64][]interval)
	replicasOf := make(map[int64][]interval)
	for i := range spans {
		sp := &spans[i]
		switch sp.Name {
		case spanBatch:
			st.batches++
			st.batchBusy += float64(sp.End-sp.Start) / 1e6
			for _, d := range sp.Docs {
				if h := tr.firstOf(d, tr.replica); h != 0 {
					batchesOf[h] = append(batchesOf[h], sp.interval())
				}
				if own := tr.replica[d]; own != 0 {
					st.queueWait = append(st.queueWait, float64(sp.Start-byID(own).Start)/1e6)
				}
			}
		case spanReplica:
			if c := tr.firstOf(sp.Doc, tr.coord); c != 0 {
				replicasOf[c] = append(replicasOf[c], sp.interval())
			}
		}
	}
	orphans, inner := 0, 0
	for i := range spans {
		sp := &spans[i]
		switch sp.Name {
		case spanDoc:
			st.docs = append(st.docs, sp.Doc)
			if library {
				st.coreSelf += self(sp, children[sp.ID])
			}
		case spanCoord:
			st.coordSelf = append(st.coordSelf, self(sp, replicasOf[sp.ID]))
		case spanReplica:
			st.handlerSelf = append(st.handlerSelf, self(sp, batchesOf[sp.ID]))
		case spanBatch:
			st.coreSelf += self(sp, children[sp.ID])
		case spanTranslate:
			st.translateSelf += self(sp, children[sp.ID])
		case spanComplete:
			st.calls++
			st.ptok += sp.PromptTokens
			st.ctok += sp.CompletionTokens
			st.simLatency = append(st.simLatency, float64(sp.SimNS)/1e6)
			wait := float64(sp.SimNS) * throttle
			st.throttleWait += wait / 1e6
			st.completeSelf += (float64(sp.End-sp.Start) - wait) / 1e6
			if p := sp.Parent; p != 0 && strings.HasPrefix(sp.Method, "oneshot") {
				// A one-shot translate makes one call; its time without
				// the provider's wait is what the method itself costs.
				st.translateUS = append(st.translateUS, (float64(byID(p).End-byID(p).Start)-wait)/1e3)
			}
		}
		if sp.Name != spanOp && sp.Name != spanDoc {
			inner++
			p := sp
			for p.Name != spanDoc && p.Parent != 0 {
				p = byID(p.Parent)
			}
			if p.Name != spanDoc {
				orphans++
			}
		}
	}
	if float64(orphans) > maxOrphanShare*float64(inner) {
		st.problems = append(st.problems, fmt.Sprintf("%d of %d spans resolve to no document", orphans, inner))
	}
	return st
}

// layerMetrics turns the two runs of a traced invocation into the per-layer
// metrics. Counts read at a run's boundaries come from base, the untraced
// run; span times come from the traced run; replays run here. A layer a
// workload does not have reports 0 over n=0 samples. It also returns what is
// wrong with the trace itself, if anything.
func layerMetrics(in *inputs, s *system, base, traced *result, tr *tracer, cp *capture) ([]metric, []string, error) {
	values := make(map[string]metric)
	set := func(name string, value float64, n int) { values[name] = metric{value: value, n: n} }
	quant := func(name string, smp sample, q float64) { set(name, smp.q(q), len(smp)) }

	st := analyzeSpans(tr, in.topo.throttle, s.verify != nil)
	claims, baseClaims := traced.rec.claims, base.rec.claims
	replicas := in.topo.replicas

	quant("serve.handler_self_ms_p50", st.handlerSelf, 0.5)
	quant("serve.queue_wait_ms_p50", st.queueWait, 0.5)
	quant("serve.queue_wait_ms_p95", st.queueWait, 0.95)
	quant("serve.stream_doc_ms_p50", base.rec.streamDoc, 0.5)
	quant("shard.coord_self_ms_p50", st.coordSelf, 0.5)
	if replicas > 0 {
		set("serve.batch_busy_share", st.batchBusy/(ms(traced.wall)*float64(replicas)), st.batches)
		ran := int(base.replicaDelta(replicas, func(m serverMetrics) float64 { return float64(m.Verify.Batches) }).sum())
		docs := base.replicaDelta(replicas, func(m serverMetrics) float64 { return float64(m.Verify.Docs) })
		set("serve.docs_per_batch", per(docs.sum(), ran), ran)
		set("serve.batches", float64(ran), ran)
		front := len(base.tierAfter) - 1
		set("serve.server_latency_p50_ms", base.tierAfter[front].LatencyMS.P50, base.tierAfter[front].LatencyMS.N)
		set("serve.latency_p99_ms", base.tierAfter[front].LatencyMS.P99, base.tierAfter[front].LatencyMS.N)
		shed := 0.0
		for i := range base.tierAfter {
			shed += float64(base.tierAfter[i].Requests.ShedOverload - base.tierBefore[i].Requests.ShedOverload)
		}
		received := int(base.tierAfter[front].Requests.Received - base.tierBefore[front].Requests.Received)
		set("serve.shed_share", per(shed, received), received)
		if in.topo.coordinator {
			// The busiest replica's documents over the mean.
			set("shard.replica_skew", docs.q(1)*float64(replicas)/docs.sum(), int(docs.sum()))
			before, after := base.tierBefore[front].Shard, base.tierAfter[front].Shard
			if before == nil || after == nil {
				return nil, nil, fmt.Errorf("coordinator's /v1/metrics has no shard section")
			}
			set("shard.failovers", float64(after.Failovers-before.Failovers), received)
			ns, n := replayRing(s.ring, st.docs)
			set("shard.ring_assign_ns", ns, n)
		}
	}

	set("core.self_ms_per_claim", per(st.coreSelf, claims), claims)
	set("core.attempts_per_claim", per(float64(base.rec.attempts), baseClaims), baseClaims)
	set("core.verified_share", per(float64(base.rec.verified), baseClaims), baseClaims)
	set("core.escalated_share", per(float64(base.rec.escaped), baseClaims), baseClaims)
	set("verify.translate_self_ms_per_claim", per(st.translateSelf, claims), claims)
	quant("verify.oneshot_translate_us_p50", st.translateUS, 0.5)
	set("verify.attempt_success_share", per(float64(base.rec.verified), base.rec.attempts), base.rec.attempts)

	set("llm.complete_self_ms_per_claim", per(st.completeSelf, claims), claims)
	set("llm.calls_per_claim", per(float64(st.calls), claims), claims)
	set("llm.prompt_tokens_per_claim", per(float64(st.ptok), claims), claims)
	set("llm.completion_tokens_per_claim", per(float64(st.ctok), claims), claims)
	set("llm.throttle_wait_ms_per_claim", per(st.throttleWait, claims), claims)
	quant("llm.sim_latency_ms_p50", st.simLatency, 0.5)
	quant("llm.sim_latency_ms_p99", st.simLatency, 0.99)
	set("llm.retries", float64(base.retries), baseClaims)
	set("llm.hedges", float64(base.hedges), baseClaims)

	simUS, err := replaySim(cp)
	if err != nil {
		return nil, nil, err
	}
	quant("llm.sim_complete_us_p50", simUS, 0.5)
	quant("llm.sim_complete_us_p95", simUS, 0.95)
	quant("nl.parse_masked_us_p50", replayParse(cp), 0.5)
	quant("prompts.oneshot_build_us_p50", replayPrompt(cp), 0.5)

	sql := replaySQL(traced.rec.queries, traced.rec.queryUses)
	quant("sqldb.query_warm_us_p50", sql.warm, 0.5)
	quant("sqldb.query_warm_us_p95", sql.warm, 0.95)
	quant("sqldb.query_cold_us_p50", sql.cold, 0.5)
	quant("sqldb.parse_us_p50", sql.parse, 0.5)
	quant("sqldb.schema_us_p50", sql.schema, 0.5)
	set("sqldb.alloc_kb_per_query", sql.allocKB, len(sql.warm))
	set("sqldb.allocs_per_query", sql.allocs, len(sql.warm))
	set("sqldb.row_only_share", per(float64(sql.rowOnly), sql.queries), sql.queries)
	lookups := float64(base.after.planHits + base.after.planMisses - base.before.planHits - base.before.planMisses)
	set("sqldb.queries_per_claim", per(lookups, baseClaims), baseClaims)
	set("sqldb.plan_cache_hit_share", per(float64(base.after.planHits-base.before.planHits), int(lookups)), int(lookups))
	// Every execution priced at the mean warm time of the queries verdicts
	// rest on, over the time the closed loop's workers spent. An estimate:
	// the queries of failed attempts are not known from outside.
	est := lookups * sql.weightedWarm * 1e3 // ns
	set("sqldb.est_busy_share", est/(float64(base.wall)*float64(in.topo.conns)), int(lookups))

	if s.ingestRows > 0 {
		set("ingest.rows_per_s", float64(s.ingestRows)/s.ingestTime.Seconds(), s.ingestRows)
		set("ingest.surface_ms", ms(s.surfaceTime), 1)
	}
	set("profile.run_ms", ms(s.profileTime), 1)
	set("schedule.plan_us", float64(s.planTime.Nanoseconds())/1e3, 1)

	set("runtime.allocs_per_claim", per(float64(base.after.mallocs-base.before.mallocs), baseClaims), baseClaims)
	set("runtime.alloc_kb_per_claim", per(float64(base.after.allocBytes-base.before.allocBytes)/1024, baseClaims), baseClaims)
	set("runtime.gc_cycles_per_kclaim", per(float64(base.after.gcCycles-base.before.gcCycles)*1000, baseClaims), baseClaims)
	set("runtime.gc_pause_ms_per_kclaim", per(float64(base.after.gcPauseNS-base.before.gcPauseNS)/1e6*1000, baseClaims), baseClaims)

	plainRate := float64(baseClaims) / base.wall.Seconds()
	tracedRate := float64(claims) / traced.wall.Seconds()
	set("trace.overhead_share", (plainRate-tracedRate)/plainRate, claims)
	set("trace.spans", float64(len(tr.spans)), len(tr.spans))

	out := make([]metric, len(perLayer))
	for i, l := range perLayer {
		m := values[l.name] // absent: the layer is not on this workload's path
		out[i] = metric{name: l.name, value: m.value, unit: l.unit, n: m.n}
	}
	return out, st.problems, nil
}
