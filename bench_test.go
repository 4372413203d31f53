// Package repro's top-level benchmark suite regenerates every table and
// figure of the paper's evaluation (one benchmark per artifact, reporting
// the headline numbers as custom metrics), plus ablation benchmarks for the
// design choices called out in DESIGN.md and micro-benchmarks for the
// substrates.
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/claim"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embed"
	"repro/internal/exp"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/profile"
	"repro/internal/schedule"
	"repro/internal/sqldb"
	"repro/internal/trace"
	"repro/internal/verify"
)

const benchSeed = 17

// --- one benchmark per paper artifact ---

// BenchmarkTable2 regenerates Table 2 (CEDAR vs baselines on the three
// datasets) and reports CEDAR's AggChecker F1.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Table2(benchSeed, 1, verify.Middleware{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Row("AggChecker", "CEDAR").Quality.F1*100, "cedar-aggchecker-F1")
		b.ReportMetric(res.Row("TabFact", "TAPEX").Quality.F1*100, "tapex-tabfact-F1")
	}
}

// BenchmarkCosts regenerates the Section 7.2 cost report.
func BenchmarkCosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Costs(benchSeed, 1, verify.Middleware{})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Dataset == "AggChecker" {
				b.ReportMetric(row.Dollars, "aggchecker-$")
			}
		}
	}
}

// BenchmarkFig5 regenerates the Figure 5 trade-off curves and reports the
// cost ratio between the 99%-threshold CEDAR run and the all-agent run.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig5(benchSeed, 1, verify.Middleware{})
		if err != nil {
			b.Fatal(err)
		}
		cedarHi := res.Point("cedar@0.99")
		agent := res.Point(verify.MethodAgent41)
		if cedarHi != nil && agent != nil && cedarHi.Dollars > 0 {
			b.ReportMetric(agent.Dollars/cedarHi.Dollars, "agent-cost-ratio")
			b.ReportMetric(cedarHi.F1*100, "cedar@0.99-F1")
		}
	}
}

// BenchmarkFig6 regenerates the unit-conversion study.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig6(benchSeed, 1, verify.Middleware{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OverallAligned*100, "aligned-F1")
		b.ReportMetric(res.OverallConverted*100, "converted-F1")
	}
}

// BenchmarkTable3 regenerates the query-complexity statistics.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Table3(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Row("JoinBench").AvgJoins, "joinbench-avg-joins")
	}
}

// BenchmarkJoinBench regenerates the schema-normalization study.
func BenchmarkJoinBench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.JoinBench(benchSeed, 1, verify.Middleware{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CostFactor(), "normalization-cost-factor")
	}
}

// BenchmarkFig7 regenerates the distribution-shift study.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig7(benchSeed, 1, verify.Middleware{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WithinBounds(2, 0.1)*100, "cross-domain-within-bounds-%")
	}
}

// --- ablation benchmarks (design choices from DESIGN.md §5) ---

// BenchmarkAblationMasking compares false-positive "verified correct"
// verdicts on incorrect claims with and without claim-value masking
// (Algorithm 4 / Figure 2): unmasked prompts let the model echo the claimed
// value as a SQL constant.
func BenchmarkAblationMasking(b *testing.B) {
	docs, err := data.Generate(data.GenConfig{
		Seed: benchSeed, Docs: 12, ClaimsPerDoc: 5, IncorrectRate: 0.5,
		Domains: []string{data.Domain538},
	})
	if err != nil {
		b.Fatal(err)
	}
	model, err := sim.New(llm.ModelGPT4o, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	masked := verify.NewOneShot(model, llm.ModelGPT4o, "masked")
	unmasked := verify.NewOneShot(model, llm.ModelGPT4o, "unmasked")
	unmasked.Mask = false
	falsePositives := func(m verify.Method) int {
		n := 0
		for _, d := range docs {
			for _, c := range d.Claims {
				if c.Gold.Correct {
					continue
				}
				cc := *c
				cc.Result = claim.Result{}
				if verify.Attempt(m, &cc, d.Data, nil, 0) && cc.Result.Correct {
					n++
				}
			}
		}
		return n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(falsePositives(masked)), "fp-masked")
		b.ReportMetric(float64(falsePositives(unmasked)), "fp-unmasked")
	}
}

// BenchmarkAblationFewShot measures the success-rate lift from harvested
// few-shot samples (Algorithm 1 lines 16-22) at a retry temperature.
func BenchmarkAblationFewShot(b *testing.B) {
	docs, err := data.AggChecker(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	model, err := sim.New(llm.ModelGPT35, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	m := verify.NewOneShot(model, llm.ModelGPT35, "oneshot")
	sample := &verify.Sample{
		MaskedClaim: "Aeroflot recorded x incidents between 1985 and 1999.",
		Query:       `SELECT "incidents_85_99" FROM "airlines" WHERE "airline" = 'Aeroflot'`,
	}
	run := func(s *verify.Sample) float64 {
		agree, total := 0, 0
		for _, d := range docs {
			for _, c := range d.Claims {
				cc := *c
				cc.Result = claim.Result{}
				total++
				if verify.Attempt(m, &cc, d.Data, s, 0.6) && cc.Result.Correct == cc.Gold.Correct {
					agree++
				}
			}
		}
		return float64(agree) / float64(total)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(nil)*100, "gold-agree-no-sample-%")
		b.ReportMetric(run(sample)*100, "gold-agree-with-sample-%")
	}
}

// BenchmarkAblationRetryDiversity compares a schedule repeating one method
// against one mixing methods at the same modeled accuracy — the diversity
// preference of SelectSchedule (Section 6.4).
func BenchmarkAblationRetryDiversity(b *testing.B) {
	stats := []schedule.MethodStats{
		{Name: "a", Cost: 0.01, Accuracy: 0.7},
		{Name: "b", Cost: 0.01, Accuracy: 0.7},
	}
	for i := 0; i < b.N; i++ {
		pareto, err := schedule.Optimize(stats, 2)
		if err != nil {
			b.Fatal(err)
		}
		s, err := schedule.Select(pareto, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(s.DistinctMethods()), "distinct-methods")
	}
}

// BenchmarkAblationReconstruction exercises Algorithm 9 on a multi-hop
// agent trace: the final trivial query is recomposed into a self-contained
// one.
func BenchmarkAblationReconstruction(b *testing.B) {
	db := sqldb.NewDatabase("r")
	tab := sqldb.NewTable("t", "name", "v")
	tab.MustAppendRow(sqldb.Text("alpha"), sqldb.Int(10))
	tab.MustAppendRow(sqldb.Text("beta"), sqldb.Int(30))
	db.AddTable(tab)
	queries := []string{
		`SELECT MAX("v") FROM "t"`,
		`SELECT MIN("v") FROM "t"`,
		`SELECT 30 - 10`,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := verify.Reconstruct(append([]string{}, queries...), db)
		v, err := sqldb.QueryScalar(db, out)
		if err != nil {
			b.Fatal(err)
		}
		if n, _ := v.AsInt(); n != 20 {
			b.Fatalf("reconstructed result %v", v)
		}
	}
}

// --- substrate micro-benchmarks ---

func benchDB() *sqldb.Database {
	db := sqldb.NewDatabase("micro")
	tab := sqldb.NewTable("t", "name", "grp", "v")
	for i := 0; i < 1000; i++ {
		tab.MustAppendRow(sqldb.Text("row"+string(rune('a'+i%26))), sqldb.Int(int64(i%10)), sqldb.Float(float64(i)*1.5))
	}
	db.AddTable(tab)
	return db
}

// BenchmarkSQLParse measures the SQL parser.
func BenchmarkSQLParse(b *testing.B) {
	q := `SELECT (SELECT COUNT("name") FROM "t" WHERE "grp" = 3) * 100.0 / (SELECT COUNT("name") FROM "t")`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqldb.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLAggregate measures aggregate execution over 1000 rows.
func BenchmarkSQLAggregate(b *testing.B) {
	db := benchDB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqldb.QueryScalar(db, `SELECT SUM("v") FROM "t" WHERE "grp" < 5`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLGroupBy measures grouped aggregation.
func BenchmarkSQLGroupBy(b *testing.B) {
	db := benchDB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqldb.Query(db, `SELECT "grp", AVG("v") FROM "t" GROUP BY "grp"`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmbedSimilarity measures the embedding substrate.
func BenchmarkEmbedSimilarity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		embed.Similarity("fatal accidents between 2000 and 2014", "fatal accidents between 1985 and 1999")
	}
}

// BenchmarkOneShotAttempt measures one full one-shot verification attempt
// (prompt build, simulated completion, extraction, gate, validation).
func BenchmarkOneShotAttempt(b *testing.B) {
	docs, err := data.AggChecker(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	model, err := sim.New(llm.ModelGPT4o, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	m := verify.NewOneShot(model, llm.ModelGPT4o, "oneshot")
	d := docs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := *d.Claims[i%len(d.Claims)]
		c.Result = claim.Result{}
		verify.Attempt(m, &c, d.Data, nil, 0)
	}
}

// BenchmarkAgentAttempt measures one full agent verification attempt
// (multi-turn ReAct conversation plus reconstruction).
func BenchmarkAgentAttempt(b *testing.B) {
	docs, err := data.AggChecker(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	model, err := sim.New(llm.ModelGPT4o, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	m := verify.NewAgent(model, llm.ModelGPT4o, "agent", benchSeed)
	d := docs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := *d.Claims[i%len(d.Claims)]
		c.Result = claim.Result{}
		verify.Attempt(m, &c, d.Data, nil, 0)
	}
}

// BenchmarkTraceOverhead measures what attempt-level tracing adds to the
// metered verification hot path, in both states: "disabled" (nil tracer, the
// default) must cost one pointer comparison and zero allocations; "enabled"
// pays one span append per booked completion. The nil-path allocation guard
// runs first and fails the benchmark outright if the disabled primitive ever
// allocates — e.g. if a future change builds the span before checking
// Enabled().
func BenchmarkTraceOverhead(b *testing.B) {
	if avg := testing.AllocsPerRun(1000, func() {
		var tr *trace.Tracer
		if tr.Enabled() {
			b.Fatal("nil tracer reported enabled")
		}
		tr.Record(trace.Span{})
	}); avg != 0 {
		b.Fatalf("disabled tracing allocates %v objects per attempt, want 0", avg)
	}
	docs, err := data.AggChecker(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	d := docs[0]
	for _, mode := range []string{"disabled", "enabled"} {
		b.Run(mode, func(b *testing.B) {
			var tracer *trace.Tracer
			if mode == "enabled" {
				tracer = trace.New()
			}
			model, err := sim.New(llm.ModelGPT4o, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			metered := &llm.Metered{Client: model, Ledger: llm.NewLedger(), Tracer: tracer}
			m := verify.NewOneShot(metered, llm.ModelGPT4o, "oneshot")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := *d.Claims[i%len(d.Claims)]
				c.Result = claim.Result{}
				verify.Attempt(m, &c, d.Data, nil, 0)
				if tracer != nil && tracer.Len() > 1<<16 {
					b.StopTimer()
					tracer.Reset() // bound memory on long -benchtime runs
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkScheduleOptimize measures the DP scheduler over the standard
// four-method space with up to three retries.
func BenchmarkScheduleOptimize(b *testing.B) {
	stats := []schedule.MethodStats{
		{Name: "o35", Cost: 0.0002, Accuracy: 0.8},
		{Name: "o4o", Cost: 0.0012, Accuracy: 0.88},
		{Name: "a4o", Cost: 0.003, Accuracy: 0.95},
		{Name: "a41", Cost: 0.0024, Accuracy: 0.96},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Plan(stats, 3, 0.99); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusGeneration measures building the AggChecker-shaped corpus.
func BenchmarkCorpusGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := data.AggChecker(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelVerification measures multi-worker document verification
// against the sequential path on the same pipeline. Speedups require
// multiple CPUs (GOMAXPROCS); on a single-core host the variants tie, which
// also demonstrates that the concurrency adds no meaningful overhead.
func BenchmarkParallelVerification(b *testing.B) {
	stack, err := verify.NewStack(benchSeed, verify.Middleware{})
	if err != nil {
		b.Fatal(err)
	}
	profDocs, err := data.AggChecker(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	stats, err := profile.Run(stack.Methods, profDocs[:6], stack.Ledger, profile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.New(core.Config{Methods: stack.Methods, Stats: stats, AccuracyTarget: 0.99})
	if err != nil {
		b.Fatal(err)
	}
	base, err := data.AggChecker(benchSeed + 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				docs := claim.CloneDocuments(base)
				b.StartTimer()
				p.VerifyDocumentsParallel(docs, workers)
			}
		})
	}
}

// BenchmarkVerifyParallel measures the wall-clock effect of claim-level
// parallelism against a latency-realistic client: llm.Throttled sleeps each
// completion's simulated API latency (compressed 1000x so seconds become
// milliseconds). Unlike BenchmarkParallelVerification, which is CPU-bound,
// this workload is wait-bound the way real LLM calls are, so the speedup at
// 8 workers reflects what deployment against a hosted API would see even on
// a single-core host.
func BenchmarkVerifyParallel(b *testing.B) {
	stack, err := verify.NewStack(benchSeed, verify.Middleware{ThrottleScale: 1e-3})
	if err != nil {
		b.Fatal(err)
	}
	profDocs, err := data.AggChecker(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	stats, err := profile.Run(stack.Methods, profDocs[:6], stack.Ledger, profile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	base, err := data.AggChecker(benchSeed + 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			p, err := core.New(core.Config{
				Methods:        stack.Methods,
				Stats:          stats,
				AccuracyTarget: 0.99,
				Seed:           benchSeed,
				Workers:        workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				docs := claim.CloneDocuments(base)
				b.StartTimer()
				p.VerifyDocumentsParallel(docs, workers)
			}
		})
	}
}

// BenchmarkVerifyFaulty measures throughput under a hostile provider: the
// same wait-bound stack as BenchmarkVerifyParallel (latency compressed
// 1000x), but with deterministic fault injection over the throttle and two
// retries above it, at 8 workers: the chain verify.NewStack ships. Every
// attempt the provider processes pays its latency, failed or not, so the
// slowdown at higher fault rates is the price of retried calls occupying the
// wire; a rate-limited attempt is rejected before it reaches the throttle.
func BenchmarkVerifyFaulty(b *testing.B) {
	const latencyScale = 1e-3
	base, err := data.AggChecker(benchSeed + 1)
	if err != nil {
		b.Fatal(err)
	}
	profDocs, err := data.AggChecker(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, rate := range []float64{0, 0.2, 0.5} {
		b.Run(fmt.Sprintf("fault-rate-%v", rate), func(b *testing.B) {
			stack, err := verify.NewStack(benchSeed, verify.Middleware{FaultRate: rate, Retries: 2, ThrottleScale: latencyScale})
			if err != nil {
				b.Fatal(err)
			}
			stats, err := profile.Run(stack.Methods, profDocs[:6], stack.Ledger, profile.Options{})
			if err != nil {
				b.Fatal(err)
			}
			p, err := core.New(core.Config{
				Methods:        stack.Methods,
				Stats:          stats,
				AccuracyTarget: 0.99,
				Seed:           benchSeed,
				Workers:        8,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				docs := claim.CloneDocuments(base)
				b.StartTimer()
				p.VerifyDocumentsParallel(docs, 8)
			}
			b.ReportMetric(float64(claim.TotalClaims(base))/b.Elapsed().Seconds()*float64(b.N), "claims/s")
		})
	}
}
