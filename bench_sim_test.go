package repro

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/nl"
	"repro/internal/prompts"
)

// Micro-benchmarks of the simulated model's two hot layers on the prompts
// the repository benchmark sends: a claim against its document's own
// one-table database (lib-corpus) and against a catalog of all eight
// AggChecker tables (serve-wait, tier-cpu). For profiling while working on
// sim, nl or embed; claims are judged by `go run ./benchmark`.

// aggCheckerTables are the tables AggChecker documents draw from.
var aggCheckerTables = []string{"airlines", "drinks", "so_survey", "housing", "commute", "f1", "cities", "movies"}

// simBenchPrompts renders the one-shot prompt of every AggChecker claim,
// against the claim's own database or against the eight-table catalog.
func simBenchPrompts(b testing.TB, eightTables bool) []string {
	b.Helper()
	docs, err := data.AggChecker(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	catalog, err := data.BuildDatabase("catalog", rand.New(rand.NewSource(benchSeed)), 0, aggCheckerTables...)
	if err != nil {
		b.Fatal(err)
	}
	var out []string
	for _, d := range docs {
		schema := d.Data.Schema()
		if eightTables {
			schema = catalog.Schema()
		}
		for _, c := range d.Claims {
			masked, ctx := c.Masked()
			out = append(out, prompts.OneShot(masked, c.ValueType(), schema, "", ctx))
		}
	}
	return out
}

var simBenchShapes = []struct {
	name        string
	eightTables bool
}{{"one-table", false}, {"eight-table", true}}

// BenchmarkSimComplete measures sim.Model.Complete per one-shot prompt, for
// the tier that ignores context and the one that reads it.
func BenchmarkSimComplete(b *testing.B) {
	for _, shape := range simBenchShapes {
		prompts := simBenchPrompts(b, shape.eightTables)
		for _, name := range []string{llm.ModelGPT35, llm.ModelGPT4o} {
			model, err := sim.New(name, 1)
			if err != nil {
				b.Fatal(err)
			}
			reqs := make([]llm.Request, len(prompts))
			for i, p := range prompts {
				reqs[i] = llm.Request{Model: name, Messages: []llm.Message{{Role: llm.RoleUser, Content: p}}}
			}
			b.Run(shape.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := model.Complete(reqs[i%len(reqs)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestSimCompleteAllocCeiling holds sim.Model.Complete on the prompts above to
// 60 % of the allocations the commit before it read its prompt in place and
// in one pass spent on them, per completion on average: 24 (one table,
// gpt-3.5), 41 (one table, gpt-4o), 27 and 45 (eight tables).
func TestSimCompleteAllocCeiling(t *testing.T) {
	ceilings := map[string]float64{
		"one-table/" + llm.ModelGPT35: 14, "one-table/" + llm.ModelGPT4o: 24,
		"eight-table/" + llm.ModelGPT35: 16, "eight-table/" + llm.ModelGPT4o: 27,
	}
	for _, shape := range simBenchShapes {
		prompts := simBenchPrompts(t, shape.eightTables)
		for _, name := range []string{llm.ModelGPT35, llm.ModelGPT4o} {
			model, err := sim.New(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			reqs := make([]llm.Request, len(prompts))
			for i, p := range prompts {
				reqs[i] = llm.Request{Model: name, Messages: []llm.Message{{Role: llm.RoleUser, Content: p}}}
			}
			all := func() {
				for _, req := range reqs {
					_, _ = model.Complete(req)
				}
			}
			all() // warm the schema memo and the compiled columns
			perCompletion := testing.AllocsPerRun(3, all) / float64(len(reqs))
			if key := shape.name + "/" + name; perCompletion > ceilings[key] {
				t.Errorf("%s: %.1f allocations per completion, ceiling %.0f", key, perCompletion, ceilings[key])
			}
		}
	}
}

// BenchmarkOneShotPrompt measures the one-shot prompt as verify.OneShot
// renders it, per AggChecker claim against its own database, with and
// without a few-shot sample.
func BenchmarkOneShotPrompt(b *testing.B) {
	docs, err := data.AggChecker(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	var fills []prompts.Fill
	for _, d := range docs {
		for _, c := range d.Claims {
			masked, ctx := c.Masked()
			fills = append(fills, prompts.Fill{Claim: masked, ValueType: c.ValueType(), Schema: d.Data.Schema(), Context: ctx})
		}
	}
	sample := &prompts.Example{MaskedClaim: "Aer Lingus recorded x incidents.", Query: `SELECT "incidents_85_99" FROM "airlines" WHERE "airline" = 'Aer Lingus'`}
	for _, withSample := range []bool{false, true} {
		name := "no-sample"
		if withSample {
			name = "sample"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := fills[i%len(fills)]
				if withSample {
					f.Sample = sample
				}
				_ = f.OneShot()
			}
		})
	}
}

// BenchmarkParseMasked measures nl.ParseMasked on what the simulated model
// parses out of each prompt, context included. Unparseable claims are part
// of the mix.
func BenchmarkParseMasked(b *testing.B) {
	lex := nl.DefaultLexicon()
	for _, shape := range simBenchShapes {
		type input struct {
			masked, ctx string
			schema      *nl.Schema
		}
		var ins []input
		for _, p := range simBenchPrompts(b, shape.eightTables) {
			masked, _, _ := prompts.ExtractClaim(p)
			ins = append(ins, input{masked, prompts.ExtractContext(p), nl.ParseSchemaText(p)})
		}
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in := &ins[i%len(ins)]
				_, _ = nl.ParseMasked(in.masked, in.schema, lex, in.ctx)
			}
		})
	}
}
