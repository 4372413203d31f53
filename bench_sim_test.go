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
func simBenchPrompts(b *testing.B, eightTables bool) []string {
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
