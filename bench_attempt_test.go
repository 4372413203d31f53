package repro

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/ingest"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/sqldb"
	"repro/internal/verify"
)

// Micro-benchmark of one verification attempt as the pipeline makes it —
// inputs prepared per claim, one translated query executed once — on the two
// table sizes the repository benchmark uses: a document's own database of at
// most 50 rows (lib-corpus, where the attempt is prompt, model and plan
// lookup) and a 16,000-row ingested table (lib-bigtable, where it is the
// scan). For profiling while working on verify, core or sqldb; claims are
// judged by `go run ./benchmark`.

// bigTableDocument onboards a 16,000-row CSV shaped like lib-bigtable's and
// returns its surface claims as a document over the flat table.
func bigTableDocument(b *testing.B) *claim.Document {
	b.Helper()
	rng := rand.New(rand.NewSource(benchSeed))
	teams := []string{"north", "south", "east", "west", "central", "coastal"}
	var csv strings.Builder
	csv.WriteString("name,team,units,revenue,discounted,day\n")
	for i := 0; i < 16000; i++ {
		fmt.Fprintf(&csv, "acct-%05d,%s,%d,%.2f,%t,2024-%02d-%02d\n", i,
			teams[rng.Intn(len(teams))], rng.Intn(500), float64(rng.Intn(1_000_000))/100,
			rng.Intn(2) == 1, 1+rng.Intn(12), 1+rng.Intn(28))
	}
	ir, err := ingest.Ingest(strings.NewReader(csv.String()), ingest.Options{Table: "sales", Format: "csv", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	db := sqldb.NewDatabase("sales")
	ds, err := ingest.NewRegistry(db, nil, ingest.Options{}).Add(ir)
	if err != nil {
		b.Fatal(err)
	}
	d := &claim.Document{ID: "big", Domain: "ingest", Data: db}
	for _, sc := range ds.Surface.Claims {
		c, err := claim.New(sc.ID, sc.Sentence, sc.Value, sc.Context)
		if err != nil {
			b.Fatal(err)
		}
		d.Claims = append(d.Claims, c)
	}
	return d
}

// BenchmarkAttemptWith measures verify.AttemptWith per one-shot attempt.
func BenchmarkAttemptWith(b *testing.B) {
	docs, err := data.AggChecker(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct {
		name string
		doc  *claim.Document
	}{{"50-rows", docs[0]}, {"16k-rows", bigTableDocument(b)}} {
		model, err := sim.New(llm.ModelGPT35, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		m := verify.NewOneShot(model, llm.ModelGPT35, "oneshot-gpt3.5")
		d := shape.doc
		inputs := make([]claim.Inputs, len(d.Claims))
		for i, c := range d.Claims {
			inputs[i] = c.Inputs()
		}
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i % len(d.Claims)
				c := *d.Claims[k]
				verify.AttemptWith(m, &c, d.Data, verify.Invocation{Inputs: &inputs[k]})
			}
		})
	}
}
