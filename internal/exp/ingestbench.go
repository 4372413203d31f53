package exp

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/sqldb"
	"repro/internal/textutil"
)

// IngestBenchRow reports one (format, row budget) ingestion configuration
// over the synthetic sales corpus.
type IngestBenchRow struct {
	Format    string
	Budget    int // row budget (0 = ingest defaults, no sampling at this size)
	RowsTotal int
	RowsKept  int
	Bytes     int64
	Sampled   bool
	Wall      time.Duration
	// RowsPerSec is scanned input rows per real second of ingestion.
	RowsPerSec float64
	// Claims counts the auto-generated surface claims.
	Claims int
	// Stable reports that re-ingesting the identical input reproduced the
	// identical catalog fingerprint (the determinism contract sampling
	// depends on).
	Stable bool
}

// IngestVerifyRow reports the end-to-end half of the benchmark: CEDAR
// verifying the generated surface of an ingested (and sampled) dataset,
// with half the claims deliberately falsified.
type IngestVerifyRow struct {
	Claims    int
	Falsified int
	Quality   metrics.Quality
	Cost      metrics.RunCost
}

// IngestBenchResult reproduces the onboarding table of EXPERIMENTS.md.
type IngestBenchResult struct {
	Rows      int
	Configs   []IngestBenchRow
	Verify    IngestVerifyRow
	AllStable bool
}

// IngestBench measures dynamic dataset onboarding (docs/DATA.md): parse and
// type-inference throughput for CSV vs NDJSON at full size and under a
// reservoir row budget, fingerprint stability across re-ingestion, and the
// cost and quality of CEDAR verifying the auto-generated claim surface of
// the sampled dataset after half its claims are falsified.
func IngestBench(seed int64, workers int) (*IngestBenchResult, error) {
	return ingestBenchSized(seed, workers, 20000)
}

// ingestBenchSized is IngestBench at an explicit corpus size (tests shrink
// it).
func ingestBenchSized(seed int64, workers, rows int) (*IngestBenchResult, error) {
	csvBlob, ndjsonBlob := ingestBenchCorpus(seed, rows)
	res := &IngestBenchResult{Rows: rows, AllStable: true}

	type config struct {
		format string
		blob   string
		budget int
	}
	configs := []config{
		{"csv", csvBlob, 0},
		{"csv", csvBlob, rows / 10},
		{"ndjson", ndjsonBlob, 0},
		{"ndjson", ndjsonBlob, rows / 10},
	}
	var verifyDS *ingest.Dataset
	var verifyDB *sqldb.Database
	for _, c := range configs {
		opts := ingest.Options{Table: "sales", Format: c.format, SampleRows: c.budget, Seed: seed}
		start := time.Now()
		ir, err := ingest.Ingest(strings.NewReader(c.blob), opts)
		wall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("ingestbench %s/%d: %w", c.format, c.budget, err)
		}
		again, err := ingest.Ingest(strings.NewReader(c.blob), opts)
		if err != nil {
			return nil, fmt.Errorf("ingestbench %s/%d re-ingest: %w", c.format, c.budget, err)
		}
		db := sqldb.NewDatabase("sales")
		ds, err := ingest.NewRegistry(db, nil, ingest.Options{}).Add(ir)
		if err != nil {
			return nil, fmt.Errorf("ingestbench %s/%d surface: %w", c.format, c.budget, err)
		}
		stable := ir.Fingerprint == again.Fingerprint
		if !stable {
			res.AllStable = false
		}
		rps := 0.0
		if wall > 0 {
			rps = float64(ir.RowsTotal) / wall.Seconds()
		}
		res.Configs = append(res.Configs, IngestBenchRow{
			Format: c.format, Budget: c.budget,
			RowsTotal: ir.RowsTotal, RowsKept: ir.RowsKept, Bytes: ir.BytesRead,
			Sampled: ir.Sampled, Wall: wall, RowsPerSec: rps,
			Claims: len(ds.Surface.Claims), Stable: stable,
		})
		// The sampled CSV configuration feeds the verification phase.
		if c.format == "csv" && c.budget > 0 {
			verifyDS, verifyDB = ds, db
		}
	}

	verify, err := ingestBenchVerify(seed, workers, verifyDB, verifyDS)
	if err != nil {
		return nil, err
	}
	res.Verify = *verify
	return res, nil
}

// ingestBenchVerify runs CEDAR over the generated surface with every second
// claim falsified, so the quality numbers exercise both verdict directions.
func ingestBenchVerify(seed int64, workers int, db *sqldb.Database, ds *ingest.Dataset) (*IngestVerifyRow, error) {
	doc := &claim.Document{ID: "ingestbench-sales", Domain: "ingest", Data: db}
	falsified := 0
	for i, sc := range ds.Surface.Claims {
		sentence, value := sc.Sentence, sc.Value
		correct := true
		if i%2 == 1 {
			// Still locatable, never equal to the gold value. The digit goes
			// into the token claim.New will find, not the first substring: an
			// entity key may contain the value's digits ahead of it.
			span, ok := textutil.FindValueSpan(sentence, value)
			if !ok {
				return nil, fmt.Errorf("ingestbench claim %s: value %q not in %q", sc.ID, value, sentence)
			}
			wrong := value + "7"
			toks := textutil.Tokenize(sentence)
			toks[span.End] = strings.Replace(toks[span.End], value, wrong, 1)
			sentence = strings.Join(toks, " ")
			value = wrong
			correct = false
			falsified++
		}
		c, err := claim.New(sc.ID, sentence, value, sc.Context)
		if err != nil {
			return nil, fmt.Errorf("ingestbench claim %s: %w", sc.ID, err)
		}
		c.Gold = claim.Gold{Query: sc.Query, Correct: correct}
		doc.Claims = append(doc.Claims, c)
	}

	stack, err := NewStackResilient(seed, DefaultResilience)
	if err != nil {
		return nil, err
	}
	stack.Workers = workers
	profDocs, err := data.AggChecker(profileSeed(seed))
	if err != nil {
		return nil, err
	}
	if len(profDocs) > 8 {
		profDocs = profDocs[:8]
	}
	stats, err := stack.Profile(profDocs)
	if err != nil {
		return nil, err
	}
	q, rc, _, err := stack.RunCEDAR(stats, 0.99, []*claim.Document{doc})
	if err != nil {
		return nil, err
	}
	return &IngestVerifyRow{Claims: len(doc.Claims), Falsified: falsified, Quality: q, Cost: rc}, nil
}

// ingestBenchCorpus renders one deterministic synthetic sales table as CSV
// and NDJSON (same records, same order).
func ingestBenchCorpus(seed int64, rows int) (csvBlob, ndjsonBlob string) {
	rng := rand.New(rand.NewSource(seed ^ 0x1e9e57))
	regions := []string{"north", "south", "east", "west"}
	products := []string{"widget", "gadget", "sprocket", "gizmo", "doohickey"}
	var cb, nb strings.Builder
	cb.WriteString("region,product,units,revenue,discounted,day\n")
	for i := 0; i < rows; i++ {
		region := regions[rng.Intn(len(regions))]
		product := products[rng.Intn(len(products))]
		units := rng.Intn(500)
		revenue := float64(rng.Intn(1_000_000)) / 100
		discounted := rng.Intn(2) == 1
		day := fmt.Sprintf("2024-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))
		fmt.Fprintf(&cb, "%s,%s,%d,%.2f,%t,%s\n", region, product, units, revenue, discounted, day)
		fmt.Fprintf(&nb, `{"region":%q,"product":%q,"units":%d,"revenue":%.2f,"discounted":%t,"day":%q}`+"\n",
			region, product, units, revenue, discounted, day)
	}
	return cb.String(), nb.String()
}

// Render prints the onboarding table.
func (r *IngestBenchResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dynamic dataset onboarding over a %d-row synthetic sales corpus (docs/DATA.md).\n", r.Rows)
	fmt.Fprintf(&b, "%-8s %8s %9s %8s %10s %8s %10s %7s %7s\n",
		"Format", "Budget", "Scanned", "Kept", "Bytes", "Sampled", "Rows/s", "Claims", "Stable")
	for _, row := range r.Configs {
		budget := "-"
		if row.Budget > 0 {
			budget = fmt.Sprintf("%d", row.Budget)
		}
		fmt.Fprintf(&b, "%-8s %8s %9d %8d %10d %8t %10.0f %7d %7t\n",
			row.Format, budget, row.RowsTotal, row.RowsKept, row.Bytes,
			row.Sampled, row.RowsPerSec, row.Claims, row.Stable)
	}
	v := r.Verify
	fmt.Fprintf(&b, "surface verification (sampled csv, %d claims, %d falsified): ", v.Claims, v.Falsified)
	fmt.Fprintf(&b, "P=%s R=%s F1=%s, cost $%.4f (%d calls)\n",
		pct(v.Quality.Precision), pct(v.Quality.Recall), pct(v.Quality.F1), v.Cost.Dollars, v.Cost.Calls)
	if r.AllStable {
		b.WriteString("fingerprints: every re-ingest reproduced its catalog bit for bit\n")
	} else {
		b.WriteString("fingerprints: RE-INGEST DIVERGED\n")
	}
	return b.String()
}

// CSV renders one row per configuration.
func (r *IngestBenchResult) CSV() string {
	rows := make([][]string, 0, len(r.Configs))
	for _, row := range r.Configs {
		rows = append(rows, []string{
			row.Format, fmt.Sprintf("%d", row.Budget), fmt.Sprintf("%d", row.RowsTotal),
			fmt.Sprintf("%d", row.RowsKept), fmt.Sprintf("%d", row.Bytes),
			fmt.Sprintf("%t", row.Sampled), f(row.RowsPerSec),
			fmt.Sprintf("%d", row.Claims), fmt.Sprintf("%t", row.Stable),
		})
	}
	return csvString([]string{"format", "budget", "rows_total", "rows_kept", "bytes",
		"sampled", "rows_per_sec", "claims", "stable"}, rows)
}

// JSON renders the result for BENCH_ingest.json (cedar-bench -ingest-json).
func (r *IngestBenchResult) JSON() ([]byte, error) {
	type row struct {
		Format     string  `json:"format"`
		Budget     int     `json:"budget"`
		RowsTotal  int     `json:"rows_total"`
		RowsKept   int     `json:"rows_kept"`
		Bytes      int64   `json:"bytes"`
		Sampled    bool    `json:"sampled"`
		WallMS     int64   `json:"wall_ms"`
		RowsPerSec float64 `json:"rows_per_sec"`
		Claims     int     `json:"claims"`
		Stable     bool    `json:"stable"`
	}
	out := struct {
		Experiment string `json:"experiment"`
		Rows       int    `json:"rows"`
		AllStable  bool   `json:"all_stable"`
		Configs    []row  `json:"configs"`
		Verify     struct {
			Claims    int     `json:"claims"`
			Falsified int     `json:"falsified"`
			Precision float64 `json:"precision"`
			Recall    float64 `json:"recall"`
			F1        float64 `json:"f1"`
			Dollars   float64 `json:"dollars"`
			Calls     int     `json:"calls"`
		} `json:"verify"`
	}{Experiment: "ingestbench", Rows: r.Rows, AllStable: r.AllStable}
	for _, rw := range r.Configs {
		out.Configs = append(out.Configs, row{
			Format: rw.Format, Budget: rw.Budget, RowsTotal: rw.RowsTotal,
			RowsKept: rw.RowsKept, Bytes: rw.Bytes, Sampled: rw.Sampled,
			WallMS: rw.Wall.Milliseconds(), RowsPerSec: rw.RowsPerSec,
			Claims: rw.Claims, Stable: rw.Stable,
		})
	}
	out.Verify.Claims = r.Verify.Claims
	out.Verify.Falsified = r.Verify.Falsified
	out.Verify.Precision = r.Verify.Quality.Precision
	out.Verify.Recall = r.Verify.Quality.Recall
	out.Verify.F1 = r.Verify.Quality.F1
	out.Verify.Dollars = r.Verify.Cost.Dollars
	out.Verify.Calls = r.Verify.Cost.Calls
	return json.MarshalIndent(out, "", "  ")
}
