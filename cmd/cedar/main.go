// Command cedar verifies natural-language claims against relational data:
// it loads a CSV table and a JSON claim file, runs CEDAR's multi-stage
// verification, and reports a verdict and verification query per claim.
//
// Usage:
//
//	cedar -csv data.csv -table airlines -claims claims.json [-target 0.99] [-seed 1] [-workers 4] [-json]
//
// Your own datasets onboard through the ingest subcommand (docs/DATA.md):
//
//	cedar ingest sales.csv -table sales -cache-dir cache -claims-out claims.json
//	cedar -dataset sales -claims claims.json -cache-dir cache
//
// The claims file holds an array of objects:
//
//	[{"id": "c1",
//	  "sentence": "Malaysia Airlines recorded 2 fatal accidents between 2000 and 2014.",
//	  "value": "2",
//	  "context": "optional paragraph containing the sentence"}]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/cedar"
	"repro/internal/cliutil"
	"repro/internal/profile"
	"repro/internal/report"
)

type claimInput struct {
	ID       string `json:"id"`
	Sentence string `json:"sentence"`
	Value    string `json:"value"`
	Context  string `json:"context,omitempty"`
}

type claimOutput struct {
	ID       string `json:"id"`
	Correct  bool   `json:"correct"`
	Verified bool   `json:"verified"`
	Method   string `json:"method,omitempty"`
	Query    string `json:"query,omitempty"`
}

// defineFlags registers the binary's flags on fs, bound to the returned
// options. Split from main so the doclint test can walk the registered
// FlagSet against docs/CLI.md.
func defineFlags(fs *flag.FlagSet) *runOptions {
	o := &runOptions{}
	fs.Var((*cliutil.CSVList)(&o.CSVPaths), "csv", "CSV data table (header row first); repeat for multi-table databases")
	fs.Var((*cliutil.CSVList)(&o.Datasets), "dataset", "ingested dataset to load from -cache-dir (see cedar ingest and docs/DATA.md); repeatable")
	fs.StringVar(&o.TableName, "table", "", "table name for a single CSV (default: file base name)")
	fs.StringVar(&o.ClaimsPath, "claims", "", "JSON file with the claims to verify")
	fs.Float64Var(&o.Target, "target", 0.99, "accuracy target in (0,1]")
	fs.Int64Var(&o.Seed, "seed", 1, "random seed for the simulated models")
	fs.IntVar(&o.Workers, "workers", 1, "concurrent claim verifications; results are identical for any value")
	fs.BoolVar(&o.AsJSON, "json", false, "emit results as JSON")
	fs.StringVar(&o.StatsPath, "stats", "", "profiling statistics JSON (from cedar-profile -o); skips built-in profiling")
	fs.StringVar(&o.HTMLPath, "html", "", "also write a demo-style HTML report to this file")
	fs.IntVar(&o.Retries, "retries", 0, "retry failed retryable model calls up to N additional times (capped backoff, seeded jitter)")
	fs.DurationVar(&o.Timeout, "timeout", 0, "per-call simulated deadline across retries (e.g. 30s); 0 disables")
	fs.DurationVar(&o.HedgeAfter, "hedge", 0, "race a backup model call once the primary exceeds this simulated latency; 0 disables")
	fs.IntVar(&o.Breaker, "breaker", 0, "trip a per-model circuit breaker after N consecutive failures; 0 disables (order-dependent, see DESIGN.md §9)")
	fs.Float64Var(&o.FaultRate, "fault-rate", 0, "inject deterministic transport faults at this per-attempt probability (chaos testing)")
	fs.StringVar(&o.TracePath, "trace", "", "write the run's attempt-level trace as sorted JSONL to this file")
	fs.BoolVar(&o.TraceSummary, "trace-summary", false, "print per-method/per-model trace rollups and the run manifest to stderr")
	fs.StringVar(&o.CacheDir, "cache-dir", "", "persist temperature-0 completions and verdict memos in this directory; repeated runs answer persisted work at zero fee (DESIGN.md §11)")
	fs.BoolVar(&o.Route, "route", false, "decompose compound claims and route each sub-claim to the best-matching table of the loaded database (DESIGN.md §16)")
	fs.IntVar(&o.RouteTopK, "route-topk", 0, "candidate tables the routing stage considers per sub-claim; 0 uses the built-in default")
	return o
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "ingest" {
		if err := runIngest(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "cedar ingest:", err)
			os.Exit(1)
		}
		return
	}
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	if (len(o.CSVPaths) == 0 && len(o.Datasets) == 0) || o.ClaimsPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*o); err != nil {
		fmt.Fprintln(os.Stderr, "cedar:", err)
		os.Exit(1)
	}
}

// runOptions carries the parsed command line into run.
type runOptions struct {
	CSVPaths     []string
	Datasets     []string
	TableName    string
	ClaimsPath   string
	Target       float64
	Seed         int64
	Workers      int
	AsJSON       bool
	StatsPath    string
	HTMLPath     string
	Retries      int
	Timeout      time.Duration
	HedgeAfter   time.Duration
	Breaker      int
	FaultRate    float64
	TracePath    string
	TraceSummary bool
	CacheDir     string
	Route        bool
	RouteTopK    int
}

func run(o runOptions) error {
	var tracer *cedar.Tracer
	if o.TracePath != "" || o.TraceSummary {
		tracer = cedar.NewTracer()
	}

	var db *cedar.Database
	var dbName string
	var err error
	if len(o.CSVPaths) > 0 {
		db, dbName, err = cliutil.LoadDatabase(o.CSVPaths, o.TableName)
		if err != nil {
			return err
		}
	} else {
		// Dataset-only run: the first dataset names the database (and the
		// seeding document ID), matching what cedar ingest registered.
		dbName = o.TableName
		if dbName == "" {
			dbName = o.Datasets[0]
		}
		db = cedar.NewDatabase(dbName)
	}
	if len(o.Datasets) > 0 {
		if _, err := loadDatasets(db, o.CacheDir, o.Datasets, tracer); err != nil {
			return err
		}
	}

	raw, err := os.ReadFile(o.ClaimsPath)
	if err != nil {
		return err
	}
	var inputs []claimInput
	if err := json.Unmarshal(raw, &inputs); err != nil {
		return fmt.Errorf("parsing %s: %w", o.ClaimsPath, err)
	}
	doc := &cedar.Document{ID: dbName, Domain: "cli", Data: db}
	for i, in := range inputs {
		if in.ID == "" {
			in.ID = fmt.Sprintf("c%d", i+1)
		}
		c, err := cedar.NewClaim(in.ID, in.Sentence, in.Value, in.Context)
		if err != nil {
			return err
		}
		doc.Claims = append(doc.Claims, c)
	}

	sys, err := cedar.New(cedar.Options{
		Seed:             o.Seed,
		AccuracyTarget:   o.Target,
		Workers:          o.Workers,
		Retries:          o.Retries,
		Timeout:          o.Timeout,
		HedgeAfter:       o.HedgeAfter,
		BreakerThreshold: o.Breaker,
		FaultRate:        o.FaultRate,
		CacheDir:         o.CacheDir,
		Route:            o.Route,
		RouteTopK:        o.RouteTopK,
		Tracer:           tracer,
	})
	if err != nil {
		return err
	}
	defer sys.Close()
	if o.Route {
		if err := sys.SetCatalog(db); err != nil {
			return err
		}
	}
	if o.StatsPath != "" {
		stats, err := profile.LoadStats(o.StatsPath)
		if err != nil {
			return err
		}
		if err := sys.SetStats(stats); err != nil {
			return err
		}
	} else {
		profDocs, err := cedar.Benchmark(cedar.BenchAggChecker, o.Seed+100)
		if err != nil {
			return err
		}
		if err := sys.ProfileOn(profDocs[:6]); err != nil {
			return err
		}
	}
	// The claims run through the same request-scoped entry point cedar-serve
	// uses, with the database name as the seeding document ID — which is why
	// serving the same claims over HTTP reproduces this run bit for bit.
	rep, err := sys.VerifyClaims(dbName, db, doc.Claims)
	if err != nil {
		return err
	}
	if err := cliutil.ExportTrace(tracer, o.TracePath, o.TraceSummary, sys.TraceManifest([]*cedar.Document{doc})); err != nil {
		return err
	}
	if o.HTMLPath != "" {
		page, err := report.Render([]*cedar.Document{doc}, report.Summary{
			Schedule:    sys.Schedule(),
			Dollars:     rep.Dollars,
			Calls:       rep.Calls,
			GeneratedAt: time.Now(),
		})
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.HTMLPath, page, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", o.HTMLPath)
	}

	if o.AsJSON {
		var out []claimOutput
		for _, c := range doc.Claims {
			out = append(out, claimOutput{
				ID:       c.ID,
				Correct:  c.Result.Correct,
				Verified: c.Result.Verified,
				Method:   c.Result.Method,
				Query:    c.Result.Query,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Printf("schedule: %s\n", sys.Schedule())
	if o.Route {
		fmt.Printf("routed schedule: %s\n", sys.RoutedSchedule())
	}
	fmt.Println()
	for _, c := range doc.Claims {
		verdict := "CORRECT"
		if !c.Result.Correct {
			verdict = "INCORRECT"
		}
		fmt.Printf("%-10s %-9s %s\n", c.ID, verdict, c.Sentence)
		if c.Result.Query != "" {
			fmt.Printf("           via %s: %s\n", c.Result.Method, c.Result.Query)
		}
	}
	fmt.Printf("\n%d claims, %d flagged incorrect, simulated cost $%.4f (%d model calls)\n",
		rep.Claims, rep.Flagged, rep.Dollars, rep.Calls)
	if o.Route {
		fmt.Printf("routing: %d sub-claims routed, routing fee $%.4f\n",
			rep.RoutedSubClaims, rep.RouteDollars)
	}
	if o.CacheDir != "" {
		fmt.Printf("cache: %d persisted hits, %d memo hits, %d memo mismatches\n",
			rep.PersistedHits, rep.MemoHits, rep.MemoMismatches)
	}
	if o.Retries > 0 || o.Timeout > 0 || o.HedgeAfter > 0 || o.Breaker > 0 || o.FaultRate > 0 {
		fmt.Printf("resilience: %v\n", sys.Resilience())
	}
	return nil
}
