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
	"repro/internal/ingest"
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
	o.Register(fs, cliutil.SystemFlags{Target: 0.99, Seed: 1, Workers: 1})
	fs.StringVar(&o.ClaimsPath, "claims", "", "JSON file with the claims to verify")
	fs.BoolVar(&o.AsJSON, "json", false, "emit results as JSON")
	fs.StringVar(&o.HTMLPath, "html", "", "also write a demo-style HTML report to this file")
	fs.StringVar(&o.TracePath, "trace", "", "write the run's attempt-level trace as sorted JSONL to this file")
	fs.BoolVar(&o.TraceSummary, "trace-summary", false, "print per-method/per-model trace rollups and the run manifest to stderr")
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
	cliutil.SystemFlags
	ClaimsPath   string
	AsJSON       bool
	HTMLPath     string
	TracePath    string
	TraceSummary bool
}

func run(o runOptions) error {
	var tracer *cedar.Tracer
	if o.TracePath != "" || o.TraceSummary {
		tracer = cedar.NewTracer()
	}

	raw, err := os.ReadFile(o.ClaimsPath)
	if err != nil {
		return err
	}
	var inputs []claimInput
	if err := json.Unmarshal(raw, &inputs); err != nil {
		return fmt.Errorf("parsing %s: %w", o.ClaimsPath, err)
	}
	var claims []*cedar.Claim
	for i, in := range inputs {
		if in.ID == "" {
			in.ID = fmt.Sprintf("c%d", i+1)
		}
		c, err := cedar.NewClaim(in.ID, in.Sentence, in.Value, in.Context)
		if err != nil {
			return err
		}
		claims = append(claims, c)
	}

	sys, err := o.Open(tracer, ingest.Options{})
	if err != nil {
		return err
	}
	defer sys.Close()
	rep, err := sys.Run(claims)
	if err != nil {
		return err
	}
	doc := &cedar.Document{ID: sys.Name, Domain: "cli", Data: sys.DB, Claims: claims}
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
