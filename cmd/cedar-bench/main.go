// Command cedar-bench regenerates the paper's evaluation artifacts: every
// table and figure of Section 7 has a corresponding experiment id.
//
// Usage:
//
//	cedar-bench [-seed N] [-workers N] <experiment>
//
// Experiments:
//
//	table2     Table 2  — result quality of CEDAR vs baselines
//	costs      §7.2     — CEDAR verification fees per dataset
//	fig5       Figure 5 — cost/throughput vs F1 trade-off curves
//	fig6       Figure 6 — F1 change under unit conversions
//	table3     Table 3  — query complexity statistics
//	joinbench  §7.3.2   — F1 and cost under schema normalization
//	fig7       Figure 7 — schedule robustness across domains
//	modelfit   extended report — modeled vs realized accuracy
//	all        run everything above
//
// Performance beyond the paper (serving, SQL engine, streaming, ingestion)
// is measured by `go run ./benchmark`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/exp"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/verify"
)

// result is what every experiment returns: a formatted rendering and, for
// -csv, machine-readable series for plotting (see internal/exp csv.go).
type result interface {
	Render() string
	CSV() string
}

type experiment struct {
	name string
	desc string
	run  func(seed int64, workers int, mw verify.Middleware) (result, error)
}

func experiments() []experiment {
	return []experiment{
		{"table2", "Table 2: result quality of CEDAR vs baselines", adapt(exp.Table2)},
		{"costs", "Section 7.2: CEDAR verification fees per dataset", adapt(exp.Costs)},
		{"fig5", "Figure 5: cost/throughput vs F1 trade-offs", adapt(exp.Fig5)},
		{"fig6", "Figure 6: F1 change under unit conversions", adapt(exp.Fig6)},
		{"table3", "Table 3: query complexity statistics", func(s int64, _ int, _ verify.Middleware) (result, error) {
			return exp.Table3(s) // corpus statistics only; nothing to parallelize
		}},
		{"joinbench", "Section 7.3.2: schema normalization", adapt(exp.JoinBench)},
		{"fig7", "Figure 7: schedule robustness across domains", adapt(exp.Fig7)},
		{"modelfit", "Extended report: modeled vs realized accuracy (independence assumptions)", adapt(exp.ModelFit)},
	}
}

// adapt turns a driver returning its own result type into an experiment's
// run function.
func adapt[R result](driver func(int64, int, verify.Middleware) (R, error)) func(int64, int, verify.Middleware) (result, error) {
	return func(seed int64, workers int, mw verify.Middleware) (result, error) {
		return driver(seed, workers, mw)
	}
}

// benchOptions carries the parsed command line into main.
type benchOptions struct {
	Seed         int64
	Workers      int
	AsCSV        bool
	Retries      int
	Timeout      time.Duration
	HedgeAfter   time.Duration
	Breaker      int
	FaultRate    float64
	TracePath    string
	TraceSummary bool
	CacheDir     string
}

// defineFlags registers the binary's flags on fs, bound to the returned
// options. Split from main so the doclint test can walk the registered
// FlagSet against docs/CLI.md.
func defineFlags(fs *flag.FlagSet) *benchOptions {
	o := &benchOptions{}
	fs.Int64Var(&o.Seed, "seed", 17, "random seed (runs are fully reproducible per seed)")
	fs.IntVar(&o.Workers, "workers", 1, "concurrent claim verifications; results are identical for any value")
	fs.BoolVar(&o.AsCSV, "csv", false, "emit CSV series instead of formatted text")
	fs.IntVar(&o.Retries, "retries", 0, "retry failed retryable model calls up to N additional times")
	fs.DurationVar(&o.Timeout, "timeout", 0, "per-call simulated deadline across retries; 0 disables")
	fs.DurationVar(&o.HedgeAfter, "hedge", 0, "race a backup model call after this simulated latency; 0 disables")
	fs.IntVar(&o.Breaker, "breaker", 0, "per-model circuit breaker threshold; 0 disables")
	fs.Float64Var(&o.FaultRate, "fault-rate", 0, "inject deterministic transport faults at this per-attempt probability")
	fs.StringVar(&o.TracePath, "trace", "", "write the final pipeline run's attempt-level trace as sorted JSONL to this file")
	fs.BoolVar(&o.TraceSummary, "trace-summary", false, "print per-method/per-model trace rollups and the run manifest to stderr")
	fs.StringVar(&o.CacheDir, "cache-dir", "", "persist temperature-0 completions in this directory; repeated experiment runs answer persisted work at zero fee (DESIGN.md §11)")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	var tracer *trace.Tracer
	if o.TracePath != "" || o.TraceSummary {
		// Experiment drivers reset the tracer per pipeline run (like the
		// ledger), so the exported trace covers the last run executed.
		tracer = trace.New()
	}
	mw := verify.Middleware{
		FaultRate:        o.FaultRate,
		Retries:          o.Retries,
		Timeout:          o.Timeout,
		HedgeAfter:       o.HedgeAfter,
		BreakerThreshold: o.Breaker,
		Tracer:           tracer,
	}
	if err := mw.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "cedar-bench:", err)
		os.Exit(1)
	}
	if o.CacheDir != "" {
		st, err := store.Open(o.CacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cedar-bench:", err)
			os.Exit(1)
		}
		defer st.Close()
		mw.Store = st
	}
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	ran, err := runExperiments(os.Stdout, flag.Arg(0), o.Seed, o.Workers, mw, o.AsCSV)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cedar-bench:", err)
		os.Exit(1)
	}
	if !ran {
		usage()
		os.Exit(2)
	}
	if err := cliutil.ExportTrace(tracer, o.TracePath, o.TraceSummary, trace.Manifest{Seed: o.Seed, Workers: o.Workers}); err != nil {
		fmt.Fprintln(os.Stderr, "cedar-bench:", err)
		os.Exit(1)
	}
}

// runExperiments executes every experiment matching want ("all" matches
// each) under the middleware mw and writes its rendering to w. It reports
// whether anything matched.
func runExperiments(w io.Writer, want string, seed int64, workers int, mw verify.Middleware, asCSV bool) (bool, error) {
	ran := false
	for _, e := range experiments() {
		if want != "all" && want != e.name {
			continue
		}
		ran = true
		res, err := e.run(seed, workers, mw)
		if err != nil {
			return ran, fmt.Errorf("%s: %w", e.name, err)
		}
		e.write(w, res, seed, asCSV)
	}
	return ran, nil
}

// write renders one experiment's result as text or CSV.
func (e experiment) write(w io.Writer, res result, seed int64, asCSV bool) {
	if asCSV {
		fmt.Fprintf(w, "# %s (seed %d)\n%s", e.name, seed, res.CSV())
		return
	}
	fmt.Fprintf(w, "== %s (seed %d) ==\n", e.desc, seed)
	fmt.Fprintln(w, res.Render())
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cedar-bench [-seed N] [-workers N] <experiment>")
	fmt.Fprintln(os.Stderr, "experiments:")
	for _, e := range experiments() {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", e.name, e.desc)
	}
	fmt.Fprintln(os.Stderr, "  all        run everything")
}
