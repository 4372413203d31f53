// Command cedar-profile estimates the per-method success probability and
// cost statistics the CEDAR scheduler consumes, on one of the built-in
// benchmarks, and prints the Pareto-optimal verification schedules for a
// range of accuracy targets.
//
// Usage:
//
//	cedar-profile [-seed N] [-bench aggchecker|tabfact|wikitext] [-docs 8]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/cedar"
	"repro/internal/cliutil"
	"repro/internal/profile"
	"repro/internal/schedule"
	"repro/internal/trace"
)

// profileOptions carries the parsed command line into main.
type profileOptions struct {
	Seed         int64
	Bench        string
	Docs         int
	OutPath      string
	Retries      int
	Timeout      time.Duration
	FaultRate    float64
	TracePath    string
	TraceSummary bool
	CacheDir     string
}

// defineFlags registers the binary's flags on fs, bound to the returned
// options. Split from main so the doclint test can walk the registered
// FlagSet against docs/CLI.md.
func defineFlags(fs *flag.FlagSet) *profileOptions {
	o := &profileOptions{}
	fs.Int64Var(&o.Seed, "seed", 17, "random seed")
	fs.StringVar(&o.Bench, "bench", cedar.BenchAggChecker, "benchmark to profile on")
	fs.IntVar(&o.Docs, "docs", 8, "number of profiling documents")
	fs.StringVar(&o.OutPath, "o", "", "write statistics to this JSON file (readable by cedar -stats)")
	fs.IntVar(&o.Retries, "retries", 0, "retry failed retryable model calls up to N additional times")
	fs.DurationVar(&o.Timeout, "timeout", 0, "per-call simulated deadline across retries; 0 disables")
	fs.Float64Var(&o.FaultRate, "fault-rate", 0, "inject deterministic transport faults at this per-attempt probability")
	fs.StringVar(&o.TracePath, "trace", "", "write the profiling run's attempt-level trace as sorted JSONL to this file")
	fs.BoolVar(&o.TraceSummary, "trace-summary", false, "print per-model trace rollups to stderr (profiling traffic is anonymous: no attempt identities)")
	fs.StringVar(&o.CacheDir, "cache-dir", "", "record temperature-0 completions in this persistent store; profiling always re-pays (anonymous traffic never reads the store, DESIGN.md §11) but its completions warm later cedar runs")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	var tracer *trace.Tracer
	if o.TracePath != "" || o.TraceSummary {
		tracer = trace.New()
	}
	// Profiling under faults shows how provider failures skew the estimated
	// method statistics.
	opts := cedar.Options{
		Seed:      o.Seed,
		Retries:   o.Retries,
		Timeout:   o.Timeout,
		FaultRate: o.FaultRate,
		CacheDir:  o.CacheDir,
		Tracer:    tracer,
	}
	if err := run(os.Stdout, opts, o.Bench, o.Docs, o.OutPath); err != nil {
		fmt.Fprintln(os.Stderr, "cedar-profile:", err)
		os.Exit(1)
	}
	if err := cliutil.ExportTrace(tracer, o.TracePath, o.TraceSummary, trace.Manifest{Seed: o.Seed}); err != nil {
		fmt.Fprintln(os.Stderr, "cedar-profile:", err)
		os.Exit(1)
	}
}

// run profiles nDocs documents of bench on a System built with opts and
// writes the statistics table and the optimal schedules to w; with out set
// it also saves the statistics.
func run(w io.Writer, opts cedar.Options, bench string, nDocs int, out string) error {
	sys, err := cedar.New(opts)
	if err != nil {
		return err
	}
	defer sys.Close()
	docs, err := cedar.Benchmark(bench, opts.Seed)
	if err != nil {
		return err
	}
	if nDocs > 0 && nDocs < len(docs) {
		docs = docs[:nDocs]
	}
	if err := sys.ProfileOn(docs); err != nil {
		return err
	}
	stats := sys.Stats()
	fmt.Fprintf(w, "profiling on %d documents of %s (seed %d):\n\n", len(docs), bench, opts.Seed)
	fmt.Fprintf(w, "%-16s %10s %12s %14s\n", "Method", "Accuracy", "Cost ($)", "Latency")
	for _, s := range stats {
		fmt.Fprintf(w, "%-16s %10.3f %12.5f %14v\n", s.Name, s.Accuracy, s.Cost, s.Wall.Round(1e6))
	}

	if out != "" {
		if err := profile.SaveStats(out, stats); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nstatistics written to %s\n", out)
	}

	fmt.Fprintln(w, "\noptimal schedules by accuracy target:")
	for _, target := range []float64{0.5, 0.8, 0.9, 0.95, 0.99} {
		plan, err := schedule.Plan(stats, 2, target)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %.2f -> %v\n", target, plan)
	}
	return nil
}
