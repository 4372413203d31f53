// Command benchpairs judges a change with the repository benchmark the way
// its end-to-end bounds are meant to be read: in alternating pairs of runs,
// a parent revision against the working tree. It builds `./benchmark` once
// at the parent, in a `git worktree` under a temporary directory, and once
// at the working tree, then runs N pairs: every workload in a process of its
// own at `-trace 0`, the parent first in even pairs and the change first in
// odd ones. Each run's last line, its JSON result, is kept in the output
// directory as <workload>-<pair>-<parent|change>.json.
//
// For every workload and every end-to-end metric of BENCHMARK.json it then
// prints both medians, the change's median relative to the parent's, the
// parent's quartile spread over its median, the pairs the change won, tied
// and lost, and a verdict: "WORSE" when the change's median is worse than
// the parent's by more than the metric's bound (in the metric's direction),
// "unresolved" when the parent's own spread is wider than the bound, "ok"
// otherwise. It also says whether the two binaries, both built with
// buildFlags, are byte-identical, and whether both sides printed the same
// `bench.digest` in every pair. It exits non-zero when a run fails or a
// digest differs; a WORSE verdict is reported, not an error.
//
// Usage (what `make pairs PARENT=<rev> N=10 ARGS='…'` runs, from the
// repository root):
//
//	go run ./internal/benchpairs -parent <rev> [-n 10] [-workload all] [-seconds S] [-out DIR]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	// An interrupt stops the running benchmark, so the worktree is removed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

// metricDef is an end-to-end metric's entry in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json benchpairs reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

var sides = [2]string{"parent", "change"}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchpairs", flag.ContinueOnError)
	parent := fs.String("parent", "", "revision the working tree is compared with (required)")
	n := fs.Int("n", 10, "pairs of runs")
	workload := fs.String("workload", "all", "a workload of BENCHMARK.json, or all")
	seconds := fs.String("seconds", "", "passed to the benchmark's -seconds when set")
	out := fs.String("out", "", "directory the runs' result lines are kept in (default: a new temporary one)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parent == "" || *n < 1 {
		return errors.New("-parent is required and -n must be positive")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var workloads []string
	for _, w := range sp.Workloads {
		if *workload == "all" || *workload == w.Name {
			workloads = append(workloads, w.Name)
		}
	}
	if len(workloads) == 0 {
		return fmt.Errorf("no workload %q in BENCHMARK.json", *workload)
	}
	if *out == "" {
		if *out, err = os.MkdirTemp("", "benchpairs-runs-"); err != nil {
			return err
		}
	} else if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	tmp, err := os.MkdirTemp("", "benchpairs-build-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	tree := filepath.Join(tmp, "tree")
	if err := command("", "git", "worktree", "add", "--detach", tree, *parent); err != nil {
		return err
	}
	defer command("", "git", "worktree", "remove", "--force", tree)
	dirs := [2]string{tree, "."}
	var bins [2]string
	for s, dir := range dirs {
		bins[s] = filepath.Join(tmp, sides[s]+".bin")
		if err := command(dir, goBin(), append(append([]string{"build"}, buildFlags...), "-o", bins[s], "./benchmark")...); err != nil {
			return fmt.Errorf("building the %s's benchmark: %w", sides[s], err)
		}
	}
	parentBin, _ := os.ReadFile(bins[0])
	changeBin, _ := os.ReadFile(bins[1])
	fmt.Fprintf(stdout, "benchmark binaries byte-identical: %t\n", string(parentBin) == string(changeBin))

	benchArgs := []string{"-trace", "0"}
	if *seconds != "" {
		benchArgs = append(benchArgs, "-seconds", *seconds)
	}
	lines := make(map[string]*[2][]string)   // workload → side → result lines, pair order
	digests := make(map[string]*[2][]string) // workload → side → bench.digest, pair order
	for _, w := range workloads {
		lines[w], digests[w] = new([2][]string), new([2][]string)
	}
	for i := 0; i < *n; i++ {
		for _, w := range workloads {
			for _, s := range [2]int{i % 2, 1 - i%2} {
				fmt.Fprintf(os.Stderr, "benchpairs: pair %d/%d %s %s\n", i+1, *n, w, sides[s])
				line, digest, err := runBench(ctx, bins[s], dirs[s], append([]string{"-workload", w}, benchArgs...))
				if err != nil {
					return fmt.Errorf("pair %d %s %s: %w", i+1, w, sides[s], err)
				}
				name := filepath.Join(*out, fmt.Sprintf("%s-%02d-%s.json", w, i+1, sides[s]))
				if err := os.WriteFile(name, []byte(line+"\n"), 0o644); err != nil {
					return err
				}
				lines[w][s] = append(lines[w][s], line)
				digests[w][s] = append(digests[w][s], digest)
			}
		}
	}

	fmt.Fprintf(stdout, "%d alternating pairs, parent %s against the working tree; runs kept in %s\n", *n, *parent, *out)
	differ := false
	for _, w := range workloads {
		rows, err := compare(sp.EndToEnd, lines[w][0], lines[w][1])
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		writeRows(stdout, w, rows)
		same := 0
		for i, d := range digests[w][0] {
			if d == digests[w][1][i] {
				same++
			}
		}
		fmt.Fprintf(stdout, "%s bench.digest identical in %d/%d pairs\n", w, same, *n)
		differ = differ || same != *n
	}
	if differ {
		return errors.New("a bench.digest differs between the parent and the change")
	}
	return nil
}

// buildFlags keep the checkout's path and version-control stamp out of a
// build, so equal sources in two checkouts build equal bytes.
var buildFlags = []string{"-trimpath", "-buildvcs=false"}

// goBin is the go command: $GO, as the Makefile passes it, or go.
func goBin() string {
	if g := os.Getenv("GO"); g != "" {
		return g
	}
	return "go"
}

// command runs name with args in dir, its output on stderr.
func command(dir, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return nil
}

// runBench runs one benchmark process and returns its last line, the JSON
// result, and the verdict digest it printed.
func runBench(ctx context.Context, bin, dir string, args []string) (line, digest string, err error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return "", "", fmt.Errorf("%w\n%s", err, raw)
	}
	out := strings.Split(strings.TrimSpace(string(raw)), "\n")
	for _, l := range out {
		if f := strings.Fields(l); len(f) >= 3 && f[1] == "bench.digest" {
			digest = f[2]
		}
	}
	return out[len(out)-1], digest, nil
}

// row is one metric of one workload, judged over the pairs.
type row struct {
	metric             metricDef
	parent, change     float64 // medians
	rel                float64 // change's median over parent's, minus one
	spread             float64 // the parent's interquartile range over its median
	wins, ties, losses int
	worse, unresolved  bool
}

// compare judges every metric of defs that the result lines carry. parent[i]
// and change[i] are the two runs of pair i.
func compare(defs []metricDef, parent, change []string) ([]row, error) {
	if len(parent) != len(change) {
		return nil, fmt.Errorf("%d parent runs against %d change runs", len(parent), len(change))
	}
	ps, err := values(parent)
	if err != nil {
		return nil, err
	}
	cs, err := values(change)
	if err != nil {
		return nil, err
	}
	var rows []row
	for _, d := range defs {
		p, c := ps[d.Name], cs[d.Name]
		if len(p) != len(parent) || len(c) != len(change) {
			continue // not every run reports it
		}
		r := row{metric: d, parent: median(p), change: median(c), spread: spread(p)}
		sign := 1.0 // +1 when a higher value is worse
		if d.Better == "higher" {
			sign = -1
		}
		for i := range p {
			switch diff := sign * (c[i] - p[i]); {
			case diff < 0:
				r.wins++
			case diff > 0:
				r.losses++
			default:
				r.ties++
			}
		}
		switch {
		case r.parent != 0:
			r.rel = r.change/r.parent - 1
		case r.change != 0:
			r.rel = math.Inf(1) * math.Copysign(1, r.change)
		}
		r.worse = sign*r.rel > d.Bound
		r.unresolved = r.spread > d.Bound
		rows = append(rows, r)
	}
	return rows, nil
}

// values parses result lines into each metric's values, in line order.
func values(lines []string) (map[string][]float64, error) {
	out := make(map[string][]float64)
	for i, l := range lines {
		var res struct {
			Metrics map[string]struct{ Value float64 } `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(l), &res); err != nil {
			return nil, fmt.Errorf("run %d: last line is not a result: %w", i+1, err)
		}
		for name, m := range res.Metrics {
			out[name] = append(out[name], m.Value)
		}
	}
	return out, nil
}

// quartile returns the k'th quartile (k = 1, 2, 3) of xs, Python's
// statistics.quantiles(xs, n=4) exclusive method, as the benchmark's own
// spread computes it. xs holds at least two values.
func quartile(xs []float64, k int) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	pos := float64(k) * float64(n+1) / 4
	j := min(max(int(pos), 1), n-1)
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

func median(xs []float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	return quartile(xs, 2)
}

// spread is the interquartile range of xs over their median, 0 for fewer
// than two values or a zero median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := quartile(xs, 2)
	if med == 0 {
		return 0
	}
	return math.Abs((quartile(xs, 3) - quartile(xs, 1)) / med)
}

// writeRows prints one workload's rows as a table.
func writeRows(w io.Writer, workload string, rows []row) {
	fmt.Fprintf(w, "%-13s %-17s %12s %12s %8s %8s %11s  %s\n",
		"workload", "metric", "parent", "change", "change", "spread", "won/tie/lost", "verdict")
	for _, r := range rows {
		verdict := "ok"
		switch {
		case r.worse:
			verdict = fmt.Sprintf("WORSE: past the %.0f %% bound", 100*r.metric.Bound)
		case r.unresolved:
			verdict = fmt.Sprintf("unresolved: parent spread past the %.0f %% bound", 100*r.metric.Bound)
		}
		fmt.Fprintf(w, "%-13s %-17s %12s %12s %+7.1f%% %7.1f%% %11s  %s\n", workload, r.metric.Name,
			strconv.FormatFloat(r.parent, 'g', 5, 64), strconv.FormatFloat(r.change, 'g', 5, 64),
			100*r.rel, 100*r.spread, fmt.Sprintf("%d/%d/%d", r.wins, r.ties, r.losses), verdict)
	}
}
