// Command benchmark is the repository's one performance benchmark: four
// workloads measured from outside the program, through its public
// constructors and its HTTP API only.
//
//	go run ./benchmark [-workload all] [-seed 17] [-seconds 15] [-trace both] [-quick] [-repeat N]
//
// Each workload is a seeded, frozen list of operations (see gen.go). An
// untraced run (-trace 0) sets the system up, runs the whole list in a
// closed loop, checks a sample of verdicts against a library reference, and
// reports the end-to-end metrics. A traced run (-trace 1) runs the first
// quarter of the list twice — plain, then with the span wrappers of
// adapters.go installed — replays captured inputs through the layers that
// have no interface to wrap, and reports the per-layer metrics. Every metric
// is printed as "workload metric value unit n=<samples>"; the last line of
// a run is one JSON object with the keys correct, attempted, failed and
// metrics, and the exit code is non-zero if any check failed. README.md in
// this directory has the workload and metric tables and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// config is what the command line asks of a run.
type config struct {
	seed      int64
	seconds   float64
	setups    int
	replayMax int
	out       string
}

// guard is how long a run may take before it is cut short: guardFactor
// times what was asked for, and never so little that a -quick run on a slow
// box trips it.
func (c config) guard() time.Duration {
	g := time.Duration(guardFactor * c.seconds * float64(time.Second))
	if g < 20*time.Second {
		g = 20 * time.Second
	}
	return g
}

const (
	defaultSeconds = 15
	// quickDivisor shrinks every operation list for -quick; quickReplay caps
	// its replays.
	quickDivisor = 20
	quickReplay  = 200
	fullReplay   = 2000
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errChecks is returned when a run completed but a check in it failed.
var errChecks = errors.New("a correctness check failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all: lib-corpus, lib-bigtable, serve-wait, tier-cpu")
	seed := fs.Int64("seed", 17, "generator seed; reaches nothing but the generator")
	seconds := fs.Float64("seconds", defaultSeconds, "how long the operation list is sized to take on the seed commit")
	trace := fs.String("trace", "both", "0: end-to-end metrics, untraced; 1: per-layer metrics, traced; both")
	quick := fs.Bool("quick", false, "1/20 of every operation list, one set-up, replays capped at 200 inputs")
	repeat := fs.Int("repeat", 0, "run -trace 0 in N fresh processes at seeds seed..seed+N-1 and print each metric's spread against its bound")
	out := fs.String("out", "benchmark/out", "directory for trace-<workload>.jsonl")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, not %v", *seconds)
	}
	cfg := config{seed: *seed, seconds: *seconds, setups: setupRepeats, replayMax: fullReplay, out: *out}
	if *quick {
		cfg.seconds /= quickDivisor
		cfg.setups, cfg.replayMax = 1, quickReplay
	}
	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else if w := workloadByName(*name); w != nil {
		selected = []*workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", *name)
	}
	var modes []bool // traced?
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return fmt.Errorf("-trace must be 0, 1 or both, not %q", *trace)
	}
	if *repeat > 0 {
		child := []string{"-trace", "0", "-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "-out", *out}
		if *quick {
			child = append(child, "-quick")
		}
		return repeatRuns(stdout, selected, *seed, *repeat, child)
	}
	failed := false
	for _, w := range selected {
		for _, traced := range modes {
			ok, err := runOne(stdout, w, cfg, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			failed = failed || !ok
		}
	}
	if failed {
		return errChecks
	}
	return nil
}

// runOne generates a workload's inputs, runs it in one mode, and prints the
// result. It reports whether every check passed.
func runOne(stdout io.Writer, w *workload, cfg config, traced bool) (bool, error) {
	genStart := time.Now()
	in, err := w.generate(cfg.seed, cfg.seconds)
	if err != nil {
		return false, err
	}
	gen := time.Since(genStart)
	var out *outcome
	if traced {
		out, err = runTraced(w, in, cfg)
	} else {
		out, err = runUntraced(in, cfg)
	}
	if err != nil {
		return false, err
	}
	out.info = append(out.info, metric{"bench.gen_s", gen.Seconds(), "s", 1})
	for _, m := range append(out.metrics, out.info...) {
		fmt.Fprintf(stdout, "%s %s %s %s n=%d\n", w.name, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit, m.n)
	}
	fmt.Fprintf(stdout, "%s bench.digest %016x verdicts n=%d\n", w.name, out.digest, out.attempted)
	for _, n := range out.notes {
		fmt.Fprintf(stdout, "%s NOTE %s\n", w.name, n)
	}
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "%s PROBLEM %s\n", w.name, p)
	}
	line, err := resultLine(out)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(stdout, line)
	return out.failed == 0, nil
}

// resultLine renders the run's last line.
func resultLine(out *outcome) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, make(map[string]value)}
	for _, m := range out.metrics {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	raw, err := json.Marshal(res)
	return string(raw), err
}

// repeatRuns is the steadiness check the benchmark's bounds are held to: n
// untraced runs of each workload, every one a fresh process (this binary
// with the child arguments) at its own seed, then per metric the minimum,
// median and maximum, the interquartile range over the median, and that
// spread over the metric's bound from BENCHMARK.json.
func repeatRuns(stdout io.Writer, selected []*workload, seed int64, n int, child []string) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range selected {
		series := make(map[string][]float64)
		for i := 0; i < n; i++ {
			runSeed := strconv.FormatInt(seed+int64(i), 10)
			cmd := exec.Command(self, append([]string{"-workload", w.name, "-seed", runSeed}, child...)...)
			cmd.Stderr = os.Stderr
			raw, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %s: %w\n%s", w.name, runSeed, err, raw)
			}
			lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
			var res struct {
				Metrics map[string]struct{ Value float64 } `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %s: last line is not a result: %w", w.name, runSeed, err)
			}
			for name, m := range res.Metrics {
				series[name] = append(series[name], m.Value)
			}
		}
		for _, b := range bounds {
			vs := sample(series[b.Name]).sorted()
			sp := spread(vs)
			fmt.Fprintf(stdout, "%s %s min=%.6g median=%.6g max=%.6g spread=%.4f bound=%.2f spread/bound=%.2f n=%d\n",
				w.name, b.Name, vs[0], quantile(vs, 0.5), vs[len(vs)-1], sp, b.Bound, sp/b.Bound, len(vs))
		}
	}
	return nil
}

// bound is an end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name  string  `json:"name"`
	Bound float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("-repeat reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, nil
}
