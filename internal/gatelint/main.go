// Command gatelint guards the Makefile's test gates against selecting
// nothing. `go test -run <regex>` exits 0 when the regex matches no test
// ("[no tests to run]"), and `-fuzz <regex>` only warns, so a gate whose
// tests were renamed or moved keeps passing while checking nothing. gatelint
// reads the Makefile, and for every gate — each `$(GO) test` recipe with a
// quoted -run regex or a -fuzz target — asks `go test -list` which tests the
// regex selects in each of the gate's packages. It fails, naming every
// regex × package pair, when a pair selects none.
//
// Usage (what `make gatelint` runs):
//
//	go run ./internal/gatelint Makefile
package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
)

// gate is one test-selecting recipe of the Makefile.
type gate struct {
	target   string   // the make target the recipe belongs to
	regex    string   // the -run or -fuzz selector, make-unescaped
	packages []string // package patterns, as written
}

var (
	targetLine = regexp.MustCompile(`^([A-Za-z0-9_-]+):`)
	runFlag    = regexp.MustCompile(`-run '([^']+)'`)
	fuzzFlag   = regexp.MustCompile(`-fuzz (\S+)`)
	pkgArg     = regexp.MustCompile(`(^|\s)(\./\S+)`)
)

// parseGates extracts the gates from Makefile text. A recipe line ending in a
// backslash continues on the next line. A `-run NONE` beside a -fuzz flag is
// the fuzz recipe's way of skipping unit tests, not a selector.
func parseGates(makefile string) []gate {
	var (
		gates  []gate
		target string
	)
	sc := bufio.NewScanner(strings.NewReader(makefile))
	for sc.Scan() {
		line := sc.Text()
		if m := targetLine.FindStringSubmatch(line); m != nil {
			target = m[1]
			continue
		}
		for strings.HasSuffix(line, `\`) && sc.Scan() {
			line = strings.TrimSuffix(line, `\`) + " " + strings.TrimSpace(sc.Text())
		}
		if !strings.HasPrefix(line, "\t") || !strings.Contains(line, "$(GO) test") {
			continue
		}
		var regex string
		if m := fuzzFlag.FindStringSubmatch(line); m != nil {
			regex = strings.ReplaceAll(m[1], "$$", "$")
		} else if m := runFlag.FindStringSubmatch(line); m != nil {
			regex = m[1]
		} else {
			continue
		}
		g := gate{target: target, regex: regex}
		for _, m := range pkgArg.FindAllStringSubmatch(line, -1) {
			g.packages = append(g.packages, m[2])
		}
		gates = append(gates, g)
	}
	return gates
}

// emptyPackages parses `go test -list` output — the selected names of one
// package, then its "ok <pkg>" line, package after package — and returns the
// packages that listed no test, fuzz target, benchmark or example. A package
// without test files ("? <pkg> [no test files]") counts as empty too.
func emptyPackages(listOutput string) []string {
	var empty []string
	selected := 0
	for _, line := range strings.Split(listOutput, "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0:
		case len(fields) >= 2 && (fields[0] == "ok" || fields[0] == "?"):
			if selected == 0 {
				empty = append(empty, fields[1])
			}
			selected = 0
		case len(fields) == 1:
			selected++
		}
	}
	return empty
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: gatelint <Makefile>")
		os.Exit(2)
	}
	raw, err := os.ReadFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatelint:", err)
		os.Exit(2)
	}
	gates := parseGates(string(raw))
	if len(gates) == 0 {
		fmt.Fprintln(os.Stderr, "gatelint: no test gates found in", os.Args[1])
		os.Exit(1)
	}
	goBin := os.Getenv("GO")
	if goBin == "" {
		goBin = "go"
	}
	failed := 0
	for _, g := range gates {
		out, err := exec.Command(goBin, append([]string{"test", "-list", g.regex}, g.packages...)...).CombinedOutput()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gatelint: %s: go test -list %q: %v\n%s", g.target, g.regex, err, out)
			os.Exit(1)
		}
		for _, pkg := range emptyPackages(string(out)) {
			fmt.Fprintf(os.Stderr, "gatelint: %s: -run/-fuzz %q selects no tests in %s\n", g.target, g.regex, pkg)
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "gatelint: %d gate × package pair(s) select nothing; fix the regex or drop the package from the gate\n", failed)
		os.Exit(1)
	}
	fmt.Printf("gatelint: %d gates, every regex × package pair selects at least one test\n", len(gates))
}
