package verify

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestNewStackRejectsBadMiddleware is the knob check: a negative count or
// duration, or a fault rate outside [0, 1], fails construction with an error
// naming the field, instead of silently meaning something else (a Retrier
// reads MaxAttempts < 1 as its default of 3).
func TestNewStackRejectsBadMiddleware(t *testing.T) {
	for _, tc := range []struct {
		field string
		mw    Middleware
	}{
		{"FaultRate", Middleware{FaultRate: -0.1}},
		{"FaultRate", Middleware{FaultRate: 1.5}},
		{"FaultRate", Middleware{FaultRate: math.NaN()}},
		{"Retries", Middleware{Retries: -1, Timeout: 30 * time.Second}},
		{"Timeout", Middleware{Timeout: -time.Second}},
		{"HedgeAfter", Middleware{HedgeAfter: -time.Second}},
		{"BreakerThreshold", Middleware{BreakerThreshold: -3}},
		{"ThrottleScale", Middleware{ThrottleScale: -1e-3}},
		{"ThrottleScale", Middleware{ThrottleScale: math.NaN()}},
	} {
		s, err := NewStack(1, tc.mw)
		if err == nil {
			t.Errorf("%+v: built a stack, want an error naming %s", tc.mw, tc.field)
			continue
		}
		if s != nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: got (%v, %q), want a nil stack and an error naming %s", tc.mw, s, err, tc.field)
		}
	}
	for _, mw := range []Middleware{
		{},
		{FaultRate: 1, Retries: 2, Timeout: 30 * time.Second, HedgeAfter: 5 * time.Second, BreakerThreshold: 3, Cache: true, ThrottleScale: 1e-3},
	} {
		s, err := NewStack(1, mw)
		if err != nil {
			t.Errorf("%+v: %v", mw, err)
			continue
		}
		if len(s.Methods) != 4 {
			t.Errorf("%+v: %d methods, want 4", mw, len(s.Methods))
		}
		if wantCaches := map[bool]int{false: 0, true: 3}[mw.Cache]; len(s.Caches) != wantCaches {
			t.Errorf("%+v: %d caches, want %d", mw, len(s.Caches), wantCaches)
		}
	}
}

// TestOneStackConstructionSite guards NewStack as the only assembler: across
// every non-test Go file of the module, the benchmark included, each
// middleware layer and each method constructor appears at exactly one call
// or literal, the one in NewStack. A second assembler, however faithful a
// copy, fails here; tests that need a deliberately broken client build it in
// a _test.go file.
func TestOneStackConstructionSite(t *testing.T) {
	want := []string{
		"resilience.Faulty{", "resilience.Hedged{", "resilience.Retrier{", "resilience.Breaker{",
		"llm.Metered{", "llm.Throttled{", "llm.NewCached(", "NewOneShot(", "NewAgent(",
	}
	sites := make(map[string][]string)
	fset := token.NewFileSet()
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// qualified names a type or function as pkg.Name, the package being
		// the file's own when the name is unqualified.
		qualified := func(e ast.Expr) string {
			switch e := e.(type) {
			case *ast.Ident:
				return f.Name.Name + "." + e.Name
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok {
					return x.Name + "." + e.Sel.Name
				}
			}
			return ""
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var key string
			switch n := n.(type) {
			case *ast.CompositeLit:
				if q := qualified(n.Type); q != "" {
					key = q + "{"
				}
			case *ast.CallExpr:
				if q := qualified(n.Fun); q != "" {
					key = q + "("
					if _, fn, _ := strings.Cut(key, "."); fn == "NewOneShot(" || fn == "NewAgent(" {
						key = fn // qualified or not
					}
				}
			}
			if key != "" {
				sites[key] = append(sites[key], fset.Position(n.Pos()).String())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	home := filepath.Join("internal", "verify", "stack.go")
	for _, k := range want {
		if got := sites[k]; len(got) != 1 || !strings.HasPrefix(got[0], filepath.Join(root, home)+":") {
			t.Errorf("%s constructed at %d non-test sites %v, want 1, in %s", k, len(got), got, home)
		}
	}
}
