package doclint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// keep is one allowlist entry of the reachability census: a declaration no
// shipped path reaches, kept because the named test needs it.
type keep struct {
	decl string // "<package dir>.<Name>" or "<package dir>.<Type>.<Method>"
	test string // the Test…/Fuzz… function that needs it
}

// census is the reachability census's allowlist: the test harness and test
// hooks of non-test files. Whatever an entry reaches is reached too, so an
// entry names only the declaration a test calls.
var census = []keep{
	// Corpora and references only tests run.
	{"internal/data.RouteBench", "TestRouteBenchDeterministic"},
	{"internal/trace.ReplayNormalize", "TestReplayNormalize"},
	{"internal/schedule.Cost", "TestCostAndAccuracyModels"},
	{"internal/schedule.Accuracy", "TestCostAndAccuracyModels"},
	{"internal/verify.CorrectQuery", "TestCorrectQueryNumeric"},

	// The SQL oracle's entry points and kernel (oracle_test.go).
	{"internal/sqldb.ExecVec", "TestDifferentialCorpus"},
	{"internal/sqldb.Query", "TestDifferentialCorpus"},
	{"internal/sqldb.Result.Scalar", "TestDifferentialSmallTableSubqueries"},

	// The documented-surface gate's helpers.
	{"internal/doclint.RepoRoot", "TestRepoRootFindsGoMod"},
	{"internal/doclint.Doc", "TestDoclintDataJourney"},
	{"internal/doclint.CLIDoc", "TestDoclintFlags"},
	{"internal/doclint.MissingFlags", "TestDoclintFlags"},
	{"internal/doclint.MissingPackageComments", "TestDoclintPackageComments"},

	// Accessors the tests observe state through.
	{"internal/exp.Fig5Result.Point", "TestFig5Shape"},
	{"internal/exp.Table3Result.Row", "TestTable3Shape"},
	{"internal/llm.Cached.Stats", "TestCachedHitsTempZero"},
	{"internal/llm.Ledger.TotalUsage", "TestLedger"},
	{"internal/llm/resilience.Breaker.State", "TestBreakerTripShedProbeRecover"},
	{"internal/llm/sim.Model.Profile", "TestAgentDerailmentRate"},
	{"internal/route.Catalog.Entries", "TestNewCatalogOrderAndLookup"},
	{"internal/route.Catalog.Entry", "TestNewCatalogOrderAndLookup"},
	{"internal/serve.Coordinator.Owner", "TestCoordinatorReplicaRegistration"},
	{"internal/serve.Server.QueueDepth", "TestStreamBackpressureBoundsInFlight"},
	{"internal/shard.Ring.Has", "TestProberEjectAndReadmit"},
	{"internal/sqldb.Database.Version", "TestSchemaMemoChurn"},
	{"internal/store.Store.Dir", "TestRecoveryRaceStress"},
	{"internal/store.Store.Len", "TestCachedPersistIgnoresAnonymousReads"},
	{"internal/store.Store.Stats", "TestStorePutSemantics"},
}

// TestDoclintReachable holds the module to "keep only what ships": every
// top-level function, method and type of a non-test file is reached from a
// shipped root, or is kept by a census entry naming the test that needs it.
//
// The roots are main and init of every main package (cmd/*, examples/*,
// benchmark, internal/gatelint, internal/benchpairs), every init function
// and package-level variable initializer, and the exported API of package
// cedar. A declaration reaches every module declaration its source names. A
// method is also reached when its receiver type is reached and the method
// satisfies an interface, of the module or of the standard library, that
// the type implements, so String, ServeHTTP and MarshalJSON need no entry.
func TestDoclintReachable(t *testing.T) {
	if raceEnabled {
		t.Skip("the census type-checks the module and the standard library from source; it has no concurrency for -race to check")
	}
	start := time.Now()
	root, err := RepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	m, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}

	shipped := m.reach(nil)
	var kept []types.Object
	for _, k := range census {
		if !m.tests[k.test] {
			t.Errorf("census entry %s: names %s, which no _test.go file of the module declares", k.decl, k.test)
		}
		switch obj := m.decls[k.decl]; {
		case obj == nil:
			t.Errorf("census entry %s: no such declaration", k.decl)
		case shipped[obj]:
			t.Errorf("census entry %s (for %s) is stale: a shipped path reaches it", k.decl, k.test)
		default:
			kept = append(kept, obj)
		}
	}
	reached := m.reach(kept)

	var unreached []string
	for name, obj := range m.decls {
		if reached[obj] {
			continue
		}
		switch obj.(type) {
		case *types.Func, *types.TypeName:
			unreached = append(unreached, name)
		}
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d declarations no shipped path reaches; delete them, or add a census entry naming the test that needs each:\n  %s",
			len(unreached), strings.Join(unreached, "\n  "))
	}
	t.Logf("census: %d declarations, %d reached from the roots, %d census entries, %v",
		len(m.decls), len(shipped), len(census), time.Since(start).Round(time.Millisecond))
}

// module is the type-checked non-test code of the module.
type module struct {
	path  string // module path, from go.mod
	pkgs  []*modPkg
	decls map[string]types.Object // census name → top-level declaration
	tests map[string]bool         // the Test… and Fuzz… functions of every _test.go file

	uses       map[*ast.Ident]types.Object // every package's types.Info.Uses
	body       map[types.Object]ast.Node   // the source a declaration's edges are read from
	ifs        []*types.Interface          // every non-empty interface, module and standard library
	roots      []types.Object              // the exported API of package cedar
	rootBodies []ast.Node                  // main, init and package-level variable specs
}

type modPkg struct {
	rel   string // directory relative to the module root, slash-separated
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loadModule parses and type-checks every non-test package under root.
// Standard-library imports are type-checked from source.
func loadModule(root string) (*module, error) {
	modFile, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	first, _, _ := strings.Cut(string(modFile), "\n")
	m := &module{
		path:  strings.TrimSpace(strings.TrimPrefix(first, "module")),
		decls: map[string]types.Object{},
		tests: map[string]bool{},
		uses:  map[*ast.Ident]types.Object{},
		body:  map[types.Object]ast.Node{},
	}
	fset := token.NewFileSet()
	dirs := map[string]*build.Package{} // packages with non-test files, by import path
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return fs.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		imp := m.path
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		bp, err := build.Default.ImportDir(path, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		for _, name := range slices.Concat(bp.TestGoFiles, bp.XTestGoFiles) {
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil &&
					(strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
					m.tests[fd.Name.Name] = true
				}
			}
		}
		if len(bp.GoFiles) > 0 {
			dirs[imp] = bp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	std := importer.ForCompiler(fset, "source", nil)
	loaded := map[string]*modPkg{}
	var load func(imp string) (*modPkg, error)
	conf := types.Config{Importer: importerFunc(func(imp string) (*types.Package, error) {
		if _, ok := dirs[imp]; !ok {
			return std.Import(imp)
		}
		p, err := load(imp)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	})}
	load = func(imp string) (*modPkg, error) {
		if p, ok := loaded[imp]; ok {
			if p == nil {
				return nil, fmt.Errorf("import cycle through %s", imp)
			}
			return p, nil
		}
		loaded[imp] = nil
		bp := dirs[imp]
		p := &modPkg{rel: strings.TrimPrefix(strings.TrimPrefix(imp, m.path), "/")}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		p.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		var err error
		if p.pkg, err = conf.Check(imp, fset, p.files, p.info); err != nil {
			return nil, err
		}
		for id, obj := range p.info.Uses {
			m.uses[id] = obj
		}
		loaded[imp] = p
		m.pkgs = append(m.pkgs, p)
		return p, nil
	}
	imps := make([]string, 0, len(dirs))
	for imp := range dirs {
		imps = append(imps, imp)
	}
	sort.Strings(imps)
	for _, imp := range imps {
		if _, err := load(imp); err != nil {
			return nil, fmt.Errorf("%s: %w", imp, err)
		}
	}
	for _, p := range m.pkgs {
		m.index(p)
	}
	m.collectInterfaces()
	return m, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// index records p's top-level declarations, the source each one's edges
// are read from, and p's roots.
func (m *module) index(p *modPkg) {
	name := func(parts ...string) string {
		return p.rel + "." + strings.Join(parts, ".")
	}
	isMain := p.pkg.Name() == "main"
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "init" || isMain && d.Name.Name == "main") {
					m.rootBodies = append(m.rootBodies, d)
					continue
				}
				obj := p.info.Defs[d.Name]
				if d.Recv == nil {
					m.decls[name(d.Name.Name)] = obj
				} else {
					m.decls[name(recvName(d.Recv.List[0].Type), d.Name.Name)] = obj
				}
				m.body[obj] = d
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						obj := p.info.Defs[s.Name]
						m.decls[name(s.Name.Name)] = obj
						m.body[obj] = s
					case *ast.ValueSpec:
						if d.Tok == token.VAR {
							m.rootBodies = append(m.rootBodies, s)
							continue
						}
						for _, id := range s.Names {
							if obj := p.info.Defs[id]; obj != nil {
								m.decls[name(id.Name)] = obj
								m.body[obj] = s
							}
						}
					}
				}
			}
		}
	}
	if p.rel == "cedar" {
		for _, n := range p.pkg.Scope().Names() {
			obj := p.pkg.Scope().Lookup(n)
			if !obj.Exported() {
				continue
			}
			m.roots = append(m.roots, obj)
			if tn, ok := obj.(*types.TypeName); ok {
				ms := types.NewMethodSet(types.NewPointer(tn.Type()))
				for i := 0; i < ms.Len(); i++ {
					if fn := ms.At(i).Obj(); fn.Exported() && fn.Pkg() == p.pkg {
						m.roots = append(m.roots, fn)
					}
				}
			}
		}
	}
}

// recvName is the receiver's type name, without pointer or type parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprint(e)
		}
	}
}

// collectInterfaces gathers every non-empty interface a module type could
// be used through: the named interfaces of every package the module
// imports, directly or not, and every interface type the module's source
// writes.
func (m *module) collectInterfaces() {
	seenPkg := map[*types.Package]bool{}
	seenIf := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || !it.IsMethodSet() || seenIf[it] {
			return
		}
		seenIf[it] = true
		m.ifs = append(m.ifs, it)
	}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seenPkg[pkg] {
			return
		}
		seenPkg[pkg] = true
		for _, n := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
					continue
				}
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range m.pkgs {
		walk(p.pkg)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
}

// reach returns every declaration reached from the roots and from extra.
func (m *module) reach(extra []types.Object) map[types.Object]bool {
	reached := map[types.Object]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin() // an instantiated generic function or method
		}
		if m.body[obj] != nil && !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	visit := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if used := m.uses[id]; used != nil {
					mark(used)
				}
			}
			return true
		})
	}
	for _, n := range m.rootBodies {
		visit(n)
	}
	for _, obj := range m.roots {
		mark(obj)
	}
	for _, obj := range extra {
		mark(obj)
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		visit(m.body[obj])
		if tn, ok := obj.(*types.TypeName); ok {
			for _, fn := range m.implementing(tn) {
				mark(fn)
			}
		}
	}
	return reached
}

// implementing returns the methods through which tn satisfies an
// interface it, or a pointer to it, implements.
func (m *module) implementing(tn *types.TypeName) []types.Object {
	named, ok := tn.Type().(*types.Named)
	if !ok || types.IsInterface(named) || named.TypeParams().Len() > 0 {
		return nil
	}
	ptr := types.NewPointer(named)
	ms := types.NewMethodSet(ptr)
	if ms.Len() == 0 {
		return nil
	}
	var out []types.Object
	for _, it := range m.ifs {
		if !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			sel := ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name())
			if sel != nil {
				out = append(out, sel.Obj())
			}
		}
	}
	return out
}
