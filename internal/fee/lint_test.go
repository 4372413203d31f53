package fee

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// floatFeeSites lists the float64 fee and dollar accumulations that are
// allowed, as "file: expression". Each is where a dollar amount is rendered
// or modelled, or is pinned by the benchmark.
var floatFeeSites = map[string]string{
	"benchmark/load.go: rec.dollars": "the benchmark sums the float64 Report.Dollars of its pinned surface",
}

// TestFeesAreIntegers guards fee.Fee as the type of every booked or summed
// fee: across every non-test Go file of the module, the benchmark included,
// no `+=` or `-=` into a field or variable named for a fee or dollars has a
// float64 type, outside floatFeeSites. Float sums depend on the order of
// their additions; Fee sums do not.
func TestFeesAreIntegers(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{} // by import path
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		imp := path.Join("repro", filepath.ToSlash(rel))
		if _, ok := pkgs[imp]; !ok {
			paths = append(paths, imp)
		}
		pkgs[imp] = append(pkgs[imp], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := newModule(pkgs)
	found := map[string]bool{}
	for _, imp := range paths {
		for _, site := range m.floatFeeAdds(fset, imp) {
			rel, _ := filepath.Rel(root, site.Filename)
			key := filepath.ToSlash(rel) + ": " + site.expr
			if _, ok := floatFeeSites[key]; ok {
				found[key] = true
				continue
			}
			t.Errorf("%s: %s is a float64 fee accumulation; book it as a fee.Fee", site.Position, site.expr)
		}
	}
	for key := range floatFeeSites {
		if !found[key] {
			t.Errorf("allowed site %q no longer exists; drop it from floatFeeSites", key)
		}
	}
}

// TestFeesAreIntegersChecker holds the checker itself to what it must and
// must not report.
func TestFeesAreIntegersChecker(t *testing.T) {
	src := `package p

import "repro/internal/fee"

type stats struct {
	Dollars float64
	Fee     fee.Fee
	cost    float64
}

type box struct{ s stats }

func f(xs []stats, d float64, fees map[string]*stats) {
	var st stats
	st.Dollars += d          // want
	st.Fee += fee.Fee(1)
	st.cost += d
	var totalDollars float64
	totalDollars += d        // want
	fee2 := 0.0
	fee2 -= d                // want
	var sum fee.Fee
	sum += st.Fee
	b := &box{}
	b.s.Dollars += d         // want
	b.s.Fee += 2
	for _, x := range xs {
		x.Dollars += 1       // want
	}
	fees["a"].Dollars += 1   // want
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := newModule(map[string][]*ast.File{"repro/p": {f}})
	var got []int
	for _, site := range m.floatFeeAdds(fset, "repro/p") {
		got = append(got, site.Line)
	}
	var want []int
	for i, l := range strings.Split(src, "\n") {
		if strings.HasSuffix(l, "// want") {
			want = append(want, i+1)
		}
	}
	sort.Ints(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("reported lines %v, want %v", got, want)
	}
}

// feeName matches the fields and variables that hold a fee or a dollar
// amount.
var feeName = regexp.MustCompile(`(?i)fee|dollars`)

// module resolves, from syntax alone, the declared types of the
// expressions an accumulation writes to: enough of Go's typing to tell a
// float64 field or variable from a fee.Fee one.
type module struct {
	pkgs  map[string][]*ast.File
	types map[string]map[string]ast.Expr        // import path → type name → type
	funcs map[string]map[string][]*ast.FuncDecl // import path → func or method name
	file  *ast.File                             // the file being checked
	pkg   string                                // its import path
}

func newModule(pkgs map[string][]*ast.File) *module {
	m := &module{pkgs: pkgs, types: map[string]map[string]ast.Expr{}, funcs: map[string]map[string][]*ast.FuncDecl{}}
	for imp, files := range pkgs {
		m.types[imp] = map[string]ast.Expr{}
		m.funcs[imp] = map[string][]*ast.FuncDecl{}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					if d.Tok == token.TYPE {
						for _, s := range d.Specs {
							ts := s.(*ast.TypeSpec)
							m.types[imp][ts.Name.Name] = ts.Type
						}
					}
				case *ast.FuncDecl:
					m.funcs[imp][d.Name.Name] = append(m.funcs[imp][d.Name.Name], d)
				}
			}
		}
	}
	return m
}

// feeSite is one accumulation floatFeeAdds reports.
type feeSite struct {
	token.Position
	expr string
}

// floatFeeAdds reports every += or -= of package imp into a fee-named field
// or variable whose type is float64.
func (m *module) floatFeeAdds(fset *token.FileSet, imp string) []feeSite {
	var out []feeSite
	m.pkg = imp
	for _, f := range m.pkgs[imp] {
		m.file = f
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || (as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN) {
				return true
			}
			lhs := as.Lhs[0]
			name := ""
			switch e := lhs.(type) {
			case *ast.Ident:
				name = e.Name
			case *ast.SelectorExpr:
				name = e.Sel.Name
			}
			if !feeName.MatchString(name) || !m.isFloat(lhs) {
				return true
			}
			out = append(out, feeSite{fset.Position(as.Pos()), exprString(lhs)})
			return true
		})
	}
	return out
}

// isFloat reports whether e's declared type is float64. A field of a
// receiver whose type the syntax does not give is float64 if a field of
// that name in the package is.
func (m *module) isFloat(e ast.Expr) bool {
	if t := m.typeOf(e); t != nil {
		return isFloat64(t)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	for _, t := range m.types[m.pkg] {
		if ft := fieldOf(t, sel.Sel.Name); ft != nil && isFloat64(ft) {
			return true
		}
	}
	return false
}

func isFloat64(t ast.Expr) bool {
	id, ok := t.(*ast.Ident)
	return ok && (id.Name == "float64" || id.Name == "float32")
}

// typeOf returns the type expression e was declared with, or nil.
func (m *module) typeOf(e ast.Expr) ast.Expr {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return m.typeOf(e.X)
	case *ast.StarExpr:
		return m.typeOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.RANGE {
			return nil
		}
		return m.typeOf(e.X)
	case *ast.BasicLit:
		switch e.Kind {
		case token.FLOAT:
			return ast.NewIdent("float64")
		case token.INT:
			return ast.NewIdent("int")
		}
	case *ast.CompositeLit:
		return e.Type
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && (id.Name == "float64" || id.Name == "float32") {
			return id
		}
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			if _, isType := m.named(sel); isType {
				return sel // a conversion to a named type
			}
		}
		return m.result(e, 0)
	case *ast.BinaryExpr:
		if t := m.typeOf(e.X); t != nil {
			return t
		}
		return m.typeOf(e.Y)
	case *ast.IndexExpr:
		switch t := m.under(m.typeOf(e.X)).(type) {
		case *ast.ArrayType:
			return t.Elt
		case *ast.MapType:
			return t.Value
		}
	case *ast.SelectorExpr:
		return fieldOf(m.under(m.typeOf(e.X)), e.Sel.Name)
	case *ast.Ident:
		if e.Obj == nil {
			return nil
		}
		switch d := e.Obj.Decl.(type) {
		case *ast.Field:
			return d.Type
		case *ast.ValueSpec:
			if d.Type != nil {
				return d.Type
			}
			for i, n := range d.Names {
				if n.Name == e.Name && i < len(d.Values) {
					return m.typeOf(d.Values[i])
				}
			}
		case *ast.AssignStmt:
			for i, l := range d.Lhs {
				if id, ok := l.(*ast.Ident); !ok || id.Name != e.Name {
					continue
				}
				if len(d.Rhs) == 1 {
					if r, ok := d.Rhs[0].(*ast.UnaryExpr); ok && r.Op == token.RANGE {
						return m.rangeType(r.X, i)
					}
				}
				if len(d.Rhs) == len(d.Lhs) {
					return m.typeOf(d.Rhs[i])
				}
				if call, ok := d.Rhs[0].(*ast.CallExpr); ok {
					return m.result(call, i)
				}
			}
		}
	}
	return nil
}

// result is the type of the i'th result of a call to a function or method
// of the package being checked, when only one declaration has its name.
func (m *module) result(call *ast.CallExpr, i int) ast.Expr {
	var name string
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		name = fn.Name
	case *ast.SelectorExpr:
		if x, ok := fn.X.(*ast.Ident); ok && m.imported(x.Name) != "" {
			return nil
		}
		name = fn.Sel.Name
	}
	decls := m.funcs[m.pkg][name]
	if len(decls) != 1 || decls[0].Type.Results == nil {
		return nil
	}
	for _, f := range decls[0].Type.Results.List {
		n := max(len(f.Names), 1)
		if i < n {
			return f.Type
		}
		i -= n
	}
	return nil
}

// rangeType is the type of the i'th variable of a range over x.
func (m *module) rangeType(x ast.Expr, i int) ast.Expr {
	switch t := m.under(m.typeOf(x)).(type) {
	case *ast.ArrayType:
		if i == 1 {
			return t.Elt
		}
		return ast.NewIdent("int")
	case *ast.MapType:
		if i == 1 {
			return t.Value
		}
		return t.Key
	}
	return nil
}

// under resolves a type expression through pointers and named types of the
// module to the type literal it stands for.
func (m *module) under(t ast.Expr) ast.Expr {
	for i := 0; i < 8 && t != nil; i++ {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.ParenExpr:
			t = tt.X
		case *ast.Ident, *ast.SelectorExpr:
			named, ok := m.named(tt)
			if !ok {
				return t
			}
			t = named
		default:
			return t
		}
	}
	return t
}

// named looks a type name up: a bare identifier in the package being
// checked, pkg.Name in the module package the file imports as pkg.
func (m *module) named(t ast.Expr) (ast.Expr, bool) {
	switch t := t.(type) {
	case *ast.Ident:
		named, ok := m.types[m.pkg][t.Name]
		return named, ok
	case *ast.SelectorExpr:
		x, ok := t.X.(*ast.Ident)
		if !ok {
			return nil, false
		}
		named, ok := m.types[m.imported(x.Name)][t.Sel.Name]
		return named, ok
	}
	return nil, false
}

// imported returns the path of the package the file being checked imports
// as name, or "".
func (m *module) imported(name string) string {
	for _, spec := range m.file.Imports {
		p, _ := strconv.Unquote(spec.Path.Value)
		local := path.Base(p)
		if spec.Name != nil {
			local = spec.Name.Name
		}
		if local == name {
			return p
		}
	}
	return ""
}

// fieldOf returns the type of field name of struct type t, or nil.
func fieldOf(t ast.Expr, name string) ast.Expr {
	st, ok := t.(*ast.StructType)
	if !ok {
		return nil
	}
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name == name {
				return f.Type
			}
		}
	}
	return nil
}

// exprString renders a field or variable reference.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[…]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return "(" + exprString(e.X) + ")"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(…)"
	}
	return "?"
}
