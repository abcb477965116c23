package gompi

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoCapabilityAssertions holds the two contracts to their lists:
// core.Device is the whole device interface and nbc.Transport the whole
// schedule contract, so neither the MPI layer nor the collectives
// engine discovers a capability at run time. It fails on any type
// assertion or type-switch case, in the non-test files of this package
// and internal/nbc, whose type is an interface: an interface literal,
// an interface declared in either package, or the predeclared error and
// any. Assertions to concrete types (err.(*Error), v.(topo)) stay legal.
func TestNoCapabilityAssertions(t *testing.T) {
	pkgs := []struct{ name, dir string }{{"gompi", "."}, {"nbc", filepath.Join("internal", "nbc")}}
	files := map[string][]*ast.File{}
	fset := token.NewFileSet()
	ifaces := map[string]map[string]bool{} // package name -> interface type names
	for _, p := range pkgs {
		pkg := p.name
		paths, err := filepath.Glob(filepath.Join(p.dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		ifaces[pkg] = map[string]bool{}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files[pkg] = append(files[pkg], f)
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					if _, ok := ts.Type.(*ast.InterfaceType); ok {
						ifaces[pkg][ts.Name.Name] = true
					}
				}
				return true
			})
		}
	}
	isInterface := func(pkg string, e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.InterfaceType:
			return true
		case *ast.Ident:
			return ifaces[pkg][e.Name] || e.Name == "error" || e.Name == "any"
		case *ast.SelectorExpr:
			x, ok := e.X.(*ast.Ident)
			return ok && ifaces[x.Name][e.Sel.Name]
		}
		return false
	}
	sites := 0
	for _, p := range pkgs {
		pkg := p.name
		for _, f := range files[pkg] {
			ast.Inspect(f, func(n ast.Node) bool {
				var types []ast.Expr
				switch n := n.(type) {
				case *ast.TypeAssertExpr:
					if n.Type != nil {
						types = []ast.Expr{n.Type}
					}
				case *ast.TypeSwitchStmt:
					for _, c := range n.Body.List {
						types = append(types, c.(*ast.CaseClause).List...)
					}
				}
				for _, typ := range types {
					if isInterface(pkg, typ) {
						sites++
						t.Errorf("%s: type assertion to an interface: a capability belongs in the contract", fset.Position(typ.Pos()))
					}
				}
				return true
			})
		}
	}
	if sites > 0 {
		t.Logf("%d capability assertion site(s)", sites)
	}
}
