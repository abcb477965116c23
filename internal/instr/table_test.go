package instr

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite DESIGN.md's cost table from Table")

// rowByName maps each row's Name to its index.
func rowByName() map[string]Cost {
	m := make(map[string]Cost, NumCosts)
	for i, r := range Table {
		m[r.Name] = Cost(i)
	}
	return m
}

// TestCostTable: every row is named after its constant, has a source,
// and charges an MPI category or Transport; a column is NA or a
// positive count.
func TestCostTable(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "costs.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string // the row constants, in declaration order
	for _, d := range f.Decls {
		if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
			if typ, ok := gd.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); ok && typ.Name == "Cost" {
				for _, s := range gd.Specs[:len(gd.Specs)-1] { // all but NumCosts
					names = append(names, s.(*ast.ValueSpec).Names[0].Name)
				}
			}
		}
	}
	if len(names) != int(NumCosts) {
		t.Fatalf("costs.go declares %d rows, Table has %d", len(names), NumCosts)
	}
	for i, r := range Table {
		if r.Name != names[i] {
			t.Errorf("row %d is named %q, its constant %s", i, r.Name, names[i])
		}
		if r.Source == "" {
			t.Errorf("row %s has no source", r.Name)
		}
		if r.Cat > Transport {
			t.Errorf("row %s charges %v", r.Name, r.Cat)
		}
		for _, v := range []int64{r.CH3, r.CH4} {
			if v != NA && v <= 0 {
				t.Errorf("row %s has a column of %d", r.Name, v)
			}
		}
	}
}

// chargeRule is one charging package: where its non-test files are, and
// which column its cost helper reads (nil for none).
var chargeRules = []struct {
	dir    string
	column func(Row) int64
}{
	{"../ch4", func(r Row) int64 { return r.CH4 }},
	{"../original", func(r Row) int64 { return r.CH3 }},
	{"../core", nil},
	{"../..", nil},
	{".", nil},
}

// TestCostsLiveInTheTable keeps Table the only home of the model's
// numbers: the devices and core define no cost constants and pass no
// integer literal to a charge, each device charges only rows its column
// prices (not NA), and a row read with Value has equal columns.
func TestCostsLiveInTheTable(t *testing.T) {
	rows := rowByName()
	for _, rule := range chargeRules {
		files, err := filepath.Glob(filepath.Join(rule.dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		device := rule.dir != "../.." && rule.dir != "."
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GenDecl:
					if device && n.Tok == token.CONST {
						for _, s := range n.Specs {
							for _, id := range s.(*ast.ValueSpec).Names {
								if lc := strings.ToLower(id.Name); strings.HasPrefix(lc, "cost") || strings.HasSuffix(lc, "cost") {
									t.Errorf("%s: constant %s: costs belong in instr.Table", path, id.Name)
								}
							}
						}
					}
				case *ast.CallExpr:
					name := calleeName(n.Fun)
					if device && (name == "charge" || name == "Charge") {
						for _, arg := range n.Args {
							ast.Inspect(arg, func(a ast.Node) bool {
								if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.INT {
									t.Errorf("%s: %s charges the literal %s: price it in instr.Table", path, name, lit.Value)
								}
								return true
							})
						}
					}
					if row, ok := costArg(n, rows); ok {
						switch {
						case name == "cost" && rule.column != nil && rule.column(Table[row]) == NA:
							t.Errorf("%s: charges %s, which this device's column prices NA", path, Table[row].Name)
						case name == "Value" && Table[row].CH3 != Table[row].CH4:
							t.Errorf("%s: %s.Value() on a row whose columns differ", path, Table[row].Name)
						}
					}
				}
				return true
			})
		}
	}
}

// calleeName is the name a call invokes: f, x.f or x.y.f.
func calleeName(fun ast.Expr) string {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// costArg recognises cost(instr.X) and instr.X.Value() (or their
// unqualified spellings inside instr) and returns X's row.
func costArg(call *ast.CallExpr, rows map[string]Cost) (Cost, bool) {
	var e ast.Expr
	switch {
	case calleeName(call.Fun) == "cost" && len(call.Args) == 1:
		e = call.Args[0]
	case calleeName(call.Fun) == "Value":
		e = call.Fun.(*ast.SelectorExpr).X
	default:
		return 0, false
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		e = sel.Sel
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return 0, false
	}
	row, ok := rows[id.Name]
	return row, ok
}

// renderCostTable is DESIGN.md's cost-model table: Table, one line per
// row.
func renderCostTable() string {
	col := func(v int64) string {
		if v == NA {
			return "n/a"
		}
		return fmt.Sprint(v)
	}
	var b strings.Builder
	b.WriteString("| Row | Table 1 category | CH3 | CH4 | Source |\n|---|---|---:|---:|---|\n")
	for _, r := range Table {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", r.Name, r.Cat, col(r.CH3), col(r.CH4), r.Source)
	}
	return b.String()
}

// Markers around the generated table in DESIGN.md.
const (
	tableBegin = "<!-- cost table: rendered from instr.Table; regenerate with go test ./internal/instr -run DesignCostTable -update -->\n"
	tableEnd   = "<!-- end cost table -->"
)

// TestDesignCostTable: DESIGN.md's cost table is Table's rendering.
func TestDesignCostTable(t *testing.T) {
	const path = "../../DESIGN.md"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(doc)
	i, j := strings.Index(s, tableBegin), strings.Index(s, tableEnd)
	if i < 0 || j < i {
		t.Fatalf("%s has no cost table between %q and %q", path, tableBegin, tableEnd)
	}
	got, want := s[i+len(tableBegin):j], renderCostTable()
	if got == want {
		return
	}
	if *update {
		if err := os.WriteFile(path, []byte(s[:i+len(tableBegin)]+want+s[j:]), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Errorf("%s's cost table is not instr.Table's rendering; regenerate it with -update. Want:\n%s", path, want)
}
