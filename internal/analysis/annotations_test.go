package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

func loadSrc(t *testing.T, path, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}
}

// A reason-less //simlint:ok is not a suppression — it is a diagnostic
// of its own, and the underlying finding still fires.
func TestMalformedAnnotationReported(t *testing.T) {
	pkg := loadSrc(t, "internal/sim/x", `package x

//simlint:ok globalrand
var leaked = map[int]int{}
`)
	diags := Run(pkg, []*Analyzer{GlobalRand})
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics (malformed annotation + finding), got %d: %v", len(diags), diags)
	}
	var haveAnn, haveVar bool
	for _, d := range diags {
		if d.Analyzer == "annotation" && strings.Contains(d.Message, "needs an analyzer name and a reason") {
			haveAnn = true
		}
		if d.Analyzer == "globalrand" && strings.Contains(d.Message, "leaked") {
			haveVar = true
		}
	}
	if !haveAnn || !haveVar {
		t.Fatalf("missing expected diagnostics: %v", diags)
	}
}

// A well-formed annotation suppresses only its own analyzer, on the
// line below when it stands on a line of its own and on its own line
// only when it trails code.
func TestSuppressionScope(t *testing.T) {
	pkg := loadSrc(t, "internal/sim/x", `package x

//simlint:ok globalrand immutable lookup table, written by nobody
var table = [2]int{1, 2}

var unexcused = map[int]int{}

var trailed = [1]int{3} //simlint:ok globalrand immutable, written by nobody
var below = [1]int{4}
`)
	diags := Run(pkg, []*Analyzer{GlobalRand})
	if len(diags) != 2 || !strings.Contains(diags[0].Message, "unexcused") || !strings.Contains(diags[1].Message, "below") {
		t.Fatalf("want exactly the unexcused and below findings, got %v", diags)
	}
	// The same annotation must not silence a different analyzer.
	if got := Run(pkg, []*Analyzer{MapOrder}); len(got) != 0 {
		t.Fatalf("maporder should have nothing to say here, got %v", got)
	}
}

// An annotation after code on its line is trailing wherever that code
// ends, a closing brace included; one on a line of its own is not.
func TestAnnotationTrailing(t *testing.T) {
	pkg := loadSrc(t, "x", `package x

func f(m map[int]int) int {
	s := 0
	//simlint:ok maporder on its own line
	for k := range m { //simlint:ok maporder after an opening brace
		s += k
	} //simlint:ok maporder after a closing brace
	return s
}
`)
	anns := collectAnnotations(pkg.Fset, pkg.Files)
	var got []bool
	for _, ann := range anns.ok {
		got = append(got, ann.trailing)
	}
	if want := []bool{false, true, true}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("trailing = %v, want %v", got, want)
	}
}
