package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out files (slash-separated paths relative to dir).
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// The module walk loads what the go command would build: a nested
// module, build-constrained-out files and test files stay out, and a
// directory of test files alone is no package.
func TestLoadAllSkipsWhatGoBuildSkips(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod":              "module tmpmod\n\ngo 1.24\n",
		"a/a.go":              "package a\n\nimport \"tmpmod/b\"\n\nvar X = b.Y\n",
		"a/ignored.go":        "//go:build ignore\n\npackage a\n\nvar X = 1\n",
		"a/a_test.go":         "package a\n\nthis is not Go\n",
		"b/b.go":              "package b\n\nconst Y = 1\n",
		"onlytests/x_test.go": "package onlytests\n",
		"nested/go.mod":       "module nested\n",
		"nested/bad/bad.go":   "package bad\n\nvar = broken\n",
		"testdata/t.go":       "package t\n\nvar = broken\n",
	})
	l, err := ModuleLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Pkg.Path())
	}
	if got := strings.Join(paths, " "); got != "tmpmod/a tmpmod/b" {
		t.Fatalf("loaded %q, want \"tmpmod/a tmpmod/b\"", got)
	}
	if n := len(pkgs[0].Files); n != 1 {
		t.Fatalf("tmpmod/a has %d files, want 1 (a.go)", n)
	}
}

// go.mod's go line sets the language version the packages are checked
// at, as it does for the go command.
func TestModuleLoaderUsesGoLine(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.21\n",
		"p/p.go": "package p\n\nfunc F() {\n\tfor range 3 {\n\t}\n}\n",
	})
	l, err := ModuleLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load("tmpmod/p"); err == nil || !strings.Contains(err.Error(), "go1.22") {
		t.Fatalf("range over an int under go 1.21: err = %v, want a go1.22 requirement", err)
	}
}

// With an empty prefix a fixture tree resolves its sibling packages by
// directory and everything else from the standard library.
func TestFixtureRootResolvesSiblings(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"internal/obs/obs.go": "package obs\n\nfunc Now() int64 { return 0 }\n",
		"internal/sim/x/x.go": "package x\n\nimport (\n\t\"strings\"\n\n\t\"internal/obs\"\n)\n\nvar S = strings.Repeat(\"a\", int(obs.Now()))\n",
	})
	l := NewLoader(dir, "")
	pkg, err := l.Load("internal/sim/x")
	if err != nil {
		t.Fatal(err)
	}
	var imports []string
	for _, imp := range pkg.Pkg.Imports() {
		imports = append(imports, imp.Path())
	}
	if got := strings.Join(imports, " "); got != "strings internal/obs" {
		t.Fatalf("imports %q, want \"strings internal/obs\"", got)
	}
	if !l.Local("internal/obs") || l.Local("strings") {
		t.Fatal("Local: want the sibling fixture local and the standard library not")
	}
}
