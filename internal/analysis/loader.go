package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// A Loader parses and type-checks packages from source. Import paths
// under Prefix load from the directory tree at the loader's root; every
// other path (the standard library) goes through the go/importer source
// importer. Files are chosen as the go command chooses them (go/build:
// build constraints honoured, _test.go files skipped — every analyzer
// covers non-test code only), so one loader serves cmd/simlint, statefp
// and the analysistest fixture harness alike, with no build cache and
// no go command involved.
type Loader struct {
	Fset *token.FileSet
	// Prefix is the import path of the tree's root: the module path
	// for a module, "" for a testdata/src fixture tree.
	Prefix string

	root      string
	goVersion string
	std       types.Importer
	pkgs      map[string]*Package
}

// NewLoader returns a loader for the tree at root whose packages have
// import paths under prefix. With prefix "" every import path whose
// directory exists under root is local, which is how fixtures import
// their siblings.
func NewLoader(root, prefix string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:   fset,
		Prefix: prefix,
		root:   root,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*Package{},
	}
}

// ModuleLoader returns a loader for the module rooted at root, taking
// its import-path prefix from go.mod's module line and its language
// version from the go line, as the go command would.
func ModuleLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("%w (the directory must be a module root)", err)
	}
	l := NewLoader(root, "")
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			l.Prefix = strings.TrimSpace(rest)
		} else if rest, ok := strings.CutPrefix(line, "go "); ok {
			l.goVersion = "go" + strings.TrimSpace(rest)
		}
	}
	if l.Prefix == "" {
		return nil, fmt.Errorf("no module line in %s", filepath.Join(root, "go.mod"))
	}
	return l, nil
}

// Local reports whether path names a package of the loaded tree: it
// lies under Prefix and its directory exists under the root.
func (l *Loader) Local(path string) bool {
	_, ok := l.dir(path)
	return ok
}

func (l *Loader) dir(path string) (string, bool) {
	rel := path
	if l.Prefix != "" {
		if path != l.Prefix && !strings.HasPrefix(path, l.Prefix+"/") {
			return "", false
		}
		rel = strings.TrimPrefix(path[len(l.Prefix):], "/")
	}
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	fi, err := os.Stat(dir)
	return dir, err == nil && fi.IsDir()
}

// Import implements types.Importer: local paths load from source
// through the loader, everything else through the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if !l.Local(path) {
		return l.std.Import(path)
	}
	pkg, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Pkg, nil
}

// Load parses and type-checks the local package path, caching it (and
// every local package it imports) for later calls.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := l.dir(path)
	if !ok {
		return nil, fmt.Errorf("import %q: not a package directory under %s", path, l.root)
	}
	bp, err := build.ImportDir(dir, 0)
	if err == nil && len(bp.GoFiles) == 0 {
		err = &build.NoGoError{Dir: dir} // test files only
	}
	if err != nil {
		return nil, fmt.Errorf("import %q: %w", path, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l, GoVersion: l.goVersion}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %q: %w", path, err)
	}
	pkg := &Package{Fset: l.Fset, Files: files, Pkg: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadAll loads every package of the tree in directory order. It skips
// testdata, vendor, hidden and underscore-prefixed directories, nested
// modules (a directory with its own go.mod), and directories with no
// buildable non-test Go file.
func (l *Loader) LoadAll() ([]*Package, error) {
	var out []*Package
	err := filepath.WalkDir(l.root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != l.root {
			name := d.Name()
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, err := filepath.Rel(l.root, p)
		if err != nil {
			return err
		}
		path := l.Prefix
		if rel != "." {
			path = strings.TrimPrefix(l.Prefix+"/"+filepath.ToSlash(rel), "/")
		}
		pkg, err := l.Load(path)
		var noGo *build.NoGoError
		switch {
		case errors.As(err, &noGo):
			return nil
		case err != nil:
			return err
		}
		out = append(out, pkg)
		return nil
	})
	return out, err
}
