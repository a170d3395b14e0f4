// Package analysistest runs simlint analyzers over fixture packages and
// checks their diagnostics against `// want` expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library
// only.
//
// Fixtures live under testdata/src/<import/path>/*.go; the import path
// is the directory's path relative to testdata/src, so fixtures can
// place themselves inside the path roots an analyzer guards (e.g.
// testdata/src/internal/sim/streami). A line expecting diagnostics
// carries one `// want` comment with one or more quoted or backquoted
// regular expressions, each of which must match a distinct diagnostic
// reported on that line:
//
//	for k := range m { // want `map iteration order`
//
// Every unmatched expectation and every unexpected diagnostic is a test
// failure, so a fixture demonstrably fails without its analyzer.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cloudsuite/internal/analysis"
)

// Run loads each fixture package under testdata/src and applies the
// analyzer, comparing diagnostics to // want expectations. Fixtures load
// through analysis.Loader with an empty import-path prefix, so an
// import resolves first against sibling fixture packages under the same
// testdata/src root (fixtures can model cross-package contracts like
// the obs boundary), then against the standard library, type-checked
// from GOROOT source.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	l := analysis.NewLoader(filepath.Join(testdata, "src"), "")
	for _, path := range pkgPaths {
		t.Run(path, func(t *testing.T) {
			t.Helper()
			pkg, err := l.Load(path)
			if err != nil {
				t.Fatalf("loading fixture %s: %v", path, err)
			}
			diags := analysis.Run(pkg, []*analysis.Analyzer{a})
			check(t, pkg.Fset, pkg.Files, diags)
		})
	}
}

// expectation is one // want regexp at a file:line.
type expectation struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := map[string][]*expectation{} // "file:line" -> expectations
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, raw := range splitPatterns(m[1]) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, raw, err)
					}
					wants[key] = append(wants[key], &expectation{re: re, raw: raw})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s [%s]", key, d.Message, d.Analyzer)
		}
	}
	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", k, w.raw)
			}
		}
	}
}

// splitPatterns parses the payload of a want comment: a sequence of
// double-quoted or backquoted regexps.
func splitPatterns(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				out = append(out, s[1:])
				return out
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		case '"':
			// Walk to the closing quote honoring escapes, then Unquote.
			i := 1
			for i < len(s) && (s[i] != '"' || s[i-1] == '\\') {
				i++
			}
			if i >= len(s) {
				out = append(out, s[1:])
				return out
			}
			unq, err := strconv.Unquote(s[:i+1])
			if err != nil {
				unq = s[1:i]
			}
			out = append(out, unq)
			s = strings.TrimSpace(s[i+1:])
		default:
			// Bare token (no spaces).
			sp := strings.IndexByte(s, ' ')
			if sp < 0 {
				out = append(out, s)
				return out
			}
			out = append(out, s[:sp])
			s = strings.TrimSpace(s[sp:])
		}
	}
	return out
}
