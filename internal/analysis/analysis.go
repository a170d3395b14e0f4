// Package analysis is the project's static-analysis suite (simlint):
// analyzers that enforce, at lint time, the contracts every result
// in this repository rests on — bit-determinism of measurements
// (serial == parallel), checkpoint field coverage (restore == cold),
// and memo-key completeness (no cache aliasing between distinct
// configurations).
//
// The analyzers run from cmd/simlint (go run ./cmd/simlint), which
// loads the module through Loader, so CI enforces the contracts on
// every change. Each analyzer documents the historical bug class that
// motivated it; the suite exists because
// all three contract breaks to date (the StreamI randomized
// map-iteration eviction, the DebugSharing package-global data race,
// the negative-budget uint64-wrap hang) were mechanically detectable
// and found late.
//
// The framework below is a deliberately small, dependency-free subset
// of golang.org/x/tools/go/analysis: an Analyzer runs over one
// type-checked package and reports position-tagged diagnostics. It
// exists so the suite builds with the standard library only (the
// module vendors nothing); the shapes mirror x/tools so a future
// migration is mechanical.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one simlint check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, command-line flags,
	// and //simlint:ok annotations.
	Name string
	// Doc is the analyzer's help text; the first line is a summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single type-checked package
// and a sink for diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's syntax trees, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds type information for Files.
	TypesInfo *types.Info
	// Report receives diagnostics; the driver applies //simlint:ok
	// suppression downstream, so analyzers report unconditionally.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by the driver
}

// A Package is the driver-side unit of work: one parsed and
// type-checked package, as Loader returns it.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Run applies the analyzers to pkg and returns the surviving
// diagnostics in file/line order. Suppression is applied centrally:
// a diagnostic is dropped when a well-formed
// `//simlint:ok <analyzer> <reason>` annotation covers its line (see
// annotations.go), so individual analyzers never re-implement the
// annotation grammar. Malformed annotations (missing the mandatory
// reason) are themselves reported, attributed to the annotation line.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	anns := collectAnnotations(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
		}
		pass.Report = func(d Diagnostic) {
			d.Analyzer = a.Name
			if anns.suppresses(pkg.Fset, d.Pos, a.Name) {
				return
			}
			out = append(out, d)
		}
		if err := a.Run(pass); err != nil {
			out = append(out, Diagnostic{
				Pos:      token.NoPos,
				Message:  fmt.Sprintf("internal error: %v", err),
				Analyzer: a.Name,
			})
		}
	}
	out = append(out, anns.malformed...)
	out = append(out, anns.staleSuppressions(analyzers)...)
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(out[i].Pos), pkg.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return out
}

// simPackagePath reports whether path belongs to the simulator proper —
// the packages whose behavior feeds measured results and therefore
// falls under the determinism contract. Matching is by path fragment so
// the same rule covers the real module ("cloudsuite/internal/sim/...")
// and test fixtures ("internal/sim/streami").
func simPackagePath(path string) bool {
	return pathHasFragment(path,
		"internal/sim",
		"internal/trace",
		"internal/workloads",
		"internal/core",
		"internal/oskern",
		"internal/addrspace",
		"internal/rng",
		// internal/obs is the audited wall-clock boundary: it is inside
		// the analyzer's scope precisely so every clock read there must
		// carry a reviewed //simlint:ok suppression.
		"internal/obs",
	)
}

// obsPackagePath reports whether path is the observability layer.
func obsPackagePath(path string) bool {
	return pathHasFragment(path, "internal/obs")
}

// observedPackagePath is the simulator proper minus the observer: the
// packages whose state obs must never touch and whose behaviour a wall
// clock must never steer.
func observedPackagePath(path string) bool {
	return simPackagePath(path) && !obsPackagePath(path)
}

// singleGoroutinePackagePath reports whether path holds simulation
// state, which lives on the one simulation goroutine: the simulator
// proper minus internal/trace (its buffer pool), internal/core (the
// Runner) and internal/obs, which are concurrent by design.
func singleGoroutinePackagePath(path string) bool {
	return pathHasFragment(path, "internal/sim", "internal/workloads", "internal/oskern", "internal/addrspace", "internal/rng")
}

// pathHasFragment reports whether path is, contains or ends in one of
// the slash-separated fragments.
func pathHasFragment(path string, frags ...string) bool {
	for _, frag := range frags {
		if path == frag || strings.Contains(path, frag+"/") ||
			strings.HasSuffix(path, "/"+frag) || strings.Contains(path, "/"+frag+"/") {
			return true
		}
	}
	return false
}

// cmdPackagePath reports whether path is a command package (a cmd/
// directory anywhere in the path). The CLIs are outside the measured
// path but still feed bytes into published results, so the determinism
// analyzers cover them too; their legitimate wall-clock and randomness
// uses (progress display, listen addresses) carry audited suppressions.
func cmdPackagePath(path string) bool {
	return path == "cmd" || strings.HasPrefix(path, "cmd/") ||
		strings.Contains(path, "/cmd/") || strings.HasSuffix(path, "/cmd")
}

// determinismScope is the scope of the determinism analyzers (maporder,
// globalrand): the simulator proper plus the command packages.
func determinismScope(path string) bool {
	return simPackagePath(path) || cmdPackagePath(path)
}

// isTestFile reports whether the file at pos is a _test.go file; the
// determinism analyzers cover non-test code only (tests may freely use
// wall clocks, global randomness, and unordered iteration).
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// receiverType resolves a method receiver expression to its named type,
// unwrapping a pointer; nil when the expression is not a plain (possibly
// pointed-to) named receiver.
func receiverType(info *types.Info, recv *ast.Field) *types.Named {
	if recv == nil {
		return nil
	}
	t := info.TypeOf(recv.Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
