package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// GlobalRand flags ambient nondeterminism and package-global mutable
// state in non-test simulator code:
//
//   - calls through math/rand's (or math/rand/v2's) top-level
//     process-global generator (rand.Intn, rand.Float64, rand.Seed,
//     ...). Randomness must flow from a seeded per-run *rand.Rand so a
//     seed maps to exactly one trace; the global generator is both
//     unseeded-by-default and shared across goroutines, so the parallel
//     Runner would interleave draws. Constructors (rand.New,
//     rand.NewSource, rand.NewZipf) are allowed — they are how the
//     seeded per-run generators get built.
//   - time.Now, time.Since, time.Until: wall-clock reads cannot appear
//     in measured paths; simulated time lives in the engine's cycle
//     counters.
//   - new package-level `var` declarations: mutable state must live in
//     the System/engine object so concurrent simulations cannot share
//     it. The historical instance: DebugSharing was a package-level map
//     in internal/sim/cache, raced on by every System under the
//     parallel Runner until PR 5 moved it into the System struct.
//     Genuinely immutable package-level values (a format magic, a
//     lookup table written once) carry //simlint:ok globalrand <reason>.
//   - sync and sync/atomic imports in simulation-state packages
//     (singleGoroutinePackagePath): workload and simulator state is
//     touched only on the simulation goroutine, so a lock or an atomic
//     there guards nothing and implies a second concurrency model.
//   - calls to sync/atomic's package-level functions (atomic.AddInt64,
//     atomic.LoadUint64, ...): they make atomicity a convention that a
//     plain access to the same field silently breaks. The typed
//     wrappers (atomic.Int64 fields, as internal/obs uses) force every
//     access through their methods and stay legal.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "flags process-global randomness, wall-clock reads, package-level mutable state, call-style sync/atomic, and sync imports in simulation-state packages",
	Run:  runGlobalRand,
}

// globalRandAllowed are the math/rand functions that construct seeded
// generators rather than touching the process-global one.
var globalRandAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2 seeded source
	"NewChaCha8": true,
}

func runGlobalRand(pass *Pass) error {
	if !determinismScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		if singleGoroutinePackagePath(pass.Pkg.Path()) {
			for _, imp := range f.Imports {
				if path := strings.Trim(imp.Path.Value, `"`); path == "sync" || path == "sync/atomic" {
					pass.Reportf(imp.Pos(),
						"simulation state lives on the one simulation goroutine; %s guards nothing here (single-goroutine contract)",
						path)
				}
			}
		}
		// Package-level vars.
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok.String() != "var" {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					pass.Reportf(name.Pos(),
						"package-level var %s is shared by every concurrent simulation (the DebugSharing data race); move it into the owning struct or annotate //simlint:ok globalrand <reason>",
						name.Name)
				}
			}
		}
		// Uses of forbidden functions.
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn, (*atomic.Int64).Add) are fine
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				if !globalRandAllowed[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"%s.%s uses the process-global generator; draw from a seeded per-run *rand.Rand instead (determinism contract)",
						fn.Pkg().Name(), fn.Name())
				}
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					pass.Reportf(sel.Pos(),
						"time.%s reads the wall clock; simulated time lives in cycle counters (determinism contract)",
						fn.Name())
				}
			case "sync/atomic":
				pass.Reportf(sel.Pos(),
					"atomic.%s is call-style sync/atomic: a plain access to the same field races it; use a typed field (atomic.Int64, ...) instead",
					fn.Name())
			}
			return true
		})
	}
	return nil
}
