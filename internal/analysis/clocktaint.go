package analysis

import (
	"go/ast"
	"go/types"
)

// ClockTaint upgrades the wall-clock half of globalrand from call-site
// matching to taint tracking. globalrand flags the time.Now() call
// itself; this analyzer follows the value — through helper returns,
// struct fields, arithmetic, and conversions (the interprocedural taint
// engine in dataflow.go) — and reports only where it reaches a place
// that makes the simulation nondeterministic:
//
//   - a seed argument of a math/rand generator constructor
//     (rand.NewSource(someField) where someField once held
//     time.Now().UnixNano() — the classic laundering);
//   - a store into a field of a checkpointed type (SaveState/LoadState
//     implementor): wall time frozen into a warm image diverges every
//     restore;
//   - an if/for condition or switch tag: control flow steered by the
//     host's clock is a different execution every run;
//   - a map index: a wall-clock-derived cache or memo key aliases or
//     misses differently per process.
//
// Sources are time.Now/Since/Until plus the sanctioned boundary —
// obs.Now, obs.Since, and obs methods returning time.Time/Duration
// (RunObs.Finish). The boundary functions are *allowed* reads (that is
// the point of internal/obs); what stays forbidden is their value
// steering simulation behavior, which is exactly the sink set above.
// internal/obs itself is out of scope: it is the audited clock edge,
// and every raw read there already carries a //simlint:ok globalrand.
var ClockTaint = &Analyzer{
	Name: "clocktaint",
	Doc:  "taint-tracks wall-clock reads into rand seeds, checkpointed state, control flow, and map keys",
	Run:  runClockTaint,
}

func runClockTaint(pass *Pass) error {
	if !observedPackagePath(pass.Pkg.Path()) {
		return nil
	}
	cg := buildCallGraph(pass)
	eng := newTaintEngine(pass, cg, func(call *ast.CallExpr) *taintSource {
		return clockSource(pass, call)
	})
	ckptFields := checkpointedFields(pass)

	for _, node := range cg.order {
		if node.decl.Body == nil {
			continue
		}
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				// Seeding a generator from the clock.
				if fn := externalCallee(pass, v); fn != nil && fn.Pkg() != nil {
					switch fn.Pkg().Path() {
					case "math/rand", "math/rand/v2":
						for _, arg := range v.Args {
							if src := eng.ExprTaint(arg); src != nil {
								pass.Reportf(arg.Pos(),
									"%s.%s is seeded with a wall-clock-derived value (from %s at %s); seeds must come from the run configuration (determinism contract)",
									fn.Pkg().Name(), fn.Name(), src.desc, pass.Fset.Position(src.pos))
							}
						}
					}
				}
			case *ast.AssignStmt:
				// Wall time frozen into checkpointed state.
				if len(v.Lhs) == len(v.Rhs) {
					for i, lhs := range v.Lhs {
						if fv := storedField(pass, lhs); fv != nil && ckptFields[fv] {
							if src := eng.ExprTaint(v.Rhs[i]); src != nil {
								pass.Reportf(v.Rhs[i].Pos(),
									"wall-clock-derived value (from %s at %s) is stored into checkpointed field %s; a restored image would replay the save-time clock",
									src.desc, pass.Fset.Position(src.pos), fv.Name())
							}
						}
					}
				}
			case *ast.IfStmt:
				reportClockCond(pass, eng, v.Cond)
			case *ast.ForStmt:
				reportClockCond(pass, eng, v.Cond)
			case *ast.SwitchStmt:
				reportClockCond(pass, eng, v.Tag)
			case *ast.IndexExpr:
				// Map keys: a clock-derived memo/cache key aliases per run.
				if t := pass.TypesInfo.TypeOf(v.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						if src := eng.ExprTaint(v.Index); src != nil {
							pass.Reportf(v.Index.Pos(),
								"map key derives from the wall clock (from %s at %s); clock-derived memo keys alias differently every process (determinism contract)",
								src.desc, pass.Fset.Position(src.pos))
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

func reportClockCond(pass *Pass, eng *taintEngine, cond ast.Expr) {
	if cond == nil {
		return
	}
	if src := eng.ExprTaint(cond); src != nil {
		pass.Reportf(cond.Pos(),
			"control flow depends on a wall-clock-derived value (from %s at %s); the host's clock must not steer the simulation (determinism contract)",
			src.desc, pass.Fset.Position(src.pos))
	}
}

// clockSource classifies a call as a wall-clock read: the time package's
// Now/Since/Until, the obs boundary's Now/Since, or an obs method
// returning time.Time/time.Duration.
func clockSource(pass *Pass, call *ast.CallExpr) *taintSource {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if sig.Recv() == nil {
		switch {
		case fn.Pkg().Path() == "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				return &taintSource{pos: sel.Pos(), desc: "time." + fn.Name()}
			}
		case obsPackagePath(fn.Pkg().Path()):
			switch fn.Name() {
			case "Now", "Since":
				return &taintSource{pos: sel.Pos(), desc: "obs." + fn.Name()}
			}
		}
		return nil
	}
	if obsPackagePath(fn.Pkg().Path()) && signatureReturnsTime(sig) {
		return &taintSource{pos: sel.Pos(), desc: "obs method " + fn.Name()}
	}
	return nil
}

// signatureReturnsTime reports whether any result is time.Time or
// time.Duration.
func signatureReturnsTime(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		named, ok := res.At(i).Type().(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "time" &&
			(obj.Name() == "Time" || obj.Name() == "Duration") {
			return true
		}
	}
	return false
}

// storedField resolves an assignment target to the struct field it
// stores into (directly or through index/star), nil otherwise.
func storedField(pass *Pass, lhs ast.Expr) *types.Var {
	switch v := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if fv, ok := pass.TypesInfo.ObjectOf(v.Sel).(*types.Var); ok && fv.IsField() {
			return fv
		}
	case *ast.IndexExpr:
		return storedField(pass, v.X)
	case *ast.StarExpr:
		return storedField(pass, v.X)
	}
	return nil
}

// checkpointedFields collects the struct fields of every in-package type
// implementing the snapshot protocol (a SaveState or LoadState method).
func checkpointedFields(pass *Pass) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		if !hasSnapshotMethod(named) {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			out[st.Field(i)] = true
		}
	}
	return out
}

func hasSnapshotMethod(named *types.Named) bool {
	for i := 0; i < named.NumMethods(); i++ {
		switch named.Method(i).Name() {
		case "SaveState", "LoadState":
			return true
		}
	}
	return false
}
