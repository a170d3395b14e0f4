package analysis

import (
	"go/ast"
	"go/types"
)

// CheckpointCov verifies checkpoint field coverage: for every type that
// implements the snapshot protocol (methods named SaveState and
// LoadState), each struct field must be
//
//   - touched by SaveState or LoadState (directly, or through another
//     method of the same type that they call — helpers and nested
//     component SaveState fan-out both count), or
//   - exempted with `//simlint:ok checkpointcov <reason>` (typically
//     configuration fixed at construction, checked for geometry
//     mismatch instead of being restored).
//
// This is the "field added, checkpoint forgot" guard: before it, a new
// field silently diverged the restored image and only the PR-5 golden
// differential — a whole-simulation byte comparison, run in CI, long
// after the edit — could notice, without saying which field. The
// analyzer moves that failure to vet time and names the field.
var CheckpointCov = &Analyzer{
	Name: "checkpointcov",
	Doc:  "verifies every field of a SaveState/LoadState type is serialized or exempted",
	Run:  runCheckpointCov,
}

func runCheckpointCov(pass *Pass) error {
	// Group the package's methods by receiver type, and index the
	// package-level free functions: shared serialization helpers
	// (writeSparse-style) are free functions the transitive search must
	// follow too.
	methods := map[*types.TypeName]map[string]*ast.FuncDecl{}
	freeFuncs := map[string]*ast.FuncDecl{}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Recv == nil || len(fd.Recv.List) == 0 {
				freeFuncs[fd.Name.Name] = fd
				continue
			}
			named := receiverType(pass.TypesInfo, fd.Recv.List[0])
			if named == nil {
				continue
			}
			tn := named.Obj()
			if methods[tn] == nil {
				methods[tn] = map[string]*ast.FuncDecl{}
			}
			methods[tn][fd.Name.Name] = fd
		}
	}

	for tn, ms := range methods {
		if ms["SaveState"] == nil || ms["LoadState"] == nil {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		covered := fieldsTouched(pass, tn, ms, freeFuncs)
		for i := 0; i < st.NumFields(); i++ {
			fv := st.Field(i)
			if covered[fv] {
				continue
			}
			// Reported at the field itself, the position statefp tests
			// against the same //simlint:ok rule (analysis.Exempted).
			pass.Reportf(fv.Pos(),
				"field %s.%s is not covered by SaveState/LoadState: serialize it, or annotate //simlint:ok checkpointcov <reason>",
				tn.Name(), fv.Name())
		}
	}
	return nil
}

// covWork is one unit of the transitive coverage search: a function
// body plus the object that stands for the receiver inside it (the
// method receiver, or the parameter a free function was handed the
// receiver through).
type covWork struct {
	fd   *ast.FuncDecl
	recv types.Object
}

// fieldsTouched returns the struct fields of tn selected anywhere in
// SaveState, LoadState, or any function reachable from them through
// static calls: methods of the same type, and same-package free
// functions the receiver is passed to (the shared writeSparse-style
// helper — following only methods used to blanket-cover those calls,
// marking fields the helper never serializes as covered). Passing the
// whole receiver to an unresolvable call (`w.Struct(c)` — the
// checkpoint Writer's reflective whole-struct encoder, binary.Write)
// still covers every field at once.
func fieldsTouched(pass *Pass, tn *types.TypeName, ms, freeFuncs map[string]*ast.FuncDecl) map[*types.Var]bool {
	covered := map[*types.Var]bool{}
	seen := map[*ast.FuncDecl]map[types.Object]bool{}
	var work []covWork
	for _, name := range []string{"SaveState", "LoadState"} {
		if fd := ms[name]; fd != nil {
			work = append(work, covWork{fd, receiverObj(pass, fd)})
		}
	}
	coverAll := func() {
		st := tn.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			covered[st.Field(i)] = true
		}
	}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		if it.fd == nil || it.fd.Body == nil {
			continue
		}
		if seen[it.fd] == nil {
			seen[it.fd] = map[types.Object]bool{}
		}
		if seen[it.fd][it.recv] {
			continue
		}
		seen[it.fd][it.recv] = true
		recv := it.recv
		ast.Inspect(it.fd.Body, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.SelectorExpr:
				if s := pass.TypesInfo.Selections[e]; s != nil {
					if fv, ok := s.Obj().(*types.Var); ok && fv.IsField() {
						covered[fv] = true
					}
					// Calls to methods of the same type extend the search.
					if fn, ok := s.Obj().(*types.Func); ok {
						if next := ms[fn.Name()]; next != nil && sameReceiver(pass, next, tn) {
							work = append(work, covWork{next, receiverObj(pass, next)})
						}
					}
				}
			case *ast.CallExpr:
				// A same-package free function handed the receiver is
				// followed precisely: the receiver's role transfers to the
				// corresponding parameter. Everything else that takes the
				// receiver wholesale (w.Struct(c), binary.Write(buf, order,
				// c), &c, *c) serializes reflectively and covers all fields.
				next := freeCallee(pass, freeFuncs, e)
				for i, arg := range e.Args {
					if !exprIsObj(pass, arg, recv) {
						continue
					}
					if next != nil {
						if p := declParam(pass, next, i); p != nil {
							work = append(work, covWork{next, p})
							continue
						}
					}
					coverAll()
				}
			}
			return true
		})
	}
	return covered
}

// freeCallee resolves a call to a same-package free-function
// declaration, nil for methods, builtins, externals, and dynamic calls.
func freeCallee(pass *Pass, freeFuncs map[string]*ast.FuncDecl, call *ast.CallExpr) *ast.FuncDecl {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() != pass.Pkg {
		return nil
	}
	return freeFuncs[fn.Name()]
}

// receiverObj returns the object of fd's receiver variable, nil for an
// anonymous receiver.
func receiverObj(pass *Pass, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.ObjectOf(fd.Recv.List[0].Names[0])
}

// exprIsObj reports whether e is obj, possibly behind & or *.
func exprIsObj(pass *Pass, e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	switch v := e.(type) {
	case *ast.Ident:
		return pass.TypesInfo.ObjectOf(v) == obj
	case *ast.UnaryExpr:
		return exprIsObj(pass, v.X, obj)
	case *ast.StarExpr:
		return exprIsObj(pass, v.X, obj)
	}
	return false
}

func sameReceiver(pass *Pass, fd *ast.FuncDecl, tn *types.TypeName) bool {
	named := receiverType(pass.TypesInfo, fd.Recv.List[0])
	return named != nil && named.Obj() == tn
}
