package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file computes per-field access-context facts: for every struct
// field access in a package's non-test code, which mutexes are held and
// whether the access is a read or a write. The lockfield analyzer is a
// query over these facts.
//
// Lock tracking is a forward walk over each function body: x.mu.Lock()
// adds the mutex *field* (identified by its types.Var, shared across
// instances) to the held set, x.mu.Unlock() removes it, and a deferred
// Unlock keeps the mutex held to the end of the function. Branches are
// handled path-sensitively enough for the repository's idioms: an
// early-return (or continue/break) branch that unlocks does not poison
// the fall-through path, and the post-state of a conditional is the
// intersection of its live exits. The walk is interprocedural through
// the call graph: an unexported function whose every in-package call
// site holds mutex M is analyzed with M in its entry set, so helpers
// called under a lock inherit the critical section (the classic
// "paired-transition helper" shape).
//
// Two escape hatches keep constructors quiet: accesses through a local
// variable that the function itself freshly allocated (composite
// literal or new) are marked fresh — an object not yet published needs
// no lock — and function literals are walked with an empty held set,
// since a closure may run on another goroutine.

// lockset is the set of mutex fields currently held.
type lockset map[*types.Var]bool

func (l lockset) clone() lockset {
	c := make(lockset, len(l))
	for k := range l {
		c[k] = true
	}
	return c
}

func (l lockset) intersect(o lockset) lockset {
	c := lockset{}
	for k := range l {
		if o[k] {
			c[k] = true
		}
	}
	return c
}

func (l lockset) equal(o lockset) bool {
	if len(l) != len(o) {
		return false
	}
	for k := range l {
		if !o[k] {
			return false
		}
	}
	return true
}

// A fieldAccess is one read or write of a struct field.
type fieldAccess struct {
	field *types.Var
	pos   token.Pos
	write bool
	locks lockset // mutex fields held at the access
	node  *funcNode
	fresh bool // base object is freshly allocated in this function
}

// accessFacts is the package-wide fact base.
type accessFacts struct {
	accesses []*fieldAccess
	// mutexFields maps each sync.Mutex/sync.RWMutex struct field to its
	// declaring struct type.
	mutexFields map[*types.Var]*types.TypeName
	// fieldOwner maps every other field of a package-declared struct to
	// its declaring struct type.
	fieldOwner map[*types.Var]*types.TypeName
}

// collectAccessFacts computes the fact base for the pass's non-test
// files over the given call graph.
func collectAccessFacts(pass *Pass, cg *callGraph) *accessFacts {
	facts := &accessFacts{
		mutexFields: map[*types.Var]*types.TypeName{},
		fieldOwner:  map[*types.Var]*types.TypeName{},
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			fv := st.Field(i)
			if isMutexType(fv.Type()) {
				facts.mutexFields[fv] = tn
			} else {
				facts.fieldOwner[fv] = tn
			}
		}
	}

	// Entry-lockset fixpoint: unexported functions with known callers
	// start at the full mutex universe and shrink to the intersection of
	// their call sites' held sets; exported functions (callable from
	// outside the package) and uncalled functions start and stay empty.
	universe := lockset{}
	for fv := range facts.mutexFields {
		universe[fv] = true
	}
	entry := map[*funcNode]lockset{}
	for _, node := range cg.order {
		if !node.obj.Exported() && len(node.callers) > 0 {
			entry[node] = universe.clone()
		} else {
			entry[node] = lockset{}
		}
	}
	for iter := 0; iter <= len(cg.order); iter++ {
		w := &lockWalker{pass: pass, facts: facts, cg: cg, siteLocks: map[*ast.CallExpr]lockset{}}
		for _, node := range cg.order {
			if node.decl.Body != nil {
				w.node = node
				w.fresh = freshLocals(pass, node.decl)
				w.stmts(node.decl.Body.List, entry[node].clone())
			}
		}
		stable := true
		for _, node := range cg.order {
			if node.obj.Exported() || len(node.callers) == 0 {
				continue
			}
			next := universe.clone()
			for _, site := range node.callers {
				held, ok := w.siteLocks[site.call]
				if !ok {
					held = lockset{}
				}
				next = next.intersect(held)
			}
			if !next.equal(entry[node]) {
				entry[node] = next
				stable = false
			}
		}
		if stable {
			break
		}
	}

	// Final pass with converged entry sets records the accesses.
	w := &lockWalker{pass: pass, facts: facts, cg: cg, record: true, siteLocks: map[*ast.CallExpr]lockset{}}
	for _, node := range cg.order {
		if node.decl.Body != nil {
			w.node = node
			w.fresh = freshLocals(pass, node.decl)
			w.stmts(node.decl.Body.List, entry[node].clone())
		}
	}
	return facts
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// freshLocals returns the local variables fd assigns from a fresh
// allocation (composite literal, &composite, or new): objects the
// function created itself and may initialize without holding locks.
func freshLocals(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != len(asg.Rhs) {
			return true
		}
		for i := range asg.Lhs {
			id, ok := asg.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if isFreshAlloc(asg.Rhs[i]) {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					fresh[obj] = true
				}
			}
		}
		return true
	})
	return fresh
}

func isFreshAlloc(e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			_, ok := ast.Unparen(v.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// lockWalker walks statements tracking the held lockset.
type lockWalker struct {
	pass      *Pass
	facts     *accessFacts
	cg        *callGraph
	node      *funcNode
	record    bool
	fresh     map[types.Object]bool
	siteLocks map[*ast.CallExpr]lockset
}

func (w *lockWalker) stmts(list []ast.Stmt, held lockset) lockset {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

func (w *lockWalker) stmt(s ast.Stmt, held lockset) lockset {
	switch v := s.(type) {
	case nil:
		return held
	case *ast.ExprStmt:
		if call, ok := v.X.(*ast.CallExpr); ok {
			if mu, locks := w.lockCall(call); mu != nil {
				if locks {
					held = held.clone()
					held[mu] = true
				} else {
					held = held.clone()
					delete(held, mu)
				}
				return held
			}
		}
		w.expr(v.X, held, false)
	case *ast.DeferStmt:
		if mu, locks := w.lockCall(v.Call); mu != nil && !locks {
			// defer x.mu.Unlock(): the mutex stays held to function end.
			return held
		}
		w.expr(v.Call, held, false)
	case *ast.AssignStmt:
		for _, rhs := range v.Rhs {
			w.expr(rhs, held, false)
		}
		for _, lhs := range v.Lhs {
			w.expr(lhs, held, true)
		}
	case *ast.IncDecStmt:
		w.expr(v.X, held, true)
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						w.expr(val, held, false)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, res := range v.Results {
			w.expr(res, held, false)
		}
	case *ast.SendStmt:
		w.expr(v.Chan, held, false)
		w.expr(v.Value, held, false)
	case *ast.GoStmt:
		w.expr(v.Call, held, false)
	case *ast.LabeledStmt:
		return w.stmt(v.Stmt, held)
	case *ast.BlockStmt:
		return w.stmts(v.List, held)
	case *ast.IfStmt:
		held = w.stmt(v.Init, held)
		w.expr(v.Cond, held, false)
		bodyExit := w.stmts(v.Body.List, held.clone())
		bodyTerm := terminates(v.Body.List)
		var elseExit lockset
		elseTerm := false
		switch e := v.Else.(type) {
		case nil:
			elseExit = held
		case *ast.BlockStmt:
			elseExit = w.stmts(e.List, held.clone())
			elseTerm = terminates(e.List)
		case *ast.IfStmt:
			elseExit = w.stmt(e, held.clone())
			elseTerm = stmtTerminates(e)
		}
		switch {
		case bodyTerm && elseTerm:
			return held
		case bodyTerm:
			return elseExit
		case elseTerm:
			return bodyExit
		default:
			return bodyExit.intersect(elseExit)
		}
	case *ast.ForStmt:
		held = w.stmt(v.Init, held)
		if v.Cond != nil {
			w.expr(v.Cond, held, false)
		}
		bodyExit := w.stmts(v.Body.List, held.clone())
		w.stmt(v.Post, bodyExit)
		return held.intersect(bodyExit)
	case *ast.RangeStmt:
		w.expr(v.X, held, false)
		bodyExit := w.stmts(v.Body.List, held.clone())
		return held.intersect(bodyExit)
	case *ast.SwitchStmt:
		held = w.stmt(v.Init, held)
		if v.Tag != nil {
			w.expr(v.Tag, held, false)
		}
		return w.clauses(v.Body, held)
	case *ast.TypeSwitchStmt:
		held = w.stmt(v.Init, held)
		w.stmt(v.Assign, held)
		return w.clauses(v.Body, held)
	case *ast.SelectStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				h := held.clone()
				if cc.Comm != nil {
					h = w.stmt(cc.Comm, h)
				}
				w.stmts(cc.Body, h)
			}
		}
		return held
	}
	return held
}

// clauses walks a switch body: every clause starts from the same entry
// set; the post-state is the intersection of the live clause exits.
func (w *lockWalker) clauses(body *ast.BlockStmt, held lockset) lockset {
	exit := held
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			w.expr(e, held, false)
		}
		clauseExit := w.stmts(cc.Body, held.clone())
		if !terminates(cc.Body) {
			exit = exit.intersect(clauseExit)
		}
	}
	return exit
}

// lockCall classifies a call as mu.Lock/RLock/TryLock (locks=true) or
// mu.Unlock/RUnlock (locks=false) on a struct mutex field, returning
// the mutex field object (nil for anything else).
func (w *lockWalker) lockCall(call *ast.CallExpr) (mu *types.Var, locks bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock":
		locks = true
	case "Unlock", "RUnlock":
		locks = false
	default:
		return nil, false
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	fv, ok := w.pass.TypesInfo.ObjectOf(inner.Sel).(*types.Var)
	if !ok || !fv.IsField() {
		return nil, false
	}
	if _, isMutex := w.facts.mutexFields[fv]; !isMutex && !isMutexType(fv.Type()) {
		return nil, false
	}
	return fv, locks
}

func (w *lockWalker) expr(e ast.Expr, held lockset, write bool) {
	switch v := e.(type) {
	case nil:
		return
	case *ast.Ident, *ast.BasicLit:
		return
	case *ast.ParenExpr:
		w.expr(v.X, held, write)
	case *ast.SelectorExpr:
		if fv, ok := w.pass.TypesInfo.ObjectOf(v.Sel).(*types.Var); ok && fv.IsField() {
			if _, isMutex := w.facts.mutexFields[fv]; !isMutex && !isMutexType(fv.Type()) {
				w.recordAccess(fv, v.Sel.Pos(), write, held, v)
			}
		}
		w.expr(v.X, held, false)
	case *ast.StarExpr:
		w.expr(v.X, held, write)
	case *ast.IndexExpr:
		// A store through an index writes the container element, which
		// for facts purposes is a write of the container field.
		w.expr(v.X, held, write)
		w.expr(v.Index, held, false)
	case *ast.SliceExpr:
		w.expr(v.X, held, false)
		w.expr(v.Low, held, false)
		w.expr(v.High, held, false)
		w.expr(v.Max, held, false)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			// Taking a field's address lets the holder mutate it.
			w.expr(v.X, held, true)
			return
		}
		w.expr(v.X, held, false)
	case *ast.BinaryExpr:
		w.expr(v.X, held, false)
		w.expr(v.Y, held, false)
	case *ast.KeyValueExpr:
		w.expr(v.Value, held, false)
	case *ast.CompositeLit:
		for _, elt := range v.Elts {
			w.expr(elt, held, false)
		}
	case *ast.TypeAssertExpr:
		w.expr(v.X, held, false)
	case *ast.CallExpr:
		if w.cg != nil {
			if callee := w.cg.resolve(w.pass, v); callee != nil {
				if prev, ok := w.siteLocks[v]; !ok {
					w.siteLocks[v] = held.clone()
				} else {
					w.siteLocks[v] = prev.intersect(held)
				}
			}
		}
		w.expr(v.Fun, held, false)
		for _, arg := range v.Args {
			w.expr(arg, held, false)
		}
	case *ast.FuncLit:
		// A closure may run on another goroutine; analyze its body with
		// nothing held.
		if v.Body != nil {
			w.stmts(v.Body.List, lockset{})
		}
	}
}

func (w *lockWalker) recordAccess(fv *types.Var, pos token.Pos, write bool, held lockset, sel *ast.SelectorExpr) {
	if !w.record {
		return
	}
	fresh := false
	if id := baseIdent(sel.X); id != nil {
		if obj := w.pass.TypesInfo.ObjectOf(id); obj != nil && w.fresh[obj] {
			fresh = true
		}
	}
	w.facts.accesses = append(w.facts.accesses, &fieldAccess{
		field: fv,
		pos:   pos,
		write: write,
		locks: held.clone(),
		node:  w.node,
		fresh: fresh,
	})
}

// terminates reports whether a statement list always transfers control
// out of the enclosing block (return, branch, panic, or an if whose
// branches all do).
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	return stmtTerminates(list[len(list)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch v := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := v.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(v.List)
	case *ast.LabeledStmt:
		return stmtTerminates(v.Stmt)
	case *ast.IfStmt:
		if v.Else == nil {
			return false
		}
		return terminates(v.Body.List) && stmtTerminates(v.Else)
	}
	return false
}
