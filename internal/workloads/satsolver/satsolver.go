// Package satsolver models the SAT Solver workload: the constraint-
// solving core of the Cloud9/Klee symbolic-execution service
// (Section 3.2: one Klee instance per core solving queries produced by
// symbolically executing coreutils; no steady state, so the paper
// replays recorded input traces for repeatability).
//
// Each thread runs a real DPLL solver with two-watched-literal unit
// propagation over its own randomly generated 3-SAT formula near the
// satisfiability phase transition. Watch-list traversal issues bursts
// of independent clause loads — the highest memory-level parallelism of
// the scale-out suite (Figure 3) — while decision heuristics and
// conflict handling produce data-dependent branches that resist
// prediction. Instances are fully independent, like the paper's
// worker-queue model with no inter-worker communication.
package satsolver

import (
	"cloudsuite/internal/addrspace"
	"cloudsuite/internal/oskern"
	"cloudsuite/internal/rng"
	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/trace"
	"cloudsuite/internal/workloads"
)

// Config scales the workload.
type Config struct {
	// Vars is the number of boolean variables per instance.
	Vars int
	// ClauseRatio is clauses-per-variable (4.26 is the 3-SAT phase
	// transition where instances are hardest).
	ClauseRatio float64
	// RestartConflicts bounds a run before the solver restarts with new
	// polarity hints (keeps the workload in perpetual motion).
	RestartConflicts int
	// FrameworkInsts is the per-decision symbolic-execution engine
	// overhead (the Klee interpreter around the solver).
	FrameworkInsts int
}

// DefaultConfig returns instances with ~48MB of clause database and
// watch lists per thread.
func DefaultConfig() Config {
	return Config{Vars: 48_000, ClauseRatio: 4.26, RestartConflicts: 3000, FrameworkInsts: 3200}
}

// Solver is the SAT Solver workload instance.
type Solver struct {
	cfg  Config
	kern *oskern.Kernel
	heap *addrspace.Heap
	bank *workloads.CodeBank

	fnDecide  *trace.Func
	fnProp    *trace.Func
	fnClause  *trace.Func
	fnConf    *trace.Func
	fnRestart *trace.Func
	fnMain    *trace.Func
}

// New builds the workload.
func New(cfg Config) *Solver {
	if cfg.Vars == 0 {
		cfg = DefaultConfig()
	}
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	s := &Solver{cfg: cfg, kern: oskern.New(oskern.DefaultConfig()), heap: addrspace.NewUserHeap()}
	s.bank = workloads.NewCodeBank(code, "klee", 64, 650)
	s.fnDecide = code.Func("decide", 380)
	s.fnProp = code.Func("propagate", 900)
	s.fnClause = code.Func("clause_visit", 240)
	s.fnConf = code.Func("backtrack", 520)
	s.fnRestart = code.Func("restart", 260)
	s.fnMain = code.Func("solver_main", 400)
	return s
}

// Start implements workloads.Workload: one independent solver instance
// per thread, as in the paper's one-process-per-core setup.
func (s *Solver) Start(n int, seed int64) []*trace.StepGen {
	gens := make([]*trace.StepGen, n)
	for i := 0; i < n; i++ {
		cfg := workloads.EmitterConfigFor(seed+int64(i)*52711, 0.11)
		gens[i] = trace.NewStepGen(cfg, s.newThread(i, seed+int64(i)))
	}
	return gens
}

// SaveShared serializes the workload's shared mutable state. Instances
// are fully independent; only the kernel and heap cursors move.
func (s *Solver) SaveShared(w *checkpoint.Writer) {
	w.Tag("satsolver.shared")
	s.kern.SaveState(w)
	s.heap.SaveState(w)
}

// LoadShared restores state written by SaveShared.
func (s *Solver) LoadShared(rd *checkpoint.Reader) {
	rd.Expect("satsolver.shared")
	s.kern.LoadState(rd)
	s.heap.LoadState(rd)
}

// instance is one thread's formula and solver state; Go slices hold the
// logic, the addrspace arrays give every structure a simulated address.
type instance struct {
	nVars    int
	clauses  [][3]int32 // literals: var<<1 | sign
	watches  [][]int32  // per literal: clause indices
	assign   []int8     // 0 unassigned, +1 true, -1 false
	level    []int32
	trail    []int32
	trailLim []int

	clauseArr addrspace.Array // simulated clause DB
	watchArr  addrspace.Array // simulated watch-list headers
	watchElts addrspace.Array // simulated watch-list element pool
	assignArr addrspace.Array
	actArr    addrspace.Array
	trailArr  addrspace.Array
}

func (s *Solver) newInstance(r *rng.Rand) *instance {
	n := s.cfg.Vars
	m := int(float64(n) * s.cfg.ClauseRatio)
	in := &instance{
		nVars:   n,
		clauses: make([][3]int32, m),
		watches: make([][]int32, 2*n),
		assign:  make([]int8, n),
		level:   make([]int32, n),
	}
	for i := 0; i < m; i++ {
		var c [3]int32
		for k := 0; k < 3; k++ {
			v := int32(r.Intn(n))
			c[k] = v<<1 | int32(r.Intn(2))
		}
		in.clauses[i] = c
		// Watch the first two literals.
		in.watches[c[0]] = append(in.watches[c[0]], int32(i))
		in.watches[c[1]] = append(in.watches[c[1]], int32(i))
	}
	in.clauseArr = addrspace.NewArray(s.heap, uint64(m), 16)
	in.watchArr = addrspace.NewArray(s.heap, uint64(2*n), 16)
	in.watchElts = addrspace.NewArray(s.heap, uint64(3*m), 8)
	in.assignArr = addrspace.NewArray(s.heap, uint64(n), 1)
	in.actArr = addrspace.NewArray(s.heap, uint64(n), 8)
	in.trailArr = addrspace.NewArray(s.heap, uint64(n), 4)
	return in
}

func neg(lit int32) int32 { return lit ^ 1 }

// value returns the truth value of lit under the current assignment.
func (in *instance) value(lit int32) int8 {
	v := in.assign[lit>>1]
	if v == 0 {
		return 0
	}
	if (lit&1 == 1) == (v == -1) {
		return 1
	}
	return -1
}

func (in *instance) assignLit(lit int32, lvl int32) {
	v := int8(1)
	if lit&1 == 1 {
		v = -1
	}
	in.assign[lit>>1] = v
	in.level[lit>>1] = lvl
	in.trail = append(in.trail, lit)
}

// sthread is one thread's DPLL solver run as a resumable state machine:
// each Step is one decision (plus its propagation and any conflict
// handling) or one restart, mirroring the phases of the original
// restart loop.
type sthread struct {
	s              *Solver //simlint:ok checkpointcov shared workload, checkpointed via SaveShared
	tid            int     //simlint:ok checkpointcov construction-time identity
	rnd            *rng.Rand
	stack          uint64 //simlint:ok checkpointcov construction-time address
	in             *instance
	decisions      uint64
	conflicts      uint64
	restartPending bool
}

func (s *Solver) newThread(tid int, seed int64) *sthread {
	r := rng.New(seed)
	return &sthread{
		s: s, tid: tid, rnd: r,
		stack: workloads.StackOf(tid),
		in:    s.newInstance(r),
	}
}

// Init pushes the solver's main frame.
func (t *sthread) Init(e *trace.Emitter) { e.Call(t.s.fnMain) }

// Step advances the solver: a pending restart unwinds the trail,
// otherwise one decision is made and propagated.
func (t *sthread) Step(e *trace.Emitter) bool {
	s, in, rnd, tid, stack := t.s, t.in, t.rnd, t.tid, t.stack

	if t.restartPending {
		e.InFunc(s.fnRestart, func() {
			// Unwind everything and decay activities.
			for len(in.trail) > 0 {
				lit := in.trail[len(in.trail)-1]
				in.trail = in.trail[:len(in.trail)-1]
				in.assign[lit>>1] = 0
			}
			in.trailLim = in.trailLim[:0]
			var v trace.Val = trace.NoVal
			for i := 0; i < 64; i++ {
				a := e.Load(in.actArr.At(uint64(rnd.Intn(in.nVars))), 8, trace.NoVal, false)
				v = e.FP(v, a)
				e.Store(in.actArr.At(uint64(rnd.Intn(in.nVars))), 8, v, trace.NoVal)
			}
		})
		s.kern.SchedTick(e, tid)
		t.restartPending = false
		t.conflicts = 0
		return true
	}

	// Symbolic-execution engine work between solver queries; the
	// engine path varies per query (state interpretation).
	t.decisions++
	s.bank.Exec(e, t.decisions*2654435761+uint64(tid)*977, 8, s.cfg.FrameworkInsts, stack, 3)
	if t.decisions%48 == 0 {
		s.kern.SchedTick(e, tid)
	}

	// Decide: sample candidate variables and their activities.
	var pick int32 = -1
	e.InFunc(s.fnDecide, func() {
		var v trace.Val = trace.NoVal
		for k := 0; k < 16; k++ {
			cand := int32(rnd.Intn(in.nVars))
			a := e.Load(in.actArr.At(uint64(cand)), 8, trace.NoVal, false)
			v = e.FP(v, a)
			if in.assign[cand] == 0 && pick < 0 {
				pick = cand
			}
			e.Branch(in.assign[cand] == 0, v)
		}
	})
	if pick < 0 {
		t.restartPending = true // "SAT": restart with fresh polarity hints
		return true
	}
	lvl := int32(len(in.trailLim) + 1)
	in.trailLim = append(in.trailLim, len(in.trail))
	lit := pick<<1 | int32(rnd.Intn(2))
	in.assignLit(lit, lvl)
	e.Store(in.assignArr.At(uint64(pick)), 1, trace.NoVal, trace.NoVal)
	e.Store(in.trailArr.At(uint64(len(in.trail)-1)%in.trailArr.Len), 4, trace.NoVal, trace.NoVal)

	if !s.propagate(e, in, lvl) {
		t.conflicts++
		s.backtrack(e, in)
	}
	if t.conflicts >= uint64(s.cfg.RestartConflicts) {
		t.restartPending = true
	}
	return true
}

// SaveState serializes the thread's resumable state, including the full
// solver instance: watch-list mutations and clause literal swaps make
// the formula itself run-time state.
func (t *sthread) SaveState(w *checkpoint.Writer) {
	w.Tag("satsolver.thread")
	t.rnd.SaveState(w)
	w.U64(t.decisions)
	w.U64(t.conflicts)
	w.Bool(t.restartPending)
	in := t.in
	w.U32(uint32(in.nVars))
	w.U32(uint32(len(in.clauses)))
	w.Struct(in.clauses)
	for _, wl := range in.watches {
		w.U32(uint32(len(wl)))
		if len(wl) > 0 {
			w.Struct(wl)
		}
	}
	w.Struct(in.assign)
	w.Struct(in.level)
	w.U32(uint32(len(in.trail)))
	if len(in.trail) > 0 {
		w.Struct(in.trail)
	}
	w.U32(uint32(len(in.trailLim)))
	for _, l := range in.trailLim {
		w.I64(int64(l))
	}
}

// LoadState restores state written by SaveState.
func (t *sthread) LoadState(rd *checkpoint.Reader) {
	rd.Expect("satsolver.thread")
	t.rnd.LoadState(rd)
	t.decisions = rd.U64()
	t.conflicts = rd.U64()
	t.restartPending = rd.Bool()
	in := t.in
	nVars := int(rd.U32())
	m := int(rd.U32())
	if rd.Err() != nil {
		return
	}
	if nVars != in.nVars || m != len(in.clauses) {
		rd.Failf("satsolver: snapshot formula %dv/%dc, instance %dv/%dc",
			nVars, m, in.nVars, len(in.clauses))
		return
	}
	rd.Struct(in.clauses)
	for i := range in.watches {
		n := rd.Count(4) // int32 clause indices
		if rd.Err() != nil {
			return
		}
		wl := in.watches[i][:0]
		if cap(wl) < n {
			wl = make([]int32, n)
		} else {
			wl = wl[:n]
		}
		if n > 0 {
			rd.Struct(wl)
		}
		in.watches[i] = wl
	}
	rd.Struct(in.assign)
	rd.Struct(in.level)
	nt := int(rd.U32())
	if rd.Err() != nil {
		return
	}
	in.trail = in.trail[:0]
	for i := 0; i < nt; i++ {
		in.trail = append(in.trail, 0)
	}
	if nt > 0 {
		rd.Struct(in.trail)
	}
	nl := int(rd.U32())
	if rd.Err() != nil {
		return
	}
	in.trailLim = in.trailLim[:0]
	for i := 0; i < nl; i++ {
		in.trailLim = append(in.trailLim, int(rd.I64()))
	}
}

// propagate runs two-watched-literal unit propagation from the current
// trail position; it returns false on conflict.
func (s *Solver) propagate(e *trace.Emitter, in *instance, lvl int32) bool {
	qhead := len(in.trail) - 1
	ok := true
	visited := 0
	e.InFunc(s.fnProp, func() {
		for qhead < len(in.trail) && ok {
			lit := in.trail[qhead]
			qhead++
			false_ := neg(lit)
			wl := in.watches[false_]
			// Watch-list header load, then the element scan: these clause
			// index loads are mutually independent (the MLP source).
			hv := e.Load(in.watchArr.At(uint64(false_)), 8, trace.NoVal, false)
			_ = hv
			keep := wl[:0]
			stopped := -1
			for wi := 0; wi < len(wl); wi++ {
				ci := wl[wi]
				// Periodically the Klee engine interleaves its own work
				// (query caching, state bookkeeping) with propagation.
				if visited++; visited%8 == 0 {
					s.bank.Exec(e, uint64(ci)*48271+uint64(visited), 3, 300, in.trailArr.Base, 3)
				}
				e.Load(in.watchElts.At((uint64(false_)*8+uint64(wi))%in.watchElts.Len), 8, trace.NoVal, false)
				cv := e.Load(in.clauseArr.At(uint64(ci)), 16, trace.NoVal, false)
				e.Load(in.actArr.At(uint64(ci)%in.actArr.Len), 8, trace.NoVal, false)
				cv = e.ALUChain(5, cv)
				e.ALUIndep(6)
				c := &in.clauses[ci]
				// Ensure c[1] is the false literal.
				if c[0] == false_ {
					c[0], c[1] = c[1], c[0]
				}
				status := int8(-2) // -2: find new watch
				if in.value(c[0]) == 1 {
					status = 1 // satisfied
				}
				e.Branch(status == 1, cv)
				if status == 1 {
					keep = append(keep, ci)
					continue
				}
				if in.value(c[2]) != -1 {
					// New watch found: move the watcher.
					c[1], c[2] = c[2], c[1]
					in.watches[c[1]] = append(in.watches[c[1]], ci)
					e.Store(in.watchArr.At(uint64(c[1])), 8, cv, trace.NoVal)
					continue
				}
				keep = append(keep, ci)
				switch in.value(c[0]) {
				case 0:
					// Unit: imply c[0].
					in.assignLit(c[0], lvl)
					e.Store(in.assignArr.At(uint64(c[0]>>1)), 1, cv, trace.NoVal)
					e.Store(in.trailArr.At(uint64(len(in.trail)-1)%in.trailArr.Len), 4, trace.NoVal, trace.NoVal)
				case -1:
					// Conflict.
					ok = false
					e.InFunc(s.fnClause, func() {
						v := e.Load(in.clauseArr.At(uint64(ci)), 16, trace.NoVal, false)
						e.ALUChain(6, v)
					})
				}
				if !ok {
					stopped = wi
					break
				}
			}
			// Keep the unprocessed tail when the scan bailed out early.
			if stopped >= 0 {
				keep = append(keep, wl[stopped+1:]...)
			}
			in.watches[false_] = keep
		}
	})
	return ok
}

// backtrack pops the last decision level, bumping activities of the
// conflicting assignments.
func (s *Solver) backtrack(e *trace.Emitter, in *instance) {
	e.InFunc(s.fnConf, func() {
		if len(in.trailLim) == 0 {
			return
		}
		limit := in.trailLim[len(in.trailLim)-1]
		in.trailLim = in.trailLim[:len(in.trailLim)-1]
		var v trace.Val = trace.NoVal
		for len(in.trail) > limit {
			lit := in.trail[len(in.trail)-1]
			in.trail = in.trail[:len(in.trail)-1]
			in.assign[lit>>1] = 0
			// Trail unwind: stores to the assignment and activity arrays.
			e.Store(in.assignArr.At(uint64(lit>>1)), 1, trace.NoVal, trace.NoVal)
			a := e.Load(in.actArr.At(uint64(lit>>1)), 8, trace.NoVal, false)
			v = e.FP(v, a)
			e.Store(in.actArr.At(uint64(lit>>1)), 8, v, trace.NoVal)
		}
	})
}
