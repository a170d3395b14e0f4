package satsolver

import (
	"cloudsuite/internal/rng"
	"testing"
	"testing/quick"

	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/trace"
)

func smallConfig() Config {
	return Config{Vars: 400, ClauseRatio: 4.26, RestartConflicts: 50, FrameworkInsts: 300}
}

func drain(t *testing.T, g *trace.StepGen, n int) []trace.Inst {
	t.Helper()
	out := make([]trace.Inst, n)
	got := 0
	for got < n {
		k := g.Next(out[got:])
		if k == 0 {
			break
		}
		got += k
	}
	return out[:got]
}

func TestSolverEmitsForever(t *testing.T) {
	s := New(smallConfig())
	gens := s.Start(2, 3)
	defer func() {
		for _, g := range gens {
			g.Close()
		}
	}()
	for i, g := range gens {
		if got := len(drain(t, g, 50000)); got != 50000 {
			t.Fatalf("thread %d stopped after %d insts (solver must restart forever)", i, got)
		}
	}
}

// TestWatchInvariant checks the two-watched-literal discipline: every
// clause is watched by exactly two slots across all watch lists.
func TestWatchInvariant(t *testing.T) {
	s := New(smallConfig())
	r := rng.New(5)
	in := s.newInstance(r)
	counts := make(map[int32]int)
	for _, wl := range in.watches {
		for _, ci := range wl {
			counts[ci]++
		}
	}
	for ci, n := range counts {
		if n != 2 {
			t.Fatalf("clause %d watched %d times, want 2", ci, n)
		}
	}
	if len(counts) != len(in.clauses) {
		t.Fatalf("%d clauses watched, want %d", len(counts), len(in.clauses))
	}
}

// TestPropagationSoundness: after a successful propagate, no clause may
// be fully falsified, and watch counts must be preserved.
func TestPropagationSoundness(t *testing.T) {
	s := New(Config{Vars: 200, ClauseRatio: 3.0, RestartConflicts: 10, FrameworkInsts: 100})
	layout := trace.NewCodeLayout(0x400000, 1<<20)
	main := layout.Func("m", 64)
	g := trace.NewStepGen(trace.EmitterConfig{Seed: 1}, trace.ProgFunc(func(e *trace.Emitter) bool {
		e.Call(main)
		r := rng.New(3)
		in := s.newInstance(r)
		for step := 0; step < 200; step++ {
			var pick int32 = -1
			for v := int32(0); v < int32(in.nVars); v++ {
				if in.assign[v] == 0 {
					pick = v
					break
				}
			}
			if pick < 0 {
				break
			}
			lvl := int32(len(in.trailLim) + 1)
			in.trailLim = append(in.trailLim, len(in.trail))
			in.assignLit(pick<<1, lvl)
			if s.propagate(e, in, lvl) {
				// No conflict reported: no clause may be fully false.
				for ci, c := range in.clauses {
					f := 0
					for _, lit := range c {
						if in.value(lit) == -1 {
							f++
						}
					}
					if f == 3 {
						panic("clause " + string(rune(ci)) + " fully falsified without conflict")
					}
				}
			} else {
				s.backtrack(e, in)
			}
		}
		// Watch discipline must survive propagation.
		counts := make(map[int32]int)
		for _, wl := range in.watches {
			for _, ci := range wl {
				counts[ci]++
			}
		}
		for _, n := range counts {
			if n != 2 {
				panic("watch discipline broken")
			}
		}
		return false
	}))
	defer g.Close()
	// Drain to completion; panics inside the goroutine would surface.
	for {
		out := make([]trace.Inst, 8192)
		if g.Next(out) == 0 {
			break
		}
	}
}

func TestBacktrackRestoresAssignments(t *testing.T) {
	s := New(smallConfig())
	layout := trace.NewCodeLayout(0x400000, 1<<20)
	main := layout.Func("m", 64)
	g := trace.NewStepGen(trace.EmitterConfig{Seed: 1}, trace.ProgFunc(func(e *trace.Emitter) bool {
		e.Call(main)
		r := rng.New(4)
		in := s.newInstance(r)
		before := len(in.trail)
		lvl := int32(1)
		in.trailLim = append(in.trailLim, len(in.trail))
		in.assignLit(6<<1, lvl)
		s.propagate(e, in, lvl)
		s.backtrack(e, in)
		if len(in.trail) != before {
			panic("backtrack did not restore the trail")
		}
		for v := 0; v < in.nVars; v++ {
			if in.assign[v] != 0 {
				panic("backtrack left assignments behind")
			}
		}
		return false
	}))
	defer g.Close()
	for {
		out := make([]trace.Inst, 8192)
		if g.Next(out) == 0 {
			break
		}
	}
}

// Property: literal encoding round-trips.
func TestQuickLiteralEncoding(t *testing.T) {
	check := func(v uint16, sign bool) bool {
		lit := int32(v) << 1
		if sign {
			lit |= 1
		}
		if lit>>1 != int32(v) {
			return false
		}
		return neg(neg(lit)) == lit && neg(lit) != lit
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValueSemantics(t *testing.T) {
	s := New(smallConfig())
	r := rng.New(8)
	in := s.newInstance(r)
	in.assign[5] = 1 // var 5 = true
	if in.value(5<<1) != 1 {
		t.Error("positive literal of a true var must be satisfied")
	}
	if in.value(5<<1|1) != -1 {
		t.Error("negative literal of a true var must be falsified")
	}
	if in.value(6<<1) != 0 {
		t.Error("unassigned literal must be unknown")
	}
}

// TestLoadStateRejectsHugeWatchCount: a watch-list count of 1<<31 fails
// the load instead of allocating for it.
func TestLoadStateRejectsHugeWatchCount(t *testing.T) {
	th := New(smallConfig()).newThread(0, 1)
	w := checkpoint.NewWriter()
	w.Tag("satsolver.thread")
	th.rnd.SaveState(w)
	w.U64(0)
	w.U64(0)
	w.Bool(false)
	w.U32(uint32(th.in.nVars))
	w.U32(uint32(len(th.in.clauses)))
	w.Struct(th.in.clauses)
	w.U32(1 << 31)
	rd := w.Snapshot("k").Reader()
	th.LoadState(rd)
	if rd.Err() == nil {
		t.Fatal("watch count 1<<31 loaded without error")
	}
}
