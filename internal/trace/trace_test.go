package trace

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"cloudsuite/internal/rng"
	"cloudsuite/internal/sim/checkpoint"
)

func TestOpString(t *testing.T) {
	for op := OpALU; op < numOps; op++ {
		if op.String() == "op?" {
			t.Errorf("op %d has no mnemonic", op)
		}
	}
	if Op(200).String() != "op?" {
		t.Errorf("unknown op should stringify to op?")
	}
}

func TestIsMem(t *testing.T) {
	if !OpLoad.IsMem() || !OpStore.IsMem() {
		t.Fatal("loads and stores are memory ops")
	}
	if OpALU.IsMem() || OpBranch.IsMem() {
		t.Fatal("ALU/branch are not memory ops")
	}
}

func TestSliceGen(t *testing.T) {
	insts := []Inst{{PC: 1}, {PC: 2}, {PC: 3}}
	g := &SliceGen{Insts: insts}
	if b := g.Batch(2); len(b) != 2 || b[0].PC != 1 || b[1].PC != 2 {
		t.Fatalf("first batch wrong: %v", b)
	}
	if b := g.Batch(2); len(b) != 1 || b[0].PC != 3 {
		t.Fatalf("second batch wrong: %v", b)
	}
	if b := g.Batch(2); len(b) != 0 {
		t.Fatalf("exhausted generator lent %d", len(b))
	}
}

// TestLoopGenWrapsForever: batches end at the end of the slice and the
// next one starts over, forever.
func TestLoopGenWrapsForever(t *testing.T) {
	g := &LoopGen{Insts: []Inst{{PC: 10}, {PC: 20}}}
	var got []uint64
	for _, max := range []int{5, 1, 3, 4} {
		b := g.Batch(max)
		if len(b) == 0 {
			t.Fatal("loop generator ran dry")
		}
		for _, in := range b {
			got = append(got, in.PC)
		}
	}
	if want := []uint64{10, 20, 10, 20, 10, 20}; !reflect.DeepEqual(got, want) {
		t.Errorf("stream = %v, want %v", got, want)
	}
}

func TestLoopGenEmpty(t *testing.T) {
	g := &LoopGen{}
	if b := g.Batch(4); len(b) != 0 {
		t.Fatalf("empty loop generator lent %d", len(b))
	}
}

func TestCodeLayoutAllocation(t *testing.T) {
	l := NewCodeLayout(0x400000, 1<<20)
	f1 := l.Func("a", 100)
	f2 := l.Func("b", 10)
	if f1.Entry%64 != 0 || f2.Entry%64 != 0 {
		t.Errorf("functions must be line aligned: %x %x", f1.Entry, f2.Entry)
	}
	if f2.Entry < f1.Entry+f1.Size*InstBytes {
		t.Errorf("functions overlap: f1=[%x,+%d) f2=%x", f1.Entry, f1.Size*InstBytes, f2.Entry)
	}
}

func TestCodeLayoutExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhausted layout")
		}
	}()
	l := NewCodeLayout(0, 128)
	l.Func("too-big", 1000)
}

// oneShot wraps a run-once body as a single-step generator.
func oneShot(cfg EmitterConfig, body func(e *Emitter)) *StepGen {
	return NewStepGen(cfg, ProgFunc(func(e *Emitter) bool {
		body(e)
		return false
	}))
}

// collect drains up to n instructions from a one-shot workload body.
func collect(t *testing.T, n int, body func(e *Emitter)) []Inst {
	t.Helper()
	g := oneShot(EmitterConfig{Seed: 1}, body)
	defer g.Close()
	out := make([]Inst, n)
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

func TestEmitterPCsStayInFunction(t *testing.T) {
	l := NewCodeLayout(0x400000, 1<<20)
	f := l.Func("f", 64)
	insts := collect(t, 500, func(e *Emitter) {
		e.InFunc(f, func() {
			for i := 0; i < 600; i++ {
				e.ALU(NoVal, NoVal)
			}
		})
	})
	if len(insts) < 400 {
		t.Fatalf("too few instructions: %d", len(insts))
	}
	lo, hi := f.Entry, f.Entry+f.Size*InstBytes
	for i, in := range insts {
		if in.PC < lo || in.PC >= hi {
			t.Fatalf("inst %d PC %#x outside function [%#x,%#x)", i, in.PC, lo, hi)
		}
	}
}

func TestEmitterDependenceDistances(t *testing.T) {
	l := NewCodeLayout(0x400000, 1<<20)
	f := l.Func("f", 64)
	// Use a huge block length to suppress auto branches so distances are
	// exactly deterministic.
	g := oneShot(EmitterConfig{Seed: 1, BlockLen: 1 << 20}, func(e *Emitter) {
		e.InFunc(f, func() {
			v := e.Load(0x1000, 8, NoVal, false)
			e.ALU(v, NoVal) // distance 1
			e.ALU(v, NoVal) // distance 2
		})
	})
	defer g.Close()
	out := make([]Inst, 16)
	n := g.Next(out)
	if n < 3 {
		t.Fatalf("expected at least 3 insts, got %d", n)
	}
	if out[0].Op != OpLoad {
		t.Fatalf("first inst should be the load, got %v", out[0].Op)
	}
	if out[1].DepA != 1 {
		t.Errorf("second inst DepA = %d, want 1", out[1].DepA)
	}
	if out[2].DepA != 2 {
		t.Errorf("third inst DepA = %d, want 2", out[2].DepA)
	}
}

// TestEmitterDependenceSaturates: a producer MaxDepDist or more
// instructions back is recorded as MaxDepDist, never dropped to 0.
func TestEmitterDependenceSaturates(t *testing.T) {
	l := NewCodeLayout(0x400000, 1<<20)
	f := l.Func("f", 64)
	g := oneShot(EmitterConfig{Seed: 1, BlockLen: 1 << 20}, func(e *Emitter) {
		e.InFunc(f, func() {
			v := e.Load(0x1000, 8, NoVal, false)
			for range MaxDepDist - 2 {
				e.ALU(NoVal, NoVal)
			}
			e.ALU(v, NoVal) // distance 254
			e.ALU(v, NoVal) // distance 255
			e.ALU(v, v)     // distance 256, saturated
		})
	})
	defer g.Close()
	out := g.Batch(MaxDepDist + 2)
	if len(out) != MaxDepDist+2 {
		t.Fatalf("got %d insts, want %d", len(out), MaxDepDist+2)
	}
	for i, want := range []uint8{254, 255, 255} {
		in := out[MaxDepDist-1+i]
		if in.DepA != want {
			t.Errorf("distance %d recorded as %d, want %d", MaxDepDist-1+i, in.DepA, want)
		}
	}
	if out[MaxDepDist+1].DepB != MaxDepDist {
		t.Errorf("saturated DepB = %d, want %d", out[MaxDepDist+1].DepB, MaxDepDist)
	}
}

// TestInstFootprint pins the instruction record at 32 bytes in
// memory: every emitter buffer and engine window holds these by the
// thousand.
func TestInstFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 32 {
		t.Errorf("an Inst is %d bytes in memory, want 32", got)
	}
}

func TestEmitterKernelMode(t *testing.T) {
	ul := NewCodeLayout(0x400000, 1<<20)
	kl := NewCodeLayout(0xffff0000, 1<<20)
	uf := ul.Func("user", 64)
	kf := kl.Func("kern", 64)
	insts := collect(t, 200, func(e *Emitter) {
		e.InFunc(uf, func() {
			e.ALUIndep(20)
			e.InKernel(kf, func() {
				e.ALUIndep(50)
			})
			e.ALUIndep(20)
		})
	})
	sawKernel, sawUser := false, false
	for _, in := range insts {
		if in.Kernel {
			sawKernel = true
			if in.PC < 0xffff0000 && in.Op != OpBranch {
				t.Fatalf("kernel inst with user PC %#x", in.PC)
			}
		} else {
			sawUser = true
		}
	}
	if !sawKernel || !sawUser {
		t.Fatalf("expected both modes: kernel=%v user=%v", sawKernel, sawUser)
	}
}

func TestEmitterBranchRate(t *testing.T) {
	l := NewCodeLayout(0x400000, 1<<20)
	f := l.Func("f", 256)
	insts := collect(t, 4000, func(e *Emitter) {
		e.InFunc(f, func() {
			for i := 0; i < 8000; i++ {
				e.ALU(NoVal, NoVal)
			}
		})
	})
	branches := 0
	for _, in := range insts {
		if in.Op == OpBranch {
			branches++
		}
	}
	frac := float64(branches) / float64(len(insts))
	if frac < 0.08 || frac > 0.30 {
		t.Errorf("auto-branch fraction %.3f outside [0.08,0.30]", frac)
	}
}

// endlessProg steps forever, emitting a small burst of ALU work per step.
type endlessProg struct {
	fn *Func
}

func (p *endlessProg) Init(e *Emitter) { e.Call(p.fn) }

func (p *endlessProg) Step(e *Emitter) bool {
	e.ALUIndep(16)
	return true
}

func TestStepGenEndlessProgramAndClose(t *testing.T) {
	l := NewCodeLayout(0x400000, 1<<20)
	f := l.Func("f", 64)
	g := NewStepGen(EmitterConfig{Seed: 1}, &endlessProg{fn: f})
	out := make([]Inst, 100)
	if n := g.Next(out); n != 100 {
		t.Fatalf("expected 100 insts, got %d", n)
	}
	g.Close()
	if n := g.Next(out); n != 0 {
		t.Fatalf("closed generator returned %d insts", n)
	}
}

func TestStepGenDrainsFinalStep(t *testing.T) {
	l := NewCodeLayout(0x400000, 1<<20)
	f := l.Func("f", 64)
	// A program whose only step emits and immediately reports exhaustion:
	// its instructions must still come out.
	g := oneShot(EmitterConfig{Seed: 1, BlockLen: 1 << 20}, func(e *Emitter) {
		e.InFunc(f, func() { e.ALUIndep(5) })
	})
	out := make([]Inst, 64)
	if n := g.Next(out); n < 5 {
		t.Fatalf("final-step instructions lost: got %d", n)
	}
	if n := g.Next(out); n != 0 {
		t.Fatalf("exhausted generator returned %d", n)
	}
}

func TestEmitterBranchTargetsInsideFunction(t *testing.T) {
	l := NewCodeLayout(0x400000, 1<<20)
	f := l.Func("f", 128)
	insts := collect(t, 3000, func(e *Emitter) {
		e.InFunc(f, func() {
			for i := 0; i < 6000; i++ {
				v := e.ALU(NoVal, NoVal)
				if i%7 == 0 {
					e.Branch(i%2 == 0, v)
				}
			}
		})
	})
	lo, hi := f.Entry, f.Entry+f.Size*InstBytes
	for i, in := range insts {
		if in.Op == OpBranch && in.Taken {
			if in.Target < lo || in.Target >= hi {
				t.Fatalf("inst %d: taken branch target %#x outside function", i, in.Target)
			}
		}
	}
}

// statefulProg is an endless program with serializable per-thread state:
// a counter mixed into the emitted addresses, so divergence after a
// restore is visible in the stream.
type statefulProg struct {
	fn *Func
	n  uint64
}

func (p *statefulProg) Init(e *Emitter) { e.Call(p.fn) }

func (p *statefulProg) Step(e *Emitter) bool {
	for i := 0; i < 8; i++ {
		p.n++
		addr := 0x2000_0000 + (p.n%512)*64
		v := e.Load(addr, 8, NoVal, false)
		e.ALUChain(int(e.rng.Intn(4)), v)
		e.Store(addr+8, 8, v, NoVal)
	}
	return true
}

func (p *statefulProg) SaveState(w *checkpoint.Writer) {
	w.Tag("statefulProg")
	w.U64(p.n)
}

func (p *statefulProg) LoadState(rd *checkpoint.Reader) {
	rd.Expect("statefulProg")
	p.n = rd.U64()
}

// TestStepGenSaveLoadResume is the live-points property at the trace
// layer: fetching part of a batch, saving with the rest still lent, and
// restoring onto a fresh generator must continue the stream
// bit-identically to the original — including mid-step residue (the
// batch size deliberately not a multiple of the per-step emission
// count) — and re-lending the saved rest must run no Step.
func TestStepGenSaveLoadResume(t *testing.T) {
	l := NewCodeLayout(0x400000, 1<<20)
	f := l.Func("f", 128)
	cfg := EmitterConfig{Seed: 7, BranchEntropy: 0.1}
	orig := NewStepGen(cfg, &statefulProg{fn: f})
	if !orig.CanSave() {
		t.Fatal("stateful program should be saveable")
	}

	// Fetch 300 instructions of a 777-instruction batch, so both the
	// lent batch and the emitter hold unfetched instructions.
	batch := orig.Batch(777)
	const fetched = 300
	lent := len(batch) - fetched
	rest := append([]Inst(nil), batch[fetched:]...)

	w := checkpoint.NewWriter()
	orig.SaveState(w, lent)
	snap := w.Snapshot("trace-test")

	l2 := NewCodeLayout(0x400000, 1<<20)
	f2 := l2.Func("f", 128)
	prog := &statefulProg{fn: f2}
	restored := NewStepGen(cfg, prog)
	rd := snap.Reader()
	if got := restored.LoadState(rd); got != lent {
		t.Fatalf("LoadState returned lent %d, want %d", got, lent)
	}
	if err := rd.Err(); err != nil {
		t.Fatalf("load failed: %v", err)
	}

	n := prog.n
	if again := restored.Batch(lent); !reflect.DeepEqual(again, rest) || prog.n != n {
		t.Fatalf("re-lending %d instructions ran a Step or lent other instructions", lent)
	}
	// Save-load-relend-save byte equality.
	w2 := checkpoint.NewWriter()
	restored.SaveState(w2, lent)
	if snap.Hash() != w2.Snapshot("trace-test").Hash() {
		t.Fatal("save -> load -> save is not byte-identical")
	}
	a, b := make([]Inst, 4096), make([]Inst, 4096)
	for got := 0; got < len(a); {
		got += orig.Next(a[got:])
	}
	for got := 0; got < len(b); {
		got += restored.Next(b[got:])
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("restored stream diverged at inst %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestStepGenCanSaveFalseForPlainProg(t *testing.T) {
	g := oneShot(EmitterConfig{Seed: 1}, func(e *Emitter) {})
	if g.CanSave() {
		t.Fatal("ProgFunc has no state; CanSave must be false")
	}
}

// cursorGen is the checkpointed generator protocol the engine uses.
type cursorGen interface {
	Generator
	SaveState(w *checkpoint.Writer, lent int)
	LoadState(rd *checkpoint.Reader) int
}

// TestSliceLoopGenCursorRoundTrip: a SliceGen or LoopGen saved
// mid-batch resumes on a fresh generator over the same slice at the
// next unfetched instruction, and its cursor refuses a slice of another
// length.
func TestSliceLoopGenCursorRoundTrip(t *testing.T) {
	insts := make([]Inst, 100)
	for i := range insts {
		insts[i] = Inst{PC: 0x1000 + uint64(i)*InstBytes, Op: OpALU}
	}
	for _, tc := range []struct {
		name string
		mk   func([]Inst) cursorGen
	}{
		{"slice", func(in []Inst) cursorGen { return &SliceGen{Insts: in} }},
		{"loop", func(in []Inst) cursorGen { return &LoopGen{Insts: in} }},
	} {
		orig := tc.mk(insts)
		orig.Batch(37)
		const lent = 12 // 25 of the 37 fetched
		w := checkpoint.NewWriter()
		orig.SaveState(w, lent)
		snap := w.Snapshot("cursor")

		restored := tc.mk(insts)
		rd := snap.Reader()
		if got := restored.LoadState(rd); got != lent {
			t.Fatalf("%s: LoadState returned lent %d, want %d", tc.name, got, lent)
		}
		if err := rd.Err(); err != nil {
			t.Fatalf("%s: load failed: %v", tc.name, err)
		}
		if b := restored.Batch(lent); len(b) != lent || b[0] != insts[25] {
			t.Fatalf("%s: re-lent batch does not start at the first unfetched instruction", tc.name)
		}
		w2 := checkpoint.NewWriter()
		restored.SaveState(w2, lent)
		if snap.Hash() != w2.Snapshot("cursor").Hash() {
			t.Errorf("%s: save -> load -> save is not byte-identical", tc.name)
		}
		for range 3 {
			a, b := orig.Batch(150), restored.Batch(150)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: restored stream diverged (%d vs %d insts)", tc.name, len(a), len(b))
			}
		}

		rd = snap.Reader()
		tc.mk(insts[:50]).LoadState(rd)
		if rd.Err() == nil {
			t.Errorf("%s: cursor loaded onto a shorter stream", tc.name)
		}
	}
}

// Property: dependence distances never reference the future or reach
// before the start of the stream.
func TestQuickDependenceDistanceValid(t *testing.T) {
	l := NewCodeLayout(0x400000, 1<<26)
	f := l.Func("f", 512)
	check := func(seed int64, loads uint8) bool {
		nloads := int(loads%32) + 1
		g := oneShot(EmitterConfig{Seed: seed}, func(e *Emitter) {
			e.InFunc(f, func() {
				var v Val = NoVal
				for i := 0; i < nloads; i++ {
					v = e.Load(uint64(0x1000+i*64), 8, v, true)
					v = e.ALUChain(i%4, v)
				}
			})
		})
		defer g.Close()
		out := make([]Inst, 4096)
		n := g.Next(out)
		for i := 0; i < n; i++ {
			if int(out[i].DepA) > i || int(out[i].DepB) > i {
				return false
			}
		}
		return n > 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestEmitterLoadStateRejectsHugeCounts: a frame or residue count of
// 1<<31 fails the load instead of allocating for it.
func TestEmitterLoadStateRejectsHugeCounts(t *testing.T) {
	image := func(frames, residue uint32) *checkpoint.Reader {
		w := checkpoint.NewWriter()
		w.Tag("emitter")
		w.U32(6)
		w.F64(0.5)
		w.I64(1)
		rng.New(1).SaveState(w)
		w.I64(0)
		w.U32(3)
		w.U32(0)
		w.U32(frames)
		w.U32(residue)
		w.U32(0)
		return w.Snapshot("k").Reader()
	}
	for _, tc := range []struct {
		name            string
		frames, residue uint32
	}{{"frames", 1 << 31, 0}, {"residue", 0, 1 << 31}} {
		rd := image(tc.frames, tc.residue)
		NewEmitter(EmitterConfig{Seed: 1}).LoadState(rd)
		if rd.Err() == nil {
			t.Errorf("%s count 1<<31 loaded without error", tc.name)
		}
	}
}
