package traditional

import (
	"testing"

	"cloudsuite/internal/addrspace"
	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/trace"
	"cloudsuite/internal/workloads"
)

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

func stats(insts []trace.Inst) (loads, stores, fp, kernel, chases int) {
	for _, in := range insts {
		switch in.Op {
		case trace.OpLoad:
			loads++
		case trace.OpStore:
			stores++
		case trace.OpFP:
			fp++
		}
		if in.Kernel {
			kernel++
		}
		if in.AcquiresDep {
			chases++
		}
	}
	return
}

func run(t *testing.T, w workloads.Workload, n int) []trace.Inst {
	t.Helper()
	gens := w.Start(1, 17)
	defer func() {
		for _, g := range gens {
			g.Close()
		}
	}()
	insts := drain(t, gens[0], n)
	if len(insts) != n {
		t.Fatalf("produced only %d of %d insts", len(insts), n)
	}
	return insts
}

func TestDesktopKernelsHaveNoOSActivity(t *testing.T) {
	for i, w := range []workloads.Workload{NewSPECintBitops(), NewPARSECBlackscholes()} {
		_, _, _, kernel, _ := stats(run(t, w, 30000))
		if kernel != 0 {
			t.Errorf("kernel %d emitted %d kernel insts; SPEC/PARSEC are user-only", i, kernel)
		}
	}
}

func TestPARSECIsFloatingPointHeavy(t *testing.T) {
	_, _, fp, _, _ := stats(run(t, NewPARSECBlackscholes(), 30000))
	if float64(fp)/30000 < 0.05 {
		t.Fatalf("blackscholes FP share too low: %d/30000", fp)
	}
}

func TestMCFChasesPointers(t *testing.T) {
	_, _, _, _, chases := stats(run(t, NewSPECintMCF(), 30000))
	if chases == 0 {
		t.Fatal("mcf must chase pointers")
	}
}

func TestOLTPUsesLocksAndLog(t *testing.T) {
	insts := run(t, NewTPCC(), 250000)
	_, stores, _, kernel, chases := stats(insts)
	if stores == 0 || chases == 0 {
		t.Fatalf("TPC-C missing stores (%d) or index chases (%d)", stores, chases)
	}
	if kernel == 0 {
		t.Fatal("TPC-C never entered the OS (network/futex)")
	}
}

func TestTPCEIsReadDominated(t *testing.T) {
	insts := run(t, NewTPCE(), 200000)
	loads, stores, fp, _, _ := stats(insts)
	if loads < stores*3 {
		t.Fatalf("TPC-E not read-dominated: %d loads vs %d stores", loads, stores)
	}
	if fp == 0 {
		t.Fatal("TPC-E financial computation missing")
	}
}

func TestSPECwebServesFiles(t *testing.T) {
	insts := run(t, NewSPECweb(), 120000)
	_, _, _, kernel, _ := stats(insts)
	frac := float64(kernel) / float64(len(insts))
	if frac < 0.3 {
		t.Fatalf("SPECweb OS share %.2f; static file serving is OS-heavy", frac)
	}
}

// --- B+tree substrate --------------------------------------------------

func collectTree(t *testing.T, body func(e *trace.Emitter, tr *bptree)) []trace.Inst {
	t.Helper()
	heap := addrspace.NewHeap("t", 0x4000_0000, 1<<30)
	layout := trace.NewCodeLayout(0x40_0000, 1<<20)
	main := layout.Func("m", 64)
	tr := newBPTree(heap, 100_000, 128)
	g := trace.NewStepGen(trace.EmitterConfig{Seed: 2}, trace.ProgFunc(func(e *trace.Emitter) bool {
		e.Call(main)
		body(e, tr)
		return false
	}))
	defer g.Close()
	out := make([]trace.Inst, 1<<16)
	n := 0
	for {
		k := g.Next(out[n:])
		if k == 0 {
			break
		}
		n += k
		if n == len(out) {
			break
		}
	}
	return out[:n]
}

func TestBPTreeDepth(t *testing.T) {
	heap := addrspace.NewHeap("t", 0x4000_0000, 1<<30)
	small := newBPTree(heap, 100, 64)
	big := newBPTree(heap, 1_000_000, 64)
	if small.depth() >= big.depth() {
		t.Fatalf("depths not monotone: %d vs %d", small.depth(), big.depth())
	}
	if big.depth() < 3 {
		t.Fatalf("1M-key tree too shallow: %d levels", big.depth())
	}
}

func TestBPTreeProbeEmitsChainedLevels(t *testing.T) {
	insts := collectTree(t, func(e *trace.Emitter, tr *bptree) {
		tr.probe(e, 12345, trace.NoVal)
	})
	chased := 0
	for _, in := range insts {
		if in.AcquiresDep {
			chased++
		}
	}
	// A 100K-key tree has at least 3 levels, each a chained load.
	if chased < 3 {
		t.Fatalf("probe chased only %d levels", chased)
	}
}

func TestBPTreeRowsDistinct(t *testing.T) {
	heap := addrspace.NewHeap("t", 0x4000_0000, 1<<30)
	tr := newBPTree(heap, 1000, 128)
	seen := map[uint64]bool{}
	layout := trace.NewCodeLayout(0x40_0000, 1<<20)
	main := layout.Func("m", 64)
	g := trace.NewStepGen(trace.EmitterConfig{Seed: 2}, trace.ProgFunc(func(e *trace.Emitter) bool {
		e.Call(main)
		for k := uint64(0); k < 1000; k++ {
			addr, _ := tr.probe(e, k, trace.NoVal)
			if seen[addr] {
				panic("duplicate row address")
			}
			seen[addr] = true
		}
		return false
	}))
	defer g.Close()
	out := make([]trace.Inst, 8192)
	for g.Next(out) != 0 {
	}
}

// TestThreadStateResumes: a proxy saved after a long warm-up and loaded
// into a fresh instance continues the exact instruction stream of the
// original. A step that mutates a value its closure captures, instead
// of one in the serialized thread, diverges here even when the value
// shows only rarely: SPECweb09's request count ticks the scheduler
// every 64 requests, and streamcluster's center index moves once per
// 64MB sweep (about 7M instructions).
func TestThreadStateResumes(t *testing.T) {
	all := []struct {
		name string
		mk   func() workloads.Workload
	}{
		{"bitops", NewSPECintBitops}, {"compile", NewSPECintCompile}, {"dp", NewSPECintDP},
		{"mcf", NewSPECintMCF}, {"events", NewSPECintEvents}, {"stream", NewSPECintStream},
		{"blackscholes", NewPARSECBlackscholes}, {"swaptions", NewPARSECSwaptions},
		{"canneal", NewPARSECCanneal}, {"streamcluster", NewPARSECStreamcluster},
		{"SPECweb09", NewSPECweb}, {"TPC-C", NewTPCC}, {"TPC-E", NewTPCE}, {"Web Backend", NewWebBackend},
	}
	for _, tc := range all {
		w := tc.mk()
		warm := 1 << 20
		if tc.name == "streamcluster" {
			warm = 1 << 23
		}
		orig := w.Start(1, 17)[0]
		buf := make([]trace.Inst, 4096)
		for n := 0; n < warm; n += orig.Next(buf) {
		}
		wr := checkpoint.NewWriter()
		w.SaveShared(wr)
		orig.SaveState(wr, 0)

		w2 := tc.mk()
		restored := w2.Start(1, 17)[0]
		rd := wr.Snapshot("resume").Reader()
		w2.LoadShared(rd)
		restored.LoadState(rd)
		if err := rd.Err(); err != nil {
			t.Fatalf("%s: load: %v", tc.name, err)
		}
		a, b := drain(t, orig, 1<<19), drain(t, restored, 1<<19)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: restored stream diverges at instruction %d", tc.name, i)
				break
			}
		}
		orig.Close()
		restored.Close()
	}
}
