package workloads

import (
	"cloudsuite/internal/rng"
	"math"
	"testing"
	"testing/quick"

	"cloudsuite/internal/trace"
)

func TestClassString(t *testing.T) {
	for _, c := range []Class{ScaleOut, Desktop, Parallel, Server} {
		if c.String() == "class?" {
			t.Errorf("class %d has no name", c)
		}
	}
	if Class(99).String() != "class?" {
		t.Error("unknown class should stringify to class?")
	}
}

func TestCodeBankFootprint(t *testing.T) {
	layout := trace.NewCodeLayout(0x400000, 64<<20)
	b := NewCodeBank(layout, "fw", 100, 900)
	if len(b.Funcs) != 100 {
		t.Fatalf("funcs = %d", len(b.Funcs))
	}
	for i, f := range b.Funcs {
		if f.Size != 900 {
			t.Fatalf("func %d has %d insts, want 900", i, f.Size)
		}
	}
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

func TestCodeBankExecEmitsVariedPCs(t *testing.T) {
	layout := trace.NewCodeLayout(0x400000, 64<<20)
	b := NewCodeBank(layout, "fw", 64, 500)
	main := layout.Func("main", 64)
	req := uint64(0)
	g := trace.NewStepGen(trace.EmitterConfig{Seed: 3}, trace.ProgFunc(func(e *trace.Emitter) bool {
		if req == 0 {
			e.Call(main)
		}
		b.Exec(e, req*2654435761+1, 12, 2000, 0x10000000, 3)
		req++
		return true
	}))
	defer g.Close()
	insts := drain(t, g, 60000)
	lines := map[uint64]bool{}
	for _, in := range insts {
		lines[in.PC>>6] = true
	}
	// Varied request paths must touch far more code than the L1-I holds
	// (the 32KB L1-I is 512 lines).
	if len(lines) < 600 {
		t.Fatalf("code footprint too small: %d lines", len(lines))
	}
}

func TestGenericWorkMix(t *testing.T) {
	layout := trace.NewCodeLayout(0x400000, 1<<20)
	fn := layout.Func("w", 512)
	started := false
	g := trace.NewStepGen(trace.EmitterConfig{Seed: 5}, trace.ProgFunc(func(e *trace.Emitter) bool {
		if !started {
			e.Call(fn)
			started = true
		}
		GenericWork(e, 1000, 0x2000_0000, 3)
		return true
	}))
	defer g.Close()
	insts := drain(t, g, 20000)
	var loads, stores, branches int
	for _, in := range insts {
		switch in.Op {
		case trace.OpLoad:
			loads++
		case trace.OpStore:
			stores++
		case trace.OpBranch:
			branches++
		}
	}
	lf := float64(loads) / float64(len(insts))
	sf := float64(stores) / float64(len(insts))
	if lf < 0.10 || lf > 0.35 {
		t.Errorf("load fraction %.2f outside typical integer-code range", lf)
	}
	if sf < 0.02 || sf > 0.15 {
		t.Errorf("store fraction %.2f outside typical range", sf)
	}
	if branches == 0 {
		t.Error("no branches emitted")
	}
}

func TestZipfIsSkewed(t *testing.T) {
	r := rng.New(11)
	z := NewZipf(r, 0.99, 10000)
	counts := map[uint64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// The most popular key must take a disproportionate share.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/n < 0.05 {
		t.Fatalf("top key share %.4f: distribution not skewed", float64(max)/n)
	}
	if len(counts) < 100 {
		t.Fatalf("only %d distinct keys drawn", len(counts))
	}
}

// Property: Zipf samples stay within the configured range.
func TestQuickZipfRange(t *testing.T) {
	check := func(seed int64, n uint32) bool {
		max := uint64(n%10000) + 2
		r := rng.New(seed)
		z := NewZipf(r, 0.99, max)
		for i := 0; i < 200; i++ {
			if z.Next() >= max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A degenerate key space must not underflow rand.NewZipf's imax: every
// draw stays at key 0.
func TestZipfDegenerateKeySpace(t *testing.T) {
	for _, n := range []uint64{0, 1} {
		r := rng.New(1)
		z := NewZipf(r, 0.99, n)
		for i := 0; i < 100; i++ {
			if got := z.Next(); got != 0 {
				t.Fatalf("NewZipf(n=%d).Next() = %d, want 0", n, got)
			}
		}
	}
}

func TestStacksDistinctPerThread(t *testing.T) {
	a, b := StackOf(0), StackOf(1)
	if a == b {
		t.Fatal("thread stacks must differ")
	}
	if math.Abs(float64(a)-float64(b)) < 4096 {
		t.Fatal("thread stacks too close")
	}
}
