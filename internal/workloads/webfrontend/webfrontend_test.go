package webfrontend

import (
	"testing"

	"cloudsuite/internal/trace"
)

func smallConfig() Config {
	return Config{
		Scripts: 8, OpcodesPerScript: 300, Handlers: 40,
		ValueHeapBytes: 1 << 20, Sessions: 256,
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

func TestMetadata(t *testing.T) {
	f := New(smallConfig())
	if len(f.scripts) != 8 {
		t.Fatalf("scripts = %d", len(f.scripts))
	}
	for i, sc := range f.scripts {
		if len(sc) == 0 {
			t.Fatalf("script %d empty", i)
		}
	}
}

func TestInterpreterVisitsManyHandlers(t *testing.T) {
	f := New(smallConfig())
	gens := f.Start(1, 5)
	defer gens[0].Close()
	insts := drain(t, gens[0], 120000)
	visited := map[int]bool{}
	for _, in := range insts {
		for h, fn := range f.handlers {
			if in.PC >= fn.Entry && in.PC < fn.Entry+fn.Size*trace.InstBytes {
				visited[h] = true
			}
		}
	}
	if len(visited) < len(f.handlers)/2 {
		t.Fatalf("only %d/%d handlers executed", len(visited), len(f.handlers))
	}
}

func TestValueOpsChasePointers(t *testing.T) {
	f := New(smallConfig())
	gens := f.Start(1, 5)
	defer gens[0].Close()
	chases := 0
	for _, in := range drain(t, gens[0], 80000) {
		if in.AcquiresDep && !in.Kernel {
			chases++
		}
	}
	if chases == 0 {
		t.Fatal("zval manipulation produced no pointer chasing")
	}
}

func TestResponseSentThroughOS(t *testing.T) {
	f := New(smallConfig())
	gens := f.Start(1, 5)
	defer gens[0].Close()
	kernel := 0
	insts := drain(t, gens[0], 80000)
	for _, in := range insts {
		if in.Kernel {
			kernel++
		}
	}
	if kernel == 0 {
		t.Fatal("requests never traversed the network stack")
	}
}

func TestRequestsAreStatelessAcrossThreads(t *testing.T) {
	f := New(smallConfig())
	gens := f.Start(2, 5)
	defer func() {
		for _, g := range gens {
			g.Close()
		}
	}()
	// Threads serve independent requests: user-mode stores must land in
	// mostly disjoint line sets (sessions are the sanctioned overlap).
	sets := make([]map[uint64]bool, 2)
	for i, g := range gens {
		sets[i] = map[uint64]bool{}
		for _, in := range drain(t, g, 80000) {
			if !in.Kernel && in.Op == trace.OpStore {
				sets[i][in.Addr>>6] = true
			}
		}
	}
	shared := 0
	for l := range sets[0] {
		if sets[1][l] {
			shared++
		}
	}
	if frac := float64(shared) / float64(len(sets[0])+1); frac > 0.10 {
		t.Fatalf("threads share %.1f%% of written lines", 100*frac)
	}
}
