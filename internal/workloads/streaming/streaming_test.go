package streaming

import (
	"testing"

	"cloudsuite/internal/trace"
)

func smallConfig() Config {
	return Config{
		LibraryBytes: 4 << 20, Files: 8, ClientsPerThread: 20,
		ChunkBytes: 2 * 1460, FrameworkInsts: 300,
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
	s := New(smallConfig())
	if len(s.fileBase) != 8 {
		t.Fatalf("files = %d", len(s.fileBase))
	}
}

func TestStreamingIsOSHeavy(t *testing.T) {
	s := New(smallConfig())
	gens := s.Start(1, 13)
	defer gens[0].Close()
	insts := drain(t, gens[0], 80000)
	kernel := 0
	for _, in := range insts {
		if in.Kernel {
			kernel++
		}
	}
	frac := float64(kernel) / float64(len(insts))
	// Packet sending dominates: the paper shows Media Streaming with the
	// largest OS share of the scale-out suite.
	if frac < 0.25 {
		t.Fatalf("OS share %.2f too low for a streaming server", frac)
	}
}

func TestMediaIsStreamedWithoutReuse(t *testing.T) {
	s := New(smallConfig())
	gens := s.Start(1, 13)
	defer gens[0].Close()
	insts := drain(t, gens[0], 200000)
	libLo, libHi := s.library, s.library+s.cfg.LibraryBytes
	seen := map[uint64]int{}
	for _, in := range insts {
		if in.Op == trace.OpLoad && in.Addr >= libLo && in.Addr < libHi {
			seen[in.Addr>>6]++
		}
	}
	if len(seen) == 0 {
		t.Fatal("no media loads")
	}
	reused := 0
	for _, n := range seen {
		if n > 1 {
			reused++
		}
	}
	if frac := float64(reused) / float64(len(seen)); frac > 0.3 {
		t.Fatalf("media lines reused too often (%.2f): should stream", frac)
	}
}

func TestSessionsAdvanceIndependently(t *testing.T) {
	s := New(smallConfig())
	gens := s.Start(2, 3)
	defer func() {
		for _, g := range gens {
			g.Close()
		}
	}()
	// Both threads must emit; their session state regions are private.
	for i, g := range gens {
		if got := len(drain(t, g, 20000)); got != 20000 {
			t.Fatalf("thread %d produced %d insts", i, got)
		}
	}
}

func TestGlobalCountersAreShared(t *testing.T) {
	s := New(smallConfig())
	gens := s.Start(2, 9)
	defer func() {
		for _, g := range gens {
			g.Close()
		}
	}()
	writers := 0
	for _, g := range gens {
		wrote := false
		for _, in := range drain(t, g, 300000) {
			if in.Op == trace.OpStore && in.Addr >= s.statsAddr && in.Addr < s.statsAddr+256 {
				wrote = true
			}
		}
		if wrote {
			writers++
		}
	}
	// The paper calls out the global packet counters: multiple threads
	// write the same statistics object.
	if writers < 2 {
		t.Fatalf("only %d threads wrote the global counters", writers)
	}
}
