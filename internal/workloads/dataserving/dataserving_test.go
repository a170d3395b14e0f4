package dataserving

import (
	"testing"

	"cloudsuite/internal/trace"
)

func smallConfig() Config {
	return Config{Records: 4096, RecordBytes: 1024, ReadFrac: 0.95, Runs: 4, FrameworkInsts: 800}
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
	var bytes uint64
	for i := range s.runs {
		bytes += s.runs[i].recs.Bytes()
	}
	if bytes != 4096*1024 {
		t.Errorf("dataset = %d", bytes)
	}
}

func TestStartProducesStreams(t *testing.T) {
	s := New(smallConfig())
	gens := s.Start(2, 7)
	if len(gens) != 2 {
		t.Fatalf("gens = %d", len(gens))
	}
	defer func() {
		for _, g := range gens {
			g.Close()
		}
	}()
	for i, g := range gens {
		insts := drain(t, g, 5000)
		if len(insts) != 5000 {
			t.Fatalf("thread %d produced %d insts", i, len(insts))
		}
	}
}

func TestRequestLoopTouchesDatasetAndKernel(t *testing.T) {
	s := New(smallConfig())
	gens := s.Start(1, 3)
	defer gens[0].Close()
	insts := drain(t, gens[0], 80000)

	recLo := s.runs[0].recs.Base
	recHi := s.runs[len(s.runs)-1].recs.Base + s.runs[len(s.runs)-1].recs.Bytes()
	var recordLoads, kernelInsts, stores, chases int
	for _, in := range insts {
		if in.Kernel {
			kernelInsts++
		}
		if in.Op == trace.OpLoad && in.Addr >= recLo && in.Addr < recHi {
			recordLoads++
		}
		if in.Op == trace.OpStore {
			stores++
		}
		if in.AcquiresDep {
			chases++
		}
	}
	if recordLoads == 0 {
		t.Error("reads never touched record payloads")
	}
	if kernelInsts == 0 {
		t.Error("no OS activity (network path) emitted")
	}
	if stores == 0 {
		t.Error("no stores (writes, GC marks, commit log)")
	}
	if chases == 0 {
		t.Error("no pointer chasing (skiplist, index)")
	}
}

func TestWritePathExercised(t *testing.T) {
	cfg := smallConfig()
	cfg.ReadFrac = 0 // all writes
	s := New(cfg)
	gens := s.Start(1, 9)
	defer gens[0].Close()
	insts := drain(t, gens[0], 60000)
	logLo, logHi := s.logAddr, s.logAddr+(8<<20)
	logStores := 0
	for _, in := range insts {
		if in.Op == trace.OpStore && in.Addr >= logLo && in.Addr < logHi {
			logStores++
		}
	}
	if logStores == 0 {
		t.Fatal("write-only mix never appended to the commit log")
	}
	if s.memCount == 0 && s.memLevel == 1 {
		t.Fatal("memtable never grew")
	}
}

func TestGCQuantumMarksSharedHeaders(t *testing.T) {
	s := New(smallConfig())
	gens := s.Start(2, 5)
	defer func() {
		for _, g := range gens {
			g.Close()
		}
	}()
	hdrLo, hdrHi := s.headers.Base, s.headers.Base+s.headers.Bytes()
	found := 0
	// The GC quantum runs every ~48 requests; drain enough to cover it.
	for _, g := range gens {
		for _, in := range drain(t, g, 800000) {
			if in.Op == trace.OpStore && in.Addr >= hdrLo && in.Addr < hdrHi {
				found++
			}
		}
	}
	if found == 0 {
		t.Fatal("GC quanta never marked shared headers")
	}
}

func TestZipfSkewVisitsHotKeys(t *testing.T) {
	s := New(smallConfig())
	gens := s.Start(1, 1)
	defer gens[0].Close()
	insts := drain(t, gens[0], 150000)
	// Count record-region loads per run; the Zipf skew should make the
	// run holding key 0 (the hottest) clearly most visited.
	counts := make([]int, len(s.runs))
	for _, in := range insts {
		if in.Op != trace.OpLoad {
			continue
		}
		for i := range s.runs {
			r := &s.runs[i]
			if in.Addr >= r.recs.Base && in.Addr < r.recs.Base+r.recs.Bytes() {
				counts[i]++
			}
		}
	}
	if counts[0] <= counts[len(counts)-1] {
		t.Fatalf("no Zipf skew across runs: %v", counts)
	}
}
