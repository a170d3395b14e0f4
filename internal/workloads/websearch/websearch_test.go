package websearch

import (
	"testing"

	"cloudsuite/internal/trace"
)

func smallConfig() Config {
	return Config{
		Terms: 4096, Docs: 8192, PostingsBytes: 1 << 20,
		TermsPerQuery: 3, TopK: 10, FrameworkInsts: 600,
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

func TestPostingLayoutCoversBudget(t *testing.T) {
	n := New(smallConfig())
	var total uint64
	seen := map[uint64]bool{}
	for tm := uint64(0); tm < n.cfg.Terms; tm++ {
		if n.postLen[tm] == 0 {
			t.Fatalf("term %d has empty postings", tm)
		}
		if !seen[n.postOff[tm]] {
			seen[n.postOff[tm]] = true
			total += n.postLen[tm] * 4
		}
		if end := n.postOff[tm] + n.postLen[tm]*4; end > n.cfg.PostingsBytes {
			t.Fatalf("term %d postings overflow the region: end=%d", tm, end)
		}
	}
	if total > n.cfg.PostingsBytes {
		t.Fatalf("postings exceed budget: %d > %d", total, n.cfg.PostingsBytes)
	}
}

func TestPostingLengthsAreSkewed(t *testing.T) {
	n := New(smallConfig())
	if n.postLen[0] <= n.postLen[n.cfg.Terms-1]*4 {
		t.Fatalf("no head/tail skew: head=%d tail=%d", n.postLen[0], n.postLen[n.cfg.Terms-1])
	}
}

func TestQueryLoopTouchesIndex(t *testing.T) {
	n := New(smallConfig())
	gens := n.Start(1, 2)
	defer gens[0].Close()
	insts := drain(t, gens[0], 120000)

	postLo, postHi := n.postings, n.postings+n.cfg.PostingsBytes
	metaLo, metaHi := n.docMeta.Base, n.docMeta.Base+n.docMeta.Bytes()
	var postingLoads, metaLoads, fpOps, kernel int
	for _, in := range insts {
		switch {
		case in.Op == trace.OpLoad && in.Addr >= postLo && in.Addr < postHi:
			postingLoads++
		case in.Op == trace.OpLoad && in.Addr >= metaLo && in.Addr < metaHi:
			metaLoads++
		}
		if in.Op == trace.OpFP {
			fpOps++
		}
		if in.Kernel {
			kernel++
		}
	}
	if postingLoads == 0 {
		t.Error("queries never scanned postings")
	}
	if metaLoads == 0 {
		t.Error("queries never fetched document metadata")
	}
	if fpOps == 0 {
		t.Error("no scoring floating-point work")
	}
	if kernel == 0 {
		t.Error("no OS activity for a network service")
	}
}

func TestPostingsScanIsMostlySequential(t *testing.T) {
	cfg := smallConfig()
	cfg.TermsPerQuery = 1 // single-term queries: one postings cursor
	n := New(cfg)
	gens := n.Start(1, 6)
	defer gens[0].Close()
	insts := drain(t, gens[0], 120000)
	postLo, postHi := n.postings, n.postings+n.cfg.PostingsBytes
	var last uint64
	seq, jumps := 0, 0
	for _, in := range insts {
		if in.Op != trace.OpLoad || in.Addr < postLo || in.Addr >= postHi {
			continue
		}
		if last != 0 {
			d := int64(in.Addr) - int64(last)
			if d >= 0 && d <= 64 {
				seq++
			} else {
				jumps++
			}
		}
		last = in.Addr
	}
	if seq == 0 || jumps == 0 {
		t.Fatalf("scan pattern degenerate: seq=%d jumps=%d", seq, jumps)
	}
	if float64(seq)/float64(seq+jumps) < 0.4 {
		t.Fatalf("postings scan not sequential enough: %d/%d", seq, seq+jumps)
	}
}
