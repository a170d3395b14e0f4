package mapreduce

import (
	"testing"

	"cloudsuite/internal/trace"
)

func smallConfig() Config {
	return Config{SplitBytes: 1 << 20, VocabTerms: 4096, Labels: 16, DocBytes: 600, FrameworkInsts: 400}
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

func TestMapTasksAreIndependent(t *testing.T) {
	j := New(smallConfig())
	gens := j.Start(2, 11)
	defer func() {
		for _, g := range gens {
			g.Close()
		}
	}()
	// Collect the user-mode data addresses of each task; the paper notes
	// map tasks share nothing architecturally.
	sets := make([]map[uint64]bool, 2)
	for i, g := range gens {
		sets[i] = map[uint64]bool{}
		for _, in := range drain(t, g, 60000) {
			if !in.Kernel && in.Op.IsMem() {
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
	// Thread stacks aside, overlap must be negligible.
	if frac := float64(shared) / float64(len(sets[0])); frac > 0.02 {
		t.Fatalf("map tasks share %.1f%% of their data lines", 100*frac)
	}
}

func TestTokenizeScansSequentially(t *testing.T) {
	j := New(smallConfig())
	gens := j.Start(1, 4)
	defer gens[0].Close()
	insts := drain(t, gens[0], 100000)
	// Measure sequentiality over user loads: MapReduce is the scan-heavy
	// scale-out workload (it alone benefits from prefetchers, Fig. 5).
	var last uint64
	seq, total := 0, 0
	for _, in := range insts {
		if in.Kernel || in.Op != trace.OpLoad {
			continue
		}
		if last != 0 {
			d := int64(in.Addr) - int64(last)
			if d >= 0 && d <= 64 {
				seq++
			}
			total++
		}
		last = in.Addr
	}
	if total == 0 || float64(seq)/float64(total) < 0.25 {
		t.Fatalf("tokenizer scan not sequential: %d/%d", seq, total)
	}
}

func TestUsesFileSystemThroughOS(t *testing.T) {
	j := New(smallConfig())
	gens := j.Start(1, 4)
	defer gens[0].Close()
	kernel := 0
	insts := drain(t, gens[0], 60000)
	for _, in := range insts {
		if in.Kernel {
			kernel++
		}
	}
	if kernel == 0 {
		t.Fatal("map task never entered the OS (record reader uses the file system)")
	}
	// But the OS share must be small: the task is compute-dominated.
	if frac := float64(kernel) / float64(len(insts)); frac > 0.30 {
		t.Fatalf("OS share %.2f too high for MapReduce", frac)
	}
}

func TestFPScoringPresent(t *testing.T) {
	j := New(smallConfig())
	gens := j.Start(1, 4)
	defer gens[0].Close()
	fp := 0
	for _, in := range drain(t, gens[0], 60000) {
		if in.Op == trace.OpFP {
			fp++
		}
	}
	if fp == 0 {
		t.Fatal("naive-Bayes scoring emitted no floating-point work")
	}
}
