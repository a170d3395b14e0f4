package engine

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"cloudsuite/internal/sim/cache"
	"cloudsuite/internal/trace"
)

// This file is the differential wall around the issue scheduler: golden
// Result JSON captured from the window-rescanning scheduler is committed
// under testdata/, and the wakeup/select scheduler must reproduce those
// exact bytes. The matrix targets core configurations and stream shapes
// the workload-level goldens never reach: odd and SMT-split windows, a
// one-entry super queue, widths 1 and 8, DepA == DepB, dependence
// distances past the window, pure pointer chasing, and mispredict-heavy
// control flow — each contiguous and sampled with detailed warming.
//
// Regenerate (only when an intentional model change invalidates the
// baseline — never to paper over a diff):
//
//	go test ./internal/sim/engine -run TestIssueGolden -update-issue-golden

var updateIssueGolden = flag.Bool("update-issue-golden", false,
	"rewrite testdata/issue_golden.json from the current tree")

const issueGoldenPath = "testdata/issue_golden.json"

// mixSpec describes a synthetic looped stream mixing every op class.
type mixSpec struct {
	seed int64
	n    int
	// span is the data footprint in bytes; codeLines the I-side one.
	span      uint64
	codeLines int
	// loadFrac, storeFrac, branchFrac, mulFrac, fpFrac are op-class
	// shares; the rest are ALU ops.
	loadFrac, storeFrac, branchFrac, mulFrac, fpFrac float64
	// depFrac is the share of instructions with a DepA drawn from
	// [1, maxDep]; sameDepFrac of those also set DepB == DepA, and
	// otherDepFrac draw an independent DepB. Drawn distances saturate
	// as the emitter's do (trace.DepDist).
	depFrac, sameDepFrac, otherDepFrac float64
	maxDep                             int32
	// chaseFrac is the share of loads chained on the previous load.
	chaseFrac float64
	// randomBranches draws branch outcomes at random (mispredict-heavy)
	// instead of a learnable alternating pattern.
	randomBranches bool
	// kernelFrac is the share of 64-instruction blocks run in OS mode.
	kernelFrac float64
}

func (s mixSpec) gen() trace.Generator {
	rng := rand.New(rand.NewSource(s.seed))
	insts := make([]trace.Inst, s.n)
	lines := s.span / 64
	lastLoad := -1
	kernel := false
	for i := range insts {
		if i%64 == 0 {
			kernel = rng.Float64() < s.kernelFrac
		}
		pc := uint64(0x40_0000) + uint64(i%(s.codeLines*16))*4
		if kernel {
			pc = 0xffff_ffff_8000_0000 + uint64(i%(s.codeLines*16))*4
		}
		in := trace.Inst{PC: pc, Kernel: kernel, Op: trace.OpALU}
		switch r := rng.Float64(); {
		case r < s.loadFrac:
			in.Op = trace.OpLoad
		case r < s.loadFrac+s.storeFrac:
			in.Op = trace.OpStore
		case r < s.loadFrac+s.storeFrac+s.branchFrac:
			in.Op = trace.OpBranch
		case r < s.loadFrac+s.storeFrac+s.branchFrac+s.mulFrac:
			in.Op = trace.OpMul
		case r < s.loadFrac+s.storeFrac+s.branchFrac+s.mulFrac+s.fpFrac:
			in.Op = trace.OpFP
		}
		if rng.Float64() < s.depFrac {
			in.DepA = trace.DepDist(int64(1 + rng.Int31n(s.maxDep)))
			switch r := rng.Float64(); {
			case r < s.sameDepFrac:
				in.DepB = in.DepA
			case r < s.sameDepFrac+s.otherDepFrac:
				in.DepB = trace.DepDist(int64(1 + rng.Int31n(s.maxDep)))
			}
		}
		switch in.Op {
		case trace.OpLoad, trace.OpStore:
			in.Addr = 0x4000_0000 + uint64(rng.Int63n(int64(lines)))*64
			in.Size = 8
			if in.Op == trace.OpLoad {
				if lastLoad >= 0 && rng.Float64() < s.chaseFrac {
					in.DepA = trace.DepDist(int64(i - lastLoad))
					in.AcquiresDep = true
				}
				lastLoad = i
			}
		case trace.OpBranch:
			in.Taken = i%2 == 0
			if s.randomBranches {
				in.Taken = rng.Intn(2) == 0
			}
			in.Target = pc + 64
			in.Uncond = rng.Float64() < 0.1
		}
		insts[i] = in
	}
	return &trace.LoopGen{Insts: insts}
}

// baseMix is the default synthetic stream: a server-like op mix with
// short dependences, some sharing an operand, over a 2 MB data span.
func baseMix(seed int64) mixSpec {
	return mixSpec{
		seed: seed, n: 20_000, span: 2 << 20, codeLines: 256,
		loadFrac: 0.25, storeFrac: 0.1, branchFrac: 0.15, mulFrac: 0.05, fpFrac: 0.05,
		depFrac: 0.7, sameDepFrac: 0.2, otherDepFrac: 0.4, maxDep: 12,
		chaseFrac: 0.2, kernelFrac: 0.25,
	}
}

// issueCase is one golden configuration: a core config plus the threads
// it runs.
type issueCase struct {
	core    func(*CoreConfig)
	threads func() []Thread
}

func issueMatrix() map[string]issueCase {
	one := func(s mixSpec) func() []Thread {
		return func() []Thread { return []Thread{{Gen: s.gen(), Core: 0, Measured: true}} }
	}
	keep := func(*CoreConfig) {}
	m := map[string]issueCase{}

	m["rob37"] = issueCase{func(c *CoreConfig) { c.ROB = 37 }, one(baseMix(1))}
	m["rob37-smt"] = issueCase{func(c *CoreConfig) { c.ROB = 37 }, func() []Thread {
		return []Thread{
			{Gen: baseMix(2).gen(), Core: 0, Measured: true},
			{Gen: baseMix(3).gen(), Core: 0, Measured: true},
			{Gen: baseMix(4).gen(), Core: 1, Measured: true},
		}
	}}
	loads := baseMix(5)
	loads.loadFrac, loads.storeFrac, loads.chaseFrac, loads.span = 0.5, 0.05, 0, 64<<20
	m["mshr1"] = issueCase{func(c *CoreConfig) { c.MSHRs = 1 }, one(loads)}
	m["width1"] = issueCase{func(c *CoreConfig) { c.Width = 1 }, one(baseMix(6))}
	// A high-ILP stream over an L1-resident footprint keeps the issue
	// budget binding, so selection order decides which entries issue.
	wide := baseMix(7)
	wide.loadFrac, wide.storeFrac, wide.branchFrac = 0.2, 0.05, 0.05
	wide.depFrac, wide.chaseFrac, wide.kernelFrac, wide.span = 0.5, 0, 0, 16<<10
	m["width8"] = issueCase{func(c *CoreConfig) { c.Width = 8 }, one(wide)}
	m["ilp"] = issueCase{keep, one(wide)}
	m["ilp-smt-rob37"] = issueCase{func(c *CoreConfig) { c.ROB = 37 }, func() []Thread {
		w2 := wide
		w2.seed = 15
		return []Thread{
			{Gen: wide.gen(), Core: 0, Measured: true},
			{Gen: w2.gen(), Core: 0, Measured: true},
		}
	}}
	same := baseMix(8)
	same.depFrac, same.sameDepFrac, same.otherDepFrac = 1, 1, 0
	m["dep-a-eq-b"] = issueCase{keep, one(same)}
	far := baseMix(9)
	far.depFrac, far.maxDep = 0.8, 600
	m["dep-past-window"] = issueCase{keep, one(far)}
	m["dep-past-window-rob37"] = issueCase{func(c *CoreConfig) { c.ROB = 37 }, one(far)}
	chase := baseMix(10)
	chase.loadFrac, chase.storeFrac, chase.branchFrac, chase.mulFrac, chase.fpFrac = 1, 0, 0, 0, 0
	chase.depFrac, chase.chaseFrac, chase.span = 0, 1, 256<<20
	m["pointer-chase"] = issueCase{keep, one(chase)}
	br := baseMix(11)
	br.branchFrac, br.randomBranches = 0.35, true
	m["mispredict"] = issueCase{keep, one(br)}
	m["mispredict-smt"] = issueCase{keep, func() []Thread {
		b2 := br
		b2.seed = 12
		return []Thread{
			{Gen: br.gen(), Core: 0, Measured: true},
			{Gen: b2.gen(), Core: 0, Measured: true},
		}
	}}
	m["multicore-helper"] = issueCase{keep, func() []Thread {
		return []Thread{
			{Gen: baseMix(13).gen(), Core: 0, Measured: true},
			{Gen: chase.gen(), Core: 1, Measured: true},
			{Gen: loads.gen(), Core: 2, Measured: false},
			{Gen: baseMix(14).gen(), Core: 3, Measured: true},
			{Gen: wide.gen(), Core: 3, Measured: true},
		}
	}}
	return m
}

// issueRuns runs every golden configuration contiguous and sampled.
func issueRuns(t *testing.T) map[string]*Result {
	t.Helper()
	out := map[string]*Result{}
	for name, c := range issueMatrix() {
		for _, sampled := range []bool{false, true} {
			cfg := RunConfig{
				Core: DefaultCoreConfig(), Mem: cache.DefaultSystemConfig(),
				WarmupInsts: 20_000, MeasureInsts: 8_000, MaxCycles: 5_000_000,
			}
			key := name + "/contiguous"
			if sampled {
				cfg.MeasureInsts = 2_000
				cfg.Intervals, cfg.IntervalWarmInsts, cfg.DetailWarmInsts = 4, 3_000, 1_000
				key = name + "/sampled"
			}
			c.core(&cfg.Core)
			res, err := Run(cfg, c.threads())
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			out[key] = res
		}
	}
	return out
}

// TestIssueGolden proves the issue scheduler byte-identical to the
// committed baseline on every configuration of the matrix.
func TestIssueGolden(t *testing.T) {
	runs := issueRuns(t)
	names := make([]string, 0, len(runs))
	got := make(map[string]json.RawMessage, len(runs))
	for name, res := range runs {
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = b
		names = append(names, name)
	}
	sort.Strings(names)

	if *updateIssueGolden {
		out, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(issueGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(issueGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden results to %s", len(got), issueGoldenPath)
		return
	}

	raw, err := os.ReadFile(issueGoldenPath)
	if err != nil {
		t.Fatalf("missing golden baseline (run with -update-issue-golden on a known-good tree): %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	compact := func(r json.RawMessage) string {
		var buf bytes.Buffer
		if err := json.Compact(&buf, r); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: configuration missing from the golden baseline", name)
			continue
		}
		if compact(got[name]) != compact(w) {
			t.Errorf("%s: result drifted from the baseline\nwant = %s\ngot  = %s", name, w, got[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden configuration no longer produced by the matrix", name)
		}
	}
}
