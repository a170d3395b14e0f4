package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"cloudsuite/internal/sim/cache"
	"cloudsuite/internal/trace"
)

// mkRun executes threads with a small measurement budget.
func mkRun(t *testing.T, threads []Thread, measure int64) *Result {
	t.Helper()
	cfg := RunConfig{
		Core:         DefaultCoreConfig(),
		Mem:          cache.DefaultSystemConfig(),
		WarmupInsts:  0,
		MeasureInsts: measure,
		MaxCycles:    20_000_000,
	}
	res, err := Run(cfg, threads)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, t.Name(), res)
	return res
}

// aluStream builds a looped stream of ALU ops with the given dependence
// distance (0 = independent). A single PC line avoids I-cache effects.
func aluStream(dep uint8, n int) trace.Generator {
	insts := make([]trace.Inst, n)
	for i := range insts {
		d := dep
		if i < int(dep) {
			d = 0
		}
		insts[i] = trace.Inst{PC: 0x400000, Op: trace.OpALU, DepA: d}
	}
	return &trace.LoopGen{Insts: insts}
}

// loadStream builds a looped stream of loads over span bytes; dep=1
// chains each load's address on the previous one (pointer chasing).
func loadStream(seed int64, span uint64, chained bool, n int) trace.Generator {
	rng := rand.New(rand.NewSource(seed))
	insts := make([]trace.Inst, n)
	lines := span / 64
	for i := range insts {
		var d uint8
		if chained && i > 0 {
			d = 1
		}
		insts[i] = trace.Inst{
			PC: 0x400000, Op: trace.OpLoad,
			Addr: 0x4000_0000 + uint64(rng.Int63n(int64(lines)))*64,
			Size: 8, DepA: d, AcquiresDep: chained,
		}
	}
	return &trace.LoopGen{Insts: insts}
}

func TestIndependentALUReachesFullWidth(t *testing.T) {
	res := mkRun(t, []Thread{{Gen: aluStream(0, 1000), Core: 0, Measured: true}}, 40_000)
	ipc := res.Total.IPC()
	if ipc < 3.5 {
		t.Fatalf("independent ALU IPC = %.2f, want near width 4", ipc)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	res := mkRun(t, []Thread{{Gen: aluStream(1, 1000), Core: 0, Measured: true}}, 40_000)
	ipc := res.Total.IPC()
	if ipc < 0.7 || ipc > 1.4 {
		t.Fatalf("dependent chain IPC = %.2f, want near 1", ipc)
	}
}

func TestPointerChasingHasLowMLP(t *testing.T) {
	res := mkRun(t, []Thread{{Gen: loadStream(1, 256<<20, true, 100_000), Core: 0, Measured: true}}, 30_000)
	mlp := res.Total.MLP()
	if mlp > 1.6 {
		t.Fatalf("chained loads MLP = %.2f, want near 1", mlp)
	}
	if res.Total.StallFrac() < 0.5 {
		t.Fatalf("memory-bound chain stalls only %.2f of cycles", res.Total.StallFrac())
	}
	if res.Total.MemCycleFrac() < 0.5 {
		t.Fatalf("memory cycles %.2f, want majority", res.Total.MemCycleFrac())
	}
}

func TestIndependentLoadsSaturateMLP(t *testing.T) {
	res := mkRun(t, []Thread{{Gen: loadStream(2, 256<<20, false, 100_000), Core: 0, Measured: true}}, 30_000)
	mlp := res.Total.MLP()
	if mlp < 4 {
		t.Fatalf("independent loads MLP = %.2f, want >= 4", mlp)
	}
}

func TestSMTImprovesThroughputOfDependentThreads(t *testing.T) {
	solo := mkRun(t, []Thread{{Gen: aluStream(2, 1000), Core: 0, Measured: true}}, 40_000)
	smt := mkRun(t, []Thread{
		{Gen: aluStream(2, 1000), Core: 0, Measured: true},
		{Gen: aluStream(2, 1000), Core: 0, Measured: true},
	}, 40_000)
	// Per-core IPC with two contexts should clearly exceed one context.
	if smt.Total.IPC() < solo.Total.IPC()*1.3 {
		t.Fatalf("SMT IPC %.2f vs solo %.2f: no benefit", smt.Total.IPC(), solo.Total.IPC())
	}
}

func TestKernelInstructionsAttributeToOS(t *testing.T) {
	insts := make([]trace.Inst, 100)
	for i := range insts {
		insts[i] = trace.Inst{PC: 0xffff_ffff_8000_0000, Op: trace.OpALU, Kernel: true}
	}
	res := mkRun(t, []Thread{{Gen: &trace.LoopGen{Insts: insts}, Core: 0, Measured: true}}, 10_000)
	if res.Total.CommitOS == 0 || res.Total.CommitUser != 0 {
		t.Fatalf("attribution wrong: user=%d os=%d", res.Total.CommitUser, res.Total.CommitOS)
	}
	if res.Total.CommitCyclesOS == 0 {
		t.Fatal("no OS committing cycles recorded")
	}
}

func TestLargeCodeFootprintMissesICache(t *testing.T) {
	// Walk a 4MB code region: every line is new until wrap, far beyond
	// the 32KB L1-I.
	var insts []trace.Inst
	for pc := uint64(0x40_0000); pc < 0x40_0000+4<<20; pc += 64 {
		for k := uint64(0); k < 16; k++ {
			insts = append(insts, trace.Inst{PC: pc + k*4, Op: trace.OpALU})
		}
	}
	res := mkRun(t, []Thread{{Gen: &trace.LoopGen{Insts: insts}, Core: 0, Measured: true}}, 50_000)
	if mpki := res.Total.L1IMPKIUser(); mpki < 30 {
		t.Fatalf("L1-I MPKI = %.1f, want large (code sweep)", mpki)
	}
	if res.Total.L2IMPKIUser() < 10 {
		t.Fatalf("L2-I MPKI = %.1f, want large (4MB exceeds L2)", res.Total.L2IMPKIUser())
	}
}

func TestTinyLoopHitsICache(t *testing.T) {
	insts := make([]trace.Inst, 64)
	for i := range insts {
		insts[i] = trace.Inst{PC: 0x400000 + uint64(i)*4, Op: trace.OpALU}
	}
	res := mkRun(t, []Thread{{Gen: &trace.LoopGen{Insts: insts}, Core: 0, Measured: true}}, 50_000)
	if mpki := res.Total.L1IMPKIUser(); mpki > 1 {
		t.Fatalf("tiny loop L1-I MPKI = %.2f, want ~0", mpki)
	}
}

func TestPerThreadBudgetsHonored(t *testing.T) {
	res := mkRun(t, []Thread{
		{Gen: aluStream(0, 1000), Core: 0, Measured: true},
		{Gen: aluStream(0, 1000), Core: 1, Measured: true},
	}, 20_000)
	for i, n := range res.PerThread {
		if n < 20_000 {
			t.Errorf("thread %d committed %d, want >= 20000", i, n)
		}
	}
}

func TestUnmeasuredThreadDoesNotGateCompletion(t *testing.T) {
	res := mkRun(t, []Thread{
		{Gen: aluStream(0, 1000), Core: 0, Measured: true},
		{Gen: loadStream(3, 64<<20, true, 100_000), Core: 1, Measured: false},
	}, 20_000)
	if res.PerThread[0] < 20_000 {
		t.Fatalf("measured thread committed %d", res.PerThread[0])
	}
}

func TestFiniteStreamTerminates(t *testing.T) {
	insts := make([]trace.Inst, 5000)
	for i := range insts {
		insts[i] = trace.Inst{PC: 0x400000, Op: trace.OpALU}
	}
	res := mkRun(t, []Thread{{Gen: &trace.SliceGen{Insts: insts}, Core: 0, Measured: true}}, 1_000_000)
	if res.PerThread[0] != 5000 {
		t.Fatalf("committed %d, want exactly 5000", res.PerThread[0])
	}
}

func TestMispredictsSlowRandomBranches(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	mk := func(random bool) trace.Generator {
		insts := make([]trace.Inst, 10000)
		for i := range insts {
			taken := i%2 == 0
			if random {
				taken = rng.Intn(2) == 0
			}
			tgt := uint64(0x400000)
			insts[i] = trace.Inst{PC: 0x400000 + uint64(i%16)*4, Op: trace.OpBranch, Taken: taken, Target: tgt}
		}
		return &trace.LoopGen{Insts: insts}
	}
	pred := mkRun(t, []Thread{{Gen: mk(false), Core: 0, Measured: true}}, 30_000)
	rand_ := mkRun(t, []Thread{{Gen: mk(true), Core: 0, Measured: true}}, 30_000)
	if rand_.Total.MispredictRate() < pred.Total.MispredictRate()+0.2 {
		t.Fatalf("random branches mispredict %.2f vs patterned %.2f",
			rand_.Total.MispredictRate(), pred.Total.MispredictRate())
	}
	if rand_.Total.IPC() >= pred.Total.IPC() {
		t.Fatalf("mispredictions should cost IPC: random %.2f vs patterned %.2f",
			rand_.Total.IPC(), pred.Total.IPC())
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{}, nil); err == nil {
		t.Fatal("no threads should error")
	}
	g := aluStream(0, 10)
	if _, err := Run(RunConfig{}, []Thread{{Gen: g, Core: 99}}); err == nil {
		t.Fatal("out of range core should error")
	}
	if _, err := Run(RunConfig{}, []Thread{{Gen: g, Core: 0}, {Gen: g, Core: 0}, {Gen: g, Core: 0}}); err == nil {
		t.Fatal("three threads on one core should error")
	}
}

func TestWarmupExcludedFromCounters(t *testing.T) {
	// A stream over a 1MB data span: with warm-up, the measured window
	// should see far fewer cold misses than without.
	cold := mkRun(t, []Thread{{Gen: loadStream(5, 1<<20, false, 16384), Core: 0, Measured: true}}, 16_384)
	cfg := RunConfig{
		Core: DefaultCoreConfig(), Mem: cache.DefaultSystemConfig(),
		WarmupInsts: 40_000, MeasureInsts: 16_384, MaxCycles: 20_000_000,
	}
	warm, err := Run(cfg, []Thread{{Gen: loadStream(5, 1<<20, false, 16384), Core: 0, Measured: true}})
	if err != nil {
		t.Fatal(err)
	}
	coldMiss := float64(cold.Total.LLCMiss) / float64(cold.Total.Commits())
	warmMiss := float64(warm.Total.LLCMiss) / float64(warm.Total.Commits())
	if warmMiss > coldMiss*0.5 {
		t.Fatalf("warm-up ineffective: cold %.4f vs warm %.4f LLC misses/inst", coldMiss, warmMiss)
	}
}

// TestWarmupTrafficDoesNotQueueIntoWindow guards against warm-up DRAM
// traffic leaving channel backlog that inflates measured latencies
// (a bug found while reproducing Figure 4).
func TestWarmupTrafficDoesNotQueueIntoWindow(t *testing.T) {
	// A hungry co-runner whose warm-up floods DRAM.
	flood := loadStream(9, 64<<20, false, 200_000)
	victim := aluStream(0, 1000)
	cfg := RunConfig{
		Core: DefaultCoreConfig(), Mem: cache.DefaultSystemConfig(),
		WarmupInsts: 150_000, MeasureInsts: 20_000, MaxCycles: 10_000_000,
	}
	res, err := Run(cfg, []Thread{
		{Gen: victim, Core: 0, Measured: true},
		{Gen: flood, Core: 1, Measured: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The ALU victim never touches memory: its IPC must stay near the
	// machine width regardless of the co-runner's warm-up traffic.
	victimIPC := res.PerCore[0].IPC()
	if victimIPC < 3 {
		t.Fatalf("victim IPC %.2f: warm-up backlog leaked into the window", victimIPC)
	}
}

// TestSMTSharesStructuresFairly: two identical SMT contexts must make
// comparable progress (round-robin fetch/commit).
func TestSMTSharesStructuresFairly(t *testing.T) {
	res := mkRun(t, []Thread{
		{Gen: aluStream(1, 1000), Core: 0, Measured: true},
		{Gen: aluStream(1, 1000), Core: 0, Measured: true},
	}, 30_000)
	a, b := float64(res.PerThread[0]), float64(res.PerThread[1])
	if a/b > 1.2 || b/a > 1.2 {
		t.Fatalf("SMT contexts diverged: %v vs %v commits", a, b)
	}
}

// TestMSHRLimitBoundsMLP: the super queue caps outstanding misses.
func TestMSHRLimitBoundsMLP(t *testing.T) {
	cfg := RunConfig{
		Core: DefaultCoreConfig(), Mem: cache.DefaultSystemConfig(),
		MeasureInsts: 20_000, MaxCycles: 10_000_000,
	}
	cfg.Core.MSHRs = 4
	res, err := Run(cfg, []Thread{{Gen: loadStream(3, 256<<20, false, 100_000), Core: 0, Measured: true}})
	if err != nil {
		t.Fatal(err)
	}
	if mlp := res.Total.MLP(); mlp > 4.2 {
		t.Fatalf("MLP %.2f exceeds the 4-entry super queue", mlp)
	}
}

// TestSampledRunProducesIntervals: the sampling gate yields one counter
// delta per interval, and their sums are the run totals.
func TestSampledRunProducesIntervals(t *testing.T) {
	cfg := RunConfig{
		Core: DefaultCoreConfig(), Mem: cache.DefaultSystemConfig(),
		WarmupInsts: 10_000, MeasureInsts: 2_000, MaxCycles: 10_000_000,
		Intervals: 6, IntervalWarmInsts: 8_000,
	}
	res, err := Run(cfg, []Thread{{Gen: loadStream(7, 8<<20, false, 100_000), Core: 0, Measured: true}})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, t.Name(), res)
	if len(res.Intervals) != 6 {
		t.Fatalf("got %d intervals, want 6", len(res.Intervals))
	}
	var cyc int64
	var commits, busy uint64
	for i, iv := range res.Intervals {
		if iv.Cycles <= 0 {
			t.Fatalf("interval %d has %d cycles", i, iv.Cycles)
		}
		pc := iv.PerCore[0]
		if pc == nil {
			t.Fatalf("interval %d missing core 0 delta", i)
		}
		if pc.Commits() < 2_000 {
			t.Fatalf("interval %d committed %d, want >= budget 2000", i, pc.Commits())
		}
		cyc += iv.Cycles
		commits += pc.Commits()
		busy += iv.DRAMBusyCycles
	}
	if cyc != res.Cycles {
		t.Fatalf("interval cycles sum %d != total %d", cyc, res.Cycles)
	}
	if commits != res.PerCore[0].Commits() {
		t.Fatalf("interval commits sum %d != total %d", commits, res.PerCore[0].Commits())
	}
	if busy != res.Total.DRAMBusyCycles {
		t.Fatalf("interval DRAM busy sum %d != total %d", busy, res.Total.DRAMBusyCycles)
	}
	// Warming between intervals is excluded from the measured totals:
	// the run commits ~6 x 2000 timed instructions, far below the
	// warming volume it streamed.
	if got := res.PerCore[0].Commits(); got > 13_000 {
		t.Fatalf("measured commits %d include warming activity", got)
	}
}

// TestSampledRunKeepsDRAMChannels: the channel count is a machine
// constant, so a run's totals, every per-core block and every window's
// per-core delta report the machine's count, however many windows
// were summed into them.
func TestSampledRunKeepsDRAMChannels(t *testing.T) {
	mem := cache.DefaultSystemConfig()
	mem.Sockets = 2
	cfg := RunConfig{
		Core: DefaultCoreConfig(), Mem: mem,
		WarmupInsts: 5_000, MeasureInsts: 1_000, MaxCycles: 10_000_000,
		Intervals: 6, IntervalWarmInsts: 2_000,
	}
	res, err := Run(cfg, []Thread{
		{Gen: loadStream(7, 8<<20, false, 50_000), Core: 0, Measured: true},
		{Gen: loadStream(8, 8<<20, false, 50_000), Core: mem.CoresPerSocket, Measured: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(mem.DRAM.Channels * mem.Sockets)
	if len(res.Intervals) != 6 {
		t.Fatalf("got %d intervals, want 6", len(res.Intervals))
	}
	if res.Total.DRAMChannels != want {
		t.Errorf("Total reports %d DRAM channels, want %d", res.Total.DRAMChannels, want)
	}
	for id, pc := range res.PerCore {
		if pc != nil && pc.DRAMChannels != want {
			t.Errorf("PerCore[%d] reports %d DRAM channels, want %d", id, pc.DRAMChannels, want)
		}
	}
	for i, iv := range res.Intervals {
		for id, pc := range iv.PerCore {
			if pc != nil && pc.DRAMChannels != want {
				t.Errorf("Intervals[%d].PerCore[%d] reports %d DRAM channels, want %d", i, id, pc.DRAMChannels, want)
			}
		}
	}
}

// TestSampledMatchesContiguousShape: sampled and contiguous measurements
// of the same stream must agree on coarse metrics (same workload, warm
// state) while the sampled run measures far fewer instructions.
func TestSampledMatchesContiguousShape(t *testing.T) {
	mk := func() []Thread {
		return []Thread{{Gen: loadStream(11, 4<<20, false, 100_000), Core: 0, Measured: true}}
	}
	contig, err := Run(RunConfig{
		Core: DefaultCoreConfig(), Mem: cache.DefaultSystemConfig(),
		WarmupInsts: 20_000, MeasureInsts: 40_000, MaxCycles: 20_000_000,
	}, mk())
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Run(RunConfig{
		Core: DefaultCoreConfig(), Mem: cache.DefaultSystemConfig(),
		WarmupInsts: 20_000, MeasureInsts: 1_000, MaxCycles: 20_000_000,
		Intervals: 8, IntervalWarmInsts: 4_000,
	}, mk())
	if err != nil {
		t.Fatal(err)
	}
	ci, si := contig.Total.IPC(), sampled.Total.IPC()
	if si < ci*0.8 || si > ci*1.2 {
		t.Fatalf("sampled IPC %.3f strays from contiguous %.3f", si, ci)
	}
	if sampled.PerCore[0].Commits() > contig.PerCore[0].Commits()/4 {
		t.Fatalf("sampled run measured %d insts vs contiguous %d: no reduction",
			sampled.PerCore[0].Commits(), contig.PerCore[0].Commits())
	}
}

// TestAdaptiveStopCallback: StopSampling ends the run early and the
// result carries only the measured intervals.
func TestAdaptiveStopCallback(t *testing.T) {
	calls := 0
	cfg := RunConfig{
		Core: DefaultCoreConfig(), Mem: cache.DefaultSystemConfig(),
		MeasureInsts: 1_000, MaxCycles: 10_000_000,
		Intervals: 10, IntervalWarmInsts: 1_000,
		StopSampling: func(done []IntervalResult) bool {
			calls++
			return len(done) >= 3
		},
	}
	res, err := Run(cfg, []Thread{{Gen: aluStream(0, 1000), Core: 0, Measured: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) != 3 {
		t.Fatalf("adaptive run measured %d intervals, want 3", len(res.Intervals))
	}
	if calls != 3 {
		t.Fatalf("callback ran %d times, want 3", calls)
	}
}

// TestFiniteStreamStopsSampling: a drained trace ends the schedule
// instead of spinning through empty intervals.
func TestFiniteStreamStopsSampling(t *testing.T) {
	insts := make([]trace.Inst, 3_000)
	for i := range insts {
		insts[i] = trace.Inst{PC: 0x400000, Op: trace.OpALU}
	}
	cfg := RunConfig{
		Core: DefaultCoreConfig(), Mem: cache.DefaultSystemConfig(),
		MeasureInsts: 1_000, MaxCycles: 10_000_000,
		Intervals: 10, IntervalWarmInsts: 500,
	}
	res, err := Run(cfg, []Thread{{Gen: &trace.SliceGen{Insts: insts}, Core: 0, Measured: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) >= 10 {
		t.Fatalf("drained stream still ran %d intervals", len(res.Intervals))
	}
	if res.PerThread[0] > 3_000 {
		t.Fatalf("committed %d of a 3000-inst stream", res.PerThread[0])
	}
}

// TestBudgetGuards: non-positive budgets are rejected with clear errors
// instead of hanging the timed loop on a wrapped uint64 target.
func TestBudgetGuards(t *testing.T) {
	g := aluStream(0, 10)
	for _, cfg := range []RunConfig{
		{MeasureInsts: 0},
		{MeasureInsts: -5},
		{MeasureInsts: 100, WarmupInsts: -1},
		{MeasureInsts: 100, Intervals: -2},
		{MeasureInsts: 100, Intervals: 4, IntervalWarmInsts: -1},
	} {
		if _, err := Run(cfg, []Thread{{Gen: g, Core: 0, Measured: true}}); err == nil {
			t.Errorf("config %+v accepted, want budget error", cfg)
		}
	}
}

// TestROBBound: a ROB longer than trace.MaxDepDist is refused with an
// error, not simulated with the dependences its saturated distances
// would drop. The longest legal ROB runs.
func TestROBBound(t *testing.T) {
	cfg := RunConfig{
		Core:         DefaultCoreConfig(),
		Mem:          cache.DefaultSystemConfig(),
		MeasureInsts: 10_000,
		MaxCycles:    20_000_000,
	}
	cfg.Core.ROB = trace.MaxDepDist
	if _, err := Run(cfg, []Thread{{Gen: aluStream(trace.MaxDepDist, 1000), Core: 0, Measured: true}}); err != nil {
		t.Fatalf("ROB %d: %v", cfg.Core.ROB, err)
	}
	cfg.Core.ROB = trace.MaxDepDist + 1
	_, err := Run(cfg, []Thread{{Gen: aluStream(trace.MaxDepDist, 1000), Core: 0, Measured: true}})
	if err == nil || !strings.Contains(err.Error(), "ROB 256") {
		t.Fatalf("ROB 256: error %v, want a ROB bound error", err)
	}
}

// TestEntryFootprint pins a window entry at one 64-byte host cache line.
func TestEntryFootprint(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 64 {
		t.Errorf("a window entry is %d bytes, want 64", got)
	}
}

// TestRunTopologyValidation covers the topology validation that
// replaced the old blanket 32-core directory limit: malformed grids are
// rejected with real errors, and grids past the old ceiling run.
func TestRunTopologyValidation(t *testing.T) {
	g := aluStream(0, 10)
	run := func(mutate func(*cache.SystemConfig), core int) error {
		cfg := RunConfig{
			Core: DefaultCoreConfig(), Mem: cache.DefaultSystemConfig(),
			MeasureInsts: 500, MaxCycles: 1_000_000,
		}
		mutate(&cfg.Mem)
		_, err := Run(cfg, []Thread{{Gen: g, Core: core, Measured: true}})
		return err
	}
	if err := run(func(m *cache.SystemConfig) { m.Sockets = -1 }, 0); err == nil {
		t.Error("negative socket count must be rejected")
	}
	if err := run(func(m *cache.SystemConfig) { m.CoresPerSocket = 0 }, 0); err == nil {
		t.Error("zero cores per socket with nonzero sockets must be rejected")
	}
	if err := run(func(m *cache.SystemConfig) { m.Sockets, m.CoresPerSocket = 8, 64 }, 0); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("%d-core directory", cache.MaxCores)) {
		t.Errorf("a %d-core grid must be refused for the %d-core directory limit, got %v", 8*64, cache.MaxCores, err)
	}
	// The old engine refused any machine beyond 32 cores; a 4x16 grid
	// with a thread on core 40 must now simply run.
	if err := run(func(m *cache.SystemConfig) { m.Sockets, m.CoresPerSocket = 4, 16 }, 40); err != nil {
		t.Errorf("4x16-core grid rejected: %v", err)
	}
}
