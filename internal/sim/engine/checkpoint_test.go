package engine

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cloudsuite/internal/sim/cache"
	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/trace"
)

// mixedStream builds a looped stream with loads, stores, branches, and
// kernel instructions so warming exercises the caches, TLBs, branch
// predictor, prefetchers, and DRAM controllers.
func mixedStream(seed int64, span uint64, n int) trace.Generator {
	rng := rand.New(rand.NewSource(seed))
	insts := make([]trace.Inst, n)
	lines := span / 64
	for i := range insts {
		pc := 0x400000 + uint64(i%512)*4
		kernel := i%7 == 0
		switch i % 5 {
		case 0, 1:
			insts[i] = trace.Inst{
				PC: pc, Op: trace.OpLoad,
				Addr: 0x4000_0000 + uint64(rng.Int63n(int64(lines)))*64,
				Size: 8, Kernel: kernel,
			}
		case 2:
			insts[i] = trace.Inst{
				PC: pc, Op: trace.OpStore,
				Addr: 0x4000_0000 + uint64(rng.Int63n(int64(lines)))*64,
				Size: 8, Kernel: kernel,
			}
		case 3:
			taken := rng.Intn(3) == 0
			insts[i] = trace.Inst{PC: pc, Op: trace.OpBranch, Taken: taken, Target: pc + 16, Kernel: kernel}
		default:
			insts[i] = trace.Inst{PC: pc, Op: trace.OpALU, DepA: 1, Kernel: kernel}
		}
	}
	return &trace.LoopGen{Insts: insts}
}

// twoSocketThreads builds a fresh, deterministic 2-socket thread set.
// Threads share part of their address span so warming leaves directory
// state (sharers, owners) behind for the snapshot to carry.
func twoSocketThreads() []Thread {
	return []Thread{
		{Gen: mixedStream(1, 1<<22, 4096), Core: 0, Measured: true},
		{Gen: mixedStream(2, 1<<22, 4096), Core: 1, Measured: true},
		{Gen: mixedStream(3, 1<<22, 4096), Core: 6, Measured: true},
		{Gen: mixedStream(4, 1<<22, 4096), Core: 7, Measured: true},
	}
}

func twoSocketConfig() RunConfig {
	mem := cache.DefaultSystemConfig()
	mem.Sockets = 2
	return RunConfig{
		Core:         DefaultCoreConfig(),
		Mem:          mem,
		WarmupInsts:  30_000,
		MeasureInsts: 8_000,
		MaxCycles:    20_000_000,
	}
}

func TestCheckpointRestoreMatchesWarmRun(t *testing.T) {
	cold, err := Run(twoSocketConfig(), twoSocketThreads())
	if err != nil {
		t.Fatal(err)
	}

	var snap *checkpoint.Snapshot
	cfg := twoSocketConfig()
	cfg.Checkpoint = func(s *checkpoint.Snapshot) { snap = s }
	cfg.CheckpointKey = "engine-test"
	saved, err := Run(cfg, twoSocketThreads())
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("Checkpoint callback never fired")
	}
	if snap.Key() != "engine-test" {
		t.Fatalf("snapshot key = %q", snap.Key())
	}
	if !reflect.DeepEqual(cold, saved) {
		t.Fatal("taking a checkpoint changed the measurement")
	}

	rcfg := twoSocketConfig()
	rcfg.Restore = snap
	restored, err := Run(rcfg, twoSocketThreads())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, restored) {
		t.Fatalf("restored run differs from cold run:\ncold     = %+v\nrestored = %+v", cold.Total, restored.Total)
	}
}

func TestCheckpointRestoreMatchesSampledRun(t *testing.T) {
	sampled := func(c RunConfig) RunConfig {
		c.Intervals = 3
		c.IntervalWarmInsts = 4_000
		c.DetailWarmInsts = 500
		c.MeasureInsts = 2_000
		return c
	}

	cold, err := Run(sampled(twoSocketConfig()), twoSocketThreads())
	if err != nil {
		t.Fatal(err)
	}

	var snap *checkpoint.Snapshot
	cfg := sampled(twoSocketConfig())
	cfg.Checkpoint = func(s *checkpoint.Snapshot) { snap = s }
	if _, err := Run(cfg, twoSocketThreads()); err != nil {
		t.Fatal(err)
	}

	rcfg := sampled(twoSocketConfig())
	rcfg.Restore = snap
	restored, err := Run(rcfg, twoSocketThreads())
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Intervals) != len(cold.Intervals) {
		t.Fatalf("restored run has %d intervals, cold has %d", len(restored.Intervals), len(cold.Intervals))
	}
	if !reflect.DeepEqual(cold, restored) {
		t.Fatal("restored sampled run differs from cold sampled run")
	}
}

func TestCheckpointSnapshotIsDeterministic(t *testing.T) {
	take := func() *checkpoint.Snapshot {
		var snap *checkpoint.Snapshot
		cfg := twoSocketConfig()
		cfg.Checkpoint = func(s *checkpoint.Snapshot) { snap = s }
		if _, err := Run(cfg, twoSocketThreads()); err != nil {
			t.Fatal(err)
		}
		return snap
	}
	a, b := take(), take()
	if a.Hash() != b.Hash() {
		t.Fatal("identical warm runs produced different snapshot content hashes")
	}
}

func TestRestoreRejectsMismatchedConfiguration(t *testing.T) {
	var snap *checkpoint.Snapshot
	cfg := twoSocketConfig()
	cfg.Checkpoint = func(s *checkpoint.Snapshot) { snap = s }
	if _, err := Run(cfg, twoSocketThreads()); err != nil {
		t.Fatal(err)
	}

	// Warm budget mismatch.
	bad := twoSocketConfig()
	bad.WarmupInsts = 10_000
	bad.Restore = snap
	if _, err := Run(bad, twoSocketThreads()); err == nil || !strings.Contains(err.Error(), "warmed") {
		t.Fatalf("warm-budget mismatch not rejected: %v", err)
	}

	// Machine geometry mismatch (different LLC size changes line counts).
	bad = twoSocketConfig()
	bad.Mem.LLC.SizeBytes = 6 << 20
	bad.Restore = snap
	if _, err := Run(bad, twoSocketThreads()); err == nil {
		t.Fatal("LLC geometry mismatch not rejected")
	}

	// Thread-set mismatch (fewer active cores).
	bad = twoSocketConfig()
	bad.Restore = snap
	if _, err := Run(bad, twoSocketThreads()[:2]); err == nil || !strings.Contains(err.Error(), "cores") {
		t.Fatalf("core-count mismatch not rejected: %v", err)
	}
}

// TestCheckpointNeedsSerializableGenerators: a checkpointed or
// restored run whose generator cannot serialize its state — here a
// StepGen over a plain ProgFunc — fails at Run start, before any
// warming, instead of writing an image it could not restore.
func TestCheckpointNeedsSerializableGenerators(t *testing.T) {
	fn := trace.NewCodeLayout(0x40_0000, 1<<20).Func("plain", 64)
	threads := func() []Thread {
		prog := trace.ProgFunc(func(e *trace.Emitter) bool {
			e.Call(fn)
			e.ALUIndep(8)
			e.Ret()
			return true
		})
		return []Thread{
			{Gen: mixedStream(1, 1<<22, 4096), Core: 0, Measured: true},
			{Gen: trace.NewStepGen(trace.EmitterConfig{Seed: 1}, prog), Core: 1, Measured: true},
		}
	}
	var snap *checkpoint.Snapshot
	good := twoSocketConfig()
	good.Checkpoint = func(s *checkpoint.Snapshot) { snap = s }
	if _, err := Run(good, twoSocketThreads()); err != nil {
		t.Fatal(err)
	}

	save := twoSocketConfig()
	fired := false
	save.Checkpoint = func(*checkpoint.Snapshot) { fired = true }
	restore := twoSocketConfig()
	restore.Restore = snap
	for name, cfg := range map[string]RunConfig{"checkpoint": save, "restore": restore} {
		_, err := Run(cfg, threads())
		if err == nil || !strings.Contains(err.Error(), "thread 1") || !strings.Contains(err.Error(), "cannot serialize") {
			t.Errorf("%s: unserializable generator not rejected at start: %v", name, err)
		}
	}
	if fired {
		t.Fatal("Checkpoint fired for a run with an unserializable generator")
	}
	// Without checkpointing the same threads run normally.
	if _, err := Run(twoSocketConfig(), threads()); err != nil {
		t.Fatalf("uncheckpointed run rejected: %v", err)
	}
}

// ctrShared is the trivially-serializable shared half of the live-image
// test workload below.
type ctrShared struct {
	fn   *trace.Func // construction-time code layout
	hits uint64
}

func newCtrShared() *ctrShared {
	code := trace.NewCodeLayout(0x40_0000, 1<<20)
	return &ctrShared{fn: code.Func("ctr_main", 400)}
}

func (s *ctrShared) SaveShared(w *checkpoint.Writer) {
	w.Tag("ctr.shared")
	w.U64(s.hits)
}

func (s *ctrShared) LoadShared(rd *checkpoint.Reader) {
	rd.Expect("ctr.shared")
	s.hits = rd.U64()
}

// ctrProg is a minimal Stateful program: its emitted stream depends on
// both per-thread state (n) and shared state (hits), so a pure-load
// restore that missed either would diverge from the cold run.
type ctrProg struct {
	s *ctrShared // shared half, serialized via SaveShared
	n uint64
}

func (p *ctrProg) Init(e *trace.Emitter) { e.Call(p.s.fn) }

func (p *ctrProg) Step(e *trace.Emitter) bool {
	addr := 0x4000_0000 + ((p.n*97+p.s.hits*31)%(1<<16))*64
	v := e.Load(addr, 8, trace.NoVal, false)
	e.Store(addr+8, 8, v, trace.NoVal)
	e.ALUIndep(3)
	p.n++
	p.s.hits++
	return true
}

func (p *ctrProg) SaveState(w *checkpoint.Writer) {
	w.Tag("ctr.prog")
	w.U64(p.n)
}

func (p *ctrProg) LoadState(rd *checkpoint.Reader) {
	rd.Expect("ctr.prog")
	p.n = rd.U64()
}

// liveSetup builds a fresh shared state plus two StepGen threads, and a
// config wired for live-flavor checkpoints.
func liveSetup() (RunConfig, []Thread) {
	s := newCtrShared()
	mk := func(seed int64) *trace.StepGen {
		return trace.NewStepGen(trace.EmitterConfig{Seed: seed, BlockLen: 8}, &ctrProg{s: s})
	}
	cfg := twoSocketConfig()
	cfg.SaveShared = s.SaveShared
	cfg.LoadShared = s.LoadShared
	return cfg, []Thread{
		{Gen: mk(11), Core: 0, Measured: true},
		{Gen: mk(12), Core: 1, Measured: true},
	}
}

// TestLiveImageRestoresByPureLoad: with serializable generators and
// shared state, the image carries the generator half, and a restored
// run — whose fresh generators are never advanced — reproduces the cold
// run exactly. The warm budget deliberately leaves part of a lent batch
// unfetched, so the image's lent count and re-lending are exercised.
func TestLiveImageRestoresByPureLoad(t *testing.T) {
	coldCfg, coldThreads := liveSetup()
	cold, err := Run(coldCfg, coldThreads)
	if err != nil {
		t.Fatal(err)
	}

	var snap *checkpoint.Snapshot
	saveCfg, saveThreads := liveSetup()
	saveCfg.Checkpoint = func(s *checkpoint.Snapshot) { snap = s }
	saved, err := Run(saveCfg, saveThreads)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("Checkpoint callback never fired")
	}
	if !reflect.DeepEqual(cold, saved) {
		t.Fatal("taking a live checkpoint changed the measurement")
	}

	restCfg, restThreads := liveSetup()
	restCfg.Restore = snap
	restored, err := Run(restCfg, restThreads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, restored) {
		t.Fatalf("pure-load restore differs from cold run:\ncold     = %+v\nrestored = %+v",
			cold.Total, restored.Total)
	}
}

// TestLiveImageNeedsLoader: restoring a live image into a run that
// cannot load shared state must fail loudly, not misread the shared
// state as the first generator's.
func TestLiveImageNeedsLoader(t *testing.T) {
	var snap *checkpoint.Snapshot
	saveCfg, saveThreads := liveSetup()
	saveCfg.Checkpoint = func(s *checkpoint.Snapshot) { snap = s }
	if _, err := Run(saveCfg, saveThreads); err != nil {
		t.Fatal(err)
	}

	restCfg, restThreads := liveSetup()
	restCfg.Restore = snap
	restCfg.LoadShared = nil
	if _, err := Run(restCfg, restThreads); err == nil || !strings.Contains(err.Error(), "live image") {
		t.Fatalf("live image without a loader not rejected: %v", err)
	}
}
