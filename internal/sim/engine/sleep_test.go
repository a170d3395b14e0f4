package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"cloudsuite/internal/trace"
)

// The sleep tests pin runs in which cores spend most cycles asleep to
// SHA-256 digests of their Result JSON, captured from an engine that
// ticked every core on every cycle. A wrong charge, a missed wake-up
// event or a lost round-robin step changes the digest.

// chaseGen is a pointer chase over 256 MB: every load misses to DRAM
// and depends on the one before, so a core idles between misses.
func chaseGen(seed int64) trace.Generator { return loadStream(seed, 256<<20, true, 100_000) }

// sleepRun runs threads and checks the digest of the result and the
// accounting laws.
func sleepRun(t *testing.T, name, digest string, cfg RunConfig, threads []Thread) (*Result, uint64) {
	t.Helper()
	res, ticks, err := runTicked(cfg, threads)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, name, res)
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != digest {
		t.Errorf("%s: result digest %s, want %s", name, got, digest)
	}
	return res, ticks
}

// TestSleepSkipsMemoryBoundCycles: a DRAM-bound pointer chase ticks
// fewer than half of its core-cycles and still reports every cycle.
func TestSleepSkipsMemoryBoundCycles(t *testing.T) {
	res, ticks := sleepRun(t, "chase", "c24939f5b99870a53036fbdd86f87c8577a186086b44b0a652ca7f4090e882c0",
		RunConfig{MeasureInsts: 5_000, MaxCycles: 20_000_000},
		[]Thread{{Gen: chaseGen(1), Core: 0, Measured: true}})
	if ticks*2 >= res.Total.Cycles {
		t.Fatalf("ticked %d of %d core-cycles, want under half", ticks, res.Total.Cycles)
	}
}

// TestSleepSMTContextDrainsEarly: two contexts share a core; one runs a
// short finite chase and drains while the other keeps chasing. The
// round-robin pointer advances across slept cycles exactly as it does
// when ticking, contiguous and sampled.
func TestSleepSMTContextDrainsEarly(t *testing.T) {
	threads := func() []Thread {
		short := loadStream(2, 256<<20, true, 800).(*trace.LoopGen).Insts
		return []Thread{
			{Gen: &trace.SliceGen{Insts: short}, Core: 0, Measured: true},
			{Gen: chaseGen(3), Core: 0, Measured: true},
			{Gen: baseMix(4).gen(), Core: 1, Measured: true},
		}
	}
	sleepRun(t, "smt-drain/contiguous", "98d8d39c2d3ab411065c8f540ab133e3386d6843b455ce862c5b0b2256a4c4ee",
		RunConfig{MeasureInsts: 3_000, MaxCycles: 20_000_000}, threads())
	sleepRun(t, "smt-drain/sampled", "8adf868687923d81425ece01d345befbe6fde58aaeab3d7f2c66bec47833b464",
		RunConfig{MeasureInsts: 500, MaxCycles: 20_000_000,
			Intervals: 4, IntervalWarmInsts: 1_000, DetailWarmInsts: 300}, threads())
}

// TestSleepTruncationDuringJump: with every core asleep when MaxCycles
// runs out, the jump stops at the truncation cycle, MaxCycles+1, as
// ticking does.
func TestSleepTruncationDuringJump(t *testing.T) {
	res, ticks := sleepRun(t, "truncated", "7ad0827ef35edbb10769feebf2a09554192a6c5bde315f5e11470218d318d37b",
		RunConfig{MeasureInsts: 5_000, MaxCycles: 1_000},
		[]Thread{{Gen: chaseGen(5), Core: 0, Measured: true}})
	if !res.Truncated || res.Cycles != 1_001 || res.PerCore[0].Cycles != 1_000 {
		t.Fatalf("truncated=%v after %d cycles (%d charged), want flagged at 1001 (1000)",
			res.Truncated, res.Cycles, res.PerCore[0].Cycles)
	}
	if ticks*2 >= 1_000 {
		t.Fatalf("ticked %d of 1000 core-cycles: the window did not end asleep", ticks)
	}
}

// TestSleepLoadQueueCutoff: one SMT context sits on a full load queue
// while the other runs mispredict-heavy code. When a redirect ends on a
// cycle whose round-robin visits the stalled context first, the
// frontend never reaches the other one, so the core must stay awake:
// next cycle the other context, visited first, dispatches.
func TestSleepLoadQueueCutoff(t *testing.T) {
	branchy := baseMix(7)
	branchy.loadFrac, branchy.storeFrac, branchy.branchFrac, branchy.randomBranches = 0, 0, 0.35, true
	cfg := RunConfig{Core: DefaultCoreConfig(), MeasureInsts: 4_000, MaxCycles: 20_000_000}
	cfg.Core.LoadQ = 8
	sleepRun(t, "load-queue-cutoff", "a5d48a798d8bb0713b7ab08072246bc475eda7d9cccd39f41e133f155cbe5f6d", cfg, []Thread{
		{Gen: loadStream(6, 256<<20, false, 100_000), Core: 0, Measured: true},
		{Gen: branchy.gen(), Core: 0, Measured: true},
	})
}
