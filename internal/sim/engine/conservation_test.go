package engine

import (
	"testing"

	"cloudsuite/internal/sim/cache"
	"cloudsuite/internal/sim/counters"
)

// checkConservation asserts the cycle-accounting laws on every core of
// a result and, for sampled runs, that the per-window deltas sum to the
// per-core totals.
func checkConservation(t *testing.T, name string, res *Result) {
	t.Helper()
	for id, pc := range res.PerCore {
		if pc == nil {
			continue
		}
		if err := pc.Conservation(); err != nil {
			t.Errorf("%s: core %d: %v", name, id, err)
		}
		if len(res.Intervals) == 0 {
			continue
		}
		var sum counters.Counters
		for i, iv := range res.Intervals {
			if err := iv.PerCore[id].Conservation(); err != nil {
				t.Errorf("%s: interval %d core %d: %v", name, i, id, err)
			}
			sum.Add(iv.PerCore[id])
		}
		if sum != *pc {
			t.Errorf("%s: core %d interval deltas do not sum to its totals:\nsum   %+v\ntotal %+v", name, id, sum, *pc)
		}
	}
	if err := res.Total.Conservation(); err != nil {
		t.Errorf("%s: total: %v", name, err)
	}
}

// TestConservationGoldenMatrix checks the accounting laws on every run
// of the issue-scheduler golden matrix.
func TestConservationGoldenMatrix(t *testing.T) {
	for name, res := range issueRuns(t) {
		checkConservation(t, name, res)
	}
}

// TestMaxCyclesTruncation: a window cut short by MaxCycles is flagged,
// keeps the stop cycle at MaxCycles+1, and still obeys the accounting
// laws; an untruncated run is not flagged.
func TestMaxCyclesTruncation(t *testing.T) {
	run := func(maxCycles int64, intervals int) *Result {
		t.Helper()
		cfg := RunConfig{
			Core: DefaultCoreConfig(), Mem: cache.DefaultSystemConfig(),
			MeasureInsts: 5_000, MaxCycles: maxCycles,
			Intervals: intervals, IntervalWarmInsts: 1_000, DetailWarmInsts: 500,
		}
		res, err := Run(cfg, []Thread{{Gen: loadStream(3, 256<<20, true, 10_000), Core: 0, Measured: true}})
		if err != nil {
			t.Fatal(err)
		}
		checkConservation(t, "truncation", res)
		return res
	}
	cut := run(100, 0)
	if !cut.Truncated {
		t.Fatal("contiguous window past MaxCycles not flagged")
	}
	if cut.Cycles != 101 || cut.PerCore[0].Cycles != 100 {
		t.Fatalf("truncated window spans %d cycles (%d ticked), want 101 (100)", cut.Cycles, cut.PerCore[0].Cycles)
	}
	sampled := run(100, 3)
	if !sampled.Truncated || len(sampled.Intervals) != 3 {
		t.Fatalf("sampled run: truncated=%v over %d intervals, want flagged over 3", sampled.Truncated, len(sampled.Intervals))
	}
	for i, iv := range sampled.Intervals {
		if !iv.Truncated || iv.Cycles != 101 {
			t.Errorf("interval %d: truncated=%v cycles=%d, want flagged at 101", i, iv.Truncated, iv.Cycles)
		}
	}
	if full := run(20_000_000, 0); full.Truncated {
		t.Fatal("window that met its budget flagged truncated")
	}
}
