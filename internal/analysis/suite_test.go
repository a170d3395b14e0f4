package analysis_test

import (
	"testing"

	"cloudsuite/internal/analysis"
	"cloudsuite/internal/analysis/analysistest"
)

// Each analyzer must fail its fixture without the check: the fixtures
// carry // want expectations (including the seeded StreamI and
// DebugSharing bug reproductions), and analysistest fails on both
// missing and unexpected diagnostics.

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.MapOrder,
		"internal/sim/streami", // seeded StreamI map-iteration eviction bug
		"tools",                // outside the guarded roots: must stay silent
	)
}

func TestGlobalRand(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.GlobalRand,
		"internal/sim/debugcache",        // seeded DebugSharing package-global bug
		"internal/workloads/lockedstore", // locks and atomics in workload state
		"internal/core/atomiccall",       // call-style sync/atomic outside simulation state
		"tools",                          // outside the guarded roots: must stay silent
	)
}

func TestCheckpointCov(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.CheckpointCov, "ckpt")
}

func TestMemoKey(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.MemoKey, "memo")
}

func TestLockField(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.LockField,
		"internal/core/lockrepro", // seeded RunnerStats unpaired-transition race
	)
}

func TestObsPure(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ObsPure,
		"internal/obs/badobs",  // synthetic obs→engine write
		"internal/sim/obsuser", // armed-side API reached from engine code
	)
}

func TestClockTaint(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ClockTaint,
		"internal/sim/clockrepro", // laundered time.Now into seed/key/branch/checkpoint
	)
}

func TestStaleSuppressions(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.MapOrder,
		"internal/sim/staleok", // dead and typo'd //simlint:ok annotations
	)
}
