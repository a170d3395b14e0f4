package engine

import (
	"testing"
	"time"

	"cloudsuite/internal/sim/cache"
)

// BenchmarkCycle64 times the engine's per-core cycle on a 4-socket x
// 16-core machine running 64 threads of a memory-bound synthetic stream
// (the scale-up shape, where most window entries wait on memory). It
// reports wall nanoseconds per simulated core-cycle, simulated
// instructions per wall-second, and awake-frac, the share of simulated
// core-cycles the cycle loop actually ticked (the rest were slept
// through); set-up and a short functional warm-up are inside the timer
// but small next to the timed window.
//
//	go test ./internal/sim/engine -run '^$' -bench Cycle64
func BenchmarkCycle64(b *testing.B) {
	cfg := RunConfig{
		Core: DefaultCoreConfig(), Mem: cache.DefaultSystemConfig(),
		WarmupInsts: 2_000, MeasureInsts: 3_000, MaxCycles: 10_000_000,
	}
	cfg.Mem.Sockets, cfg.Mem.CoresPerSocket = 4, 16
	threads := func() []Thread {
		ts := make([]Thread, 64)
		for i := range ts {
			s := baseMix(int64(100 + i))
			s.n, s.span = 4_096, 64<<20
			ts[i] = Thread{Gen: s.gen(), Core: i, Measured: true}
		}
		return ts
	}
	var coreCycles, ticks, insts uint64
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ts := threads()
		b.StartTimer()
		start := time.Now()
		res, ticked, err := runTicked(cfg, ts)
		elapsed += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		coreCycles += res.Total.Cycles
		ticks += ticked
		insts += res.Total.Commits()
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(coreCycles), "ns/core-cycle")
	b.ReportMetric(float64(insts)/elapsed.Seconds(), "sim-insts/s")
	b.ReportMetric(float64(ticks)/float64(coreCycles), "awake-frac")
}
