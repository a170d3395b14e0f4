package trace_test

import (
	"strings"
	"testing"

	"cloudsuite/internal/core"
)

const (
	// Each bench is started with emitThreads threads; one op pulls
	// emitRounds rounds of one emitBatch-instruction batch (the engine's
	// batch size) from every thread: a fixed 131,072 instructions. A
	// workload step can emit thousands of instructions at once, so an op
	// spans many steps.
	emitThreads = 4
	emitRounds  = 8
	emitBatch   = 4096
	emitPerOp   = emitThreads * emitRounds * emitBatch
	// emitWarm is how many ops run untimed after Start, so the timed
	// ops see the streams in steady state rather than their cold start.
	emitWarm = 2
)

// BenchmarkEmit times trace generation alone, one sub-benchmark per
// scale-out bench. Each starts the bench's Start(4, 1) streams and warms
// them untimed; one op then pulls emitPerOp instructions in batches, one
// thread after another as the engine pulls them. ns/op is thus a fixed
// amount of work, and ns/inst is ns/op over emitPerOp. Start, the
// warm-up and Close are outside the timer.
//
// To compare two builds of one bench, build each test binary once and
// alternate short runs of them, so host drift hits both alike:
//
//	go test -c -o emit.test ./internal/trace
//	./emit.test -test.run '^$' -test.bench 'Emit/Web_Search$' -test.benchtime 20x -test.count 1
func BenchmarkEmit(b *testing.B) {
	for _, bench := range core.ScaleOut() {
		b.Run(strings.ReplaceAll(bench.Name, " ", "_"), func(b *testing.B) {
			gens := bench.New().Start(emitThreads, 1)
			defer func() {
				for _, g := range gens {
					g.Close()
				}
			}()
			pull := func() {
				for range emitRounds {
					for _, g := range gens {
						if got := len(g.Batch(emitBatch)); got != emitBatch {
							b.Fatalf("a batch of %d instructions came back with %d", emitBatch, got)
						}
					}
				}
			}
			for range emitWarm {
				pull()
			}
			b.ResetTimer()
			for range b.N {
				pull()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*emitPerOp), "ns/inst")
		})
	}
}
