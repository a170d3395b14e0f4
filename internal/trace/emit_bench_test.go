package trace_test

import (
	"strings"
	"testing"

	"cloudsuite/internal/core"
)

// emitBatches is how many engine-sized batches BenchmarkEmit pulls from
// each thread per iteration: about half a million instructions a bench.
const emitBatches = 32

// BenchmarkEmit times trace generation alone: each scale-out bench's
// Start(4, 1) streams pulled in 4096-instruction batches, one batch per
// thread in turn as the engine pulls them. It reports wall nanoseconds
// per instruction; Start and Close are outside the timer.
//
//	go test ./internal/trace -run '^$' -bench Emit
func BenchmarkEmit(b *testing.B) {
	for _, bench := range core.ScaleOut() {
		b.Run(strings.ReplaceAll(bench.Name, " ", "_"), func(b *testing.B) {
			b.StopTimer()
			insts := 0
			for range b.N {
				gens := bench.New().Start(4, 1)
				b.StartTimer()
				for range emitBatches {
					for _, g := range gens {
						insts += len(g.Batch(4096))
					}
				}
				b.StopTimer()
				for _, g := range gens {
					g.Close()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
		})
	}
}
