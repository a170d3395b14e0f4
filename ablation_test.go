package cloudsuite_test

// The one ablation no figure computes: the paper's polluter-thread
// methodology for shrinking the LLC against sizing the LLC directly
// (DESIGN.md §7). The paper's tables and figures come from
// `go run ./cmd/figures`, and the simulator's speed from
// `bash bench/run.sh`.

import (
	"testing"

	"cloudsuite"
)

func benchOptions() cloudsuite.Options {
	o := cloudsuite.DefaultOptions()
	o.WarmupInsts = 120_000
	o.MeasureInsts = 30_000
	return o
}

// BenchmarkAblationLLCDirectSizing compares the paper's polluter-thread
// methodology against directly shrinking the LLC, for the LLC-sensitive
// mcf workload.
func BenchmarkAblationLLCDirectSizing(b *testing.B) {
	o := benchOptions()
	mcf, _ := cloudsuite.FindBench("SPECint (mcf)")
	var viaPolluters, viaSizing float64
	for i := 0; i < b.N; i++ {
		base, err := cloudsuite.MeasureBench(mcf, o)
		if err != nil {
			b.Fatal(err)
		}
		op := o
		op.PolluteBytes = 6 << 20
		pol, err := cloudsuite.MeasureBench(mcf, op)
		if err != nil {
			b.Fatal(err)
		}
		small := cloudsuite.XeonX5670()
		small.Mem.LLC.SizeBytes = 6 << 20
		od := o
		od.Machine = &small
		direct, err := cloudsuite.MeasureBench(mcf, od)
		if err != nil {
			b.Fatal(err)
		}
		viaPolluters = pol.UserIPC() / base.UserIPC()
		viaSizing = direct.UserIPC() / base.UserIPC()
	}
	b.ReportMetric(viaPolluters, "retention-polluters")
	b.ReportMetric(viaSizing, "retention-direct")
}
