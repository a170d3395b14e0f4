package cloudsuite_test

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation section. Each benchmark regenerates its
// artefact on the simulated machine and reports the headline numbers as
// custom benchmark metrics, printing the full rows once per run so that
// `go test -bench=.` reproduces the entire evaluation.
//
// Budgets are reduced relative to cmd/figures so the whole suite runs
// in minutes; the shapes are stable at these budgets (EXPERIMENTS.md
// records full-budget results).

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"cloudsuite"
	"cloudsuite/internal/report"
)

func benchOptions() cloudsuite.Options {
	o := cloudsuite.DefaultOptions()
	o.WarmupInsts = 120_000
	o.MeasureInsts = 30_000
	return o
}

var printOnce sync.Map

// once prints body a single time per key across benchmark iterations.
func once(key string, body func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		body()
	}
}

// BenchmarkTable1Parameters regenerates Table 1.
func BenchmarkTable1Parameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := cloudsuite.Table1(cloudsuite.XeonX5670())
		if len(rows) == 0 {
			b.Fatal("empty table")
		}
	}
	once("table1", func() {
		t := report.Table{Title: "Table 1. Architectural parameters", Header: []string{"Parameter", "Value"}}
		for _, r := range cloudsuite.Table1(cloudsuite.XeonX5670()) {
			t.Add(r.Parameter, r.Value)
		}
		t.Render(os.Stdout)
	})
}

// BenchmarkFigure1ExecutionBreakdown regenerates Figure 1 over the
// scale-out suite and reports the average stall fraction.
func BenchmarkFigure1ExecutionBreakdown(b *testing.B) {
	o := benchOptions()
	entries := cloudsuite.ScaleOutEntries()
	var rows []cloudsuite.BreakdownRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = cloudsuite.NewRunner(1).Figure1(entries, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	var stall, mem float64
	for _, r := range rows {
		stall += r.StalledUser + r.StalledOS
		mem += r.Memory
	}
	b.ReportMetric(stall/float64(len(rows)), "stallfrac")
	b.ReportMetric(mem/float64(len(rows)), "memfrac")
	once("fig1", func() {
		t := report.Table{Title: "Figure 1 (bench budgets)", Header: []string{"Workload", "Commit(App)", "Commit(OS)", "Stall(App)", "Stall(OS)", "Memory"}}
		for _, r := range rows {
			t.Add(r.Label, report.Pct(r.CommittingUser), report.Pct(r.CommittingOS),
				report.Pct(r.StalledUser), report.Pct(r.StalledOS), report.Pct(r.Memory))
		}
		t.Render(os.Stdout)
	})
}

// BenchmarkFigure2InstructionMisses regenerates Figure 2 over the
// scale-out suite and reports the mean L1-I MPKI.
func BenchmarkFigure2InstructionMisses(b *testing.B) {
	o := benchOptions()
	entries := cloudsuite.ScaleOutEntries()
	var rows []cloudsuite.InstrMissRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = cloudsuite.NewRunner(1).Figure2(entries, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	var l1 float64
	for _, r := range rows {
		l1 += r.L1IApp
	}
	b.ReportMetric(l1/float64(len(rows)), "L1I-MPKI")
	once("fig2", func() {
		t := report.Table{Title: "Figure 2 (bench budgets)", Header: []string{"Workload", "L1-I(App)", "L1-I(OS)", "L2(App)", "L2(OS)"}}
		for _, r := range rows {
			t.Add(r.Label, report.F1(r.L1IApp), report.F1(r.L1IOS), report.F1(r.L2IApp), report.F1(r.L2IOS))
		}
		t.Render(os.Stdout)
	})
}

// BenchmarkFigure3IPCMLP regenerates Figure 3 (baseline + SMT) for the
// scale-out suite and reports mean IPC, MLP and SMT speedup.
func BenchmarkFigure3IPCMLP(b *testing.B) {
	o := benchOptions()
	entries := cloudsuite.ScaleOutEntries()
	var rows []cloudsuite.IPCMLPRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = cloudsuite.NewRunner(1).Figure3(entries, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	var ipc, mlp, smt float64
	for _, r := range rows {
		ipc += r.IPCBase
		mlp += r.MLPBase
		smt += r.SMTSpeedup
	}
	n := float64(len(rows))
	b.ReportMetric(ipc/n, "IPC")
	b.ReportMetric(mlp/n, "MLP")
	b.ReportMetric(smt/n, "SMT-speedup")
	once("fig3", func() {
		t := report.Table{Title: "Figure 3 (bench budgets)", Header: []string{"Workload", "IPC", "IPC(SMT)", "MLP", "MLP(SMT)"}}
		for _, r := range rows {
			t.Add(r.Label, report.F2(r.IPCBase), report.F2(r.IPCSMT), report.F2(r.MLPBase), report.F2(r.MLPSMT))
		}
		t.Render(os.Stdout)
	})
}

// BenchmarkFigure4LLCSensitivity regenerates a reduced Figure 4 (three
// capacities) and reports scale-out IPC retention at 6MB.
func BenchmarkFigure4LLCSensitivity(b *testing.B) {
	o := benchOptions()
	groups := cloudsuite.Figure4Groups()
	var series []cloudsuite.LLCSeries
	for i := 0; i < b.N; i++ {
		var err error
		series, err = cloudsuite.NewRunner(1).Figure4(groups, []int{4, 6, 8, 10}, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		if s.Label == "Scale-out" {
			for _, p := range s.Points {
				if p.CacheMB == 6 {
					b.ReportMetric(p.Normalized, "scaleout-6MB-retention")
				}
			}
		}
	}
	once("fig4", func() {
		t := report.Table{Title: "Figure 4 (bench budgets)", Header: []string{"Series", "4MB", "6MB", "8MB", "10MB"}}
		for _, s := range series {
			cells := []string{s.Label}
			for _, p := range s.Points {
				cells = append(cells, report.F2(p.Normalized))
			}
			t.Add(cells...)
		}
		t.Render(os.Stdout)
	})
}

// BenchmarkFigure5Prefetchers regenerates Figure 5 for the scale-out
// suite and reports MapReduce's HW-prefetcher benefit.
func BenchmarkFigure5Prefetchers(b *testing.B) {
	o := benchOptions()
	entries := cloudsuite.ScaleOutEntries()
	var rows []cloudsuite.PrefetchRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = cloudsuite.NewRunner(1).Figure5(entries, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Label == "MapReduce" {
			b.ReportMetric(r.Baseline-r.HWDisabled, "mapreduce-HW-benefit")
		}
		if r.Label == "Media Streaming" {
			b.ReportMetric(r.AdjacentDisabled-r.Baseline, "streaming-adjoff-gain")
		}
	}
	once("fig5", func() {
		t := report.Table{Title: "Figure 5 (bench budgets)", Header: []string{"Workload", "Baseline", "Adj off", "HW off"}}
		for _, r := range rows {
			t.Add(r.Label, report.Pct(r.Baseline), report.Pct(r.AdjacentDisabled), report.Pct(r.HWDisabled))
		}
		t.Render(os.Stdout)
	})
}

// BenchmarkFigure6Sharing regenerates Figure 6 for scale-out plus the
// OLTP workloads and reports the scale-out vs OLTP application-sharing
// contrast.
func BenchmarkFigure6Sharing(b *testing.B) {
	o := benchOptions()
	var entries []cloudsuite.Entry
	for _, e := range cloudsuite.FigureEntries() {
		switch e.Label {
		case "Data Serving", "MapReduce", "Media Streaming", "SAT Solver",
			"Web Frontend", "Web Search", "TPC-C", "TPC-E", "Web Backend":
			entries = append(entries, e)
		}
	}
	var rows []cloudsuite.SharingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = cloudsuite.NewRunner(1).Figure6(entries, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	var so, oltp float64
	var nso, noltp int
	for _, r := range rows {
		switch r.Label {
		case "TPC-C", "TPC-E", "Web Backend":
			oltp += r.App
			noltp++
		default:
			so += r.App
			nso++
		}
	}
	b.ReportMetric(so/float64(nso), "scaleout-app-sharing")
	b.ReportMetric(oltp/float64(noltp), "oltp-app-sharing")
	once("fig6", func() {
		t := report.Table{Title: "Figure 6 (bench budgets)", Header: []string{"Workload", "Application", "OS"}}
		for _, r := range rows {
			t.Add(r.Label, report.Pct(r.App), report.Pct(r.OS))
		}
		t.Render(os.Stdout)
	})
}

// BenchmarkFigure7Bandwidth regenerates Figure 7 for the scale-out
// suite and reports Media Streaming's utilisation (the paper's maximum
// among scale-out workloads).
func BenchmarkFigure7Bandwidth(b *testing.B) {
	o := benchOptions()
	entries := cloudsuite.ScaleOutEntries()
	var rows []cloudsuite.BandwidthRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = cloudsuite.NewRunner(1).Figure7(entries, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	var maxUtil float64
	maxLabel := ""
	for _, r := range rows {
		if u := r.App + r.OS; u > maxUtil {
			maxUtil, maxLabel = u, r.Label
		}
	}
	b.ReportMetric(maxUtil, "max-utilization")
	once("fig7", func() {
		fmt.Printf("Figure 7: peak scale-out bandwidth consumer: %s\n", maxLabel)
		t := report.Table{Title: "Figure 7 (bench budgets)", Header: []string{"Workload", "Application", "OS"}}
		for _, r := range rows {
			t.Add(r.Label, report.Pct(r.App), report.Pct(r.OS))
		}
		t.Render(os.Stdout)
	})
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (instructions simulated per second) on the Web Search workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	o := benchOptions()
	ws, _ := cloudsuite.FindBench("Web Search")
	var insts uint64
	for i := 0; i < b.N; i++ {
		m, err := cloudsuite.MeasureBench(ws, o)
		if err != nil {
			b.Fatal(err)
		}
		insts += m.Commits()
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
}

// BenchmarkAblationLLCDirectSizing is the ablation DESIGN.md calls for:
// it compares the paper's polluter-thread methodology against directly
// shrinking the LLC, for the LLC-sensitive mcf workload.
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
	once("ablation-llc", func() {
		fmt.Printf("LLC ablation (mcf @6MB): polluters %.2f vs direct sizing %.2f\n",
			viaPolluters, viaSizing)
	})
}

// BenchmarkAblationSMTPartitioning quantifies the cost of splitting the
// ROB between SMT contexts for a dependence-limited workload (the
// design choice behind the paper's "two narrower cores beat one wide
// SMT core" implication).
func BenchmarkAblationSMTPartitioning(b *testing.B) {
	o := benchOptions()
	ds, _ := cloudsuite.FindBench("Data Serving")
	var gain float64
	for i := 0; i < b.N; i++ {
		base, err := cloudsuite.MeasureBench(ds, o)
		if err != nil {
			b.Fatal(err)
		}
		os := o
		os.SMT = true
		smt, err := cloudsuite.MeasureBench(ds, os)
		if err != nil {
			b.Fatal(err)
		}
		gain = smt.IPC() / base.IPC()
	}
	b.ReportMetric(gain, "smt-ipc-gain")
}

// BenchmarkImplicationsDensity regenerates the Section-6 implications
// comparison: chip-level computational density of the conventional vs
// the scale-out-optimized design, on Web Search.
func BenchmarkImplicationsDensity(b *testing.B) {
	o := benchOptions()
	entries := cloudsuite.ScaleOutEntries()[5:6] // Web Search
	var rows []cloudsuite.ImplicationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = cloudsuite.NewRunner(1).Implications(entries, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	r := rows[0]
	b.ReportMetric(r.OptDensity/r.ConvDensity, "density-gain")
	once("implications", func() {
		fmt.Printf("Implications: %s density %.2f -> %.2f (%.1fx)\n",
			r.Label, r.ConvDensity, r.OptDensity, r.OptDensity/r.ConvDensity)
	})
}

// BenchmarkInstructionPrefetchStudy regenerates the Section-4.1
// instruction-prefetcher implication on Data Serving.
func BenchmarkInstructionPrefetchStudy(b *testing.B) {
	o := benchOptions()
	entries := cloudsuite.ScaleOutEntries()[0:1] // Data Serving
	var rows []cloudsuite.IPrefRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = cloudsuite.NewRunner(1).InstructionPrefetchStudy(entries, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	r := rows[0]
	b.ReportMetric(r.MPKINone-r.MPKIStream, "stream-MPKI-saved")
	b.ReportMetric(r.IPCStream/r.IPCNone, "stream-IPC-gain")
	once("ipref", func() {
		fmt.Printf("I-prefetch: %s MPKI none %.1f, next-line %.1f, stream %.1f\n",
			r.Label, r.MPKINone, r.MPKINextLine, r.MPKIStream)
	})
}

// BenchmarkScalingThroughput measures simulator throughput (simulated
// committed instructions per wall-clock second) as the machine grows
// from 8 to 64 cores on the scaled 16-core-per-socket grid — the
// BENCH_scaling.json data source. Coherence invariants are audited
// during every run, so a passing benchmark doubles as a directory
// health check at scale.
func BenchmarkScalingThroughput(b *testing.B) {
	wb, ok := cloudsuite.FindBench("Web Search")
	if !ok {
		b.Fatal("Web Search bench missing")
	}
	for _, cores := range []int{8, 16, 32, 48, 64} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			o := benchOptions()
			o.Cores = cores
			o.CoresPerSocket = 16
			o.Sockets = (cores + 15) / 16
			o.InvariantChecks = 5000
			var simInsts uint64
			for i := 0; i < b.N; i++ {
				m, err := cloudsuite.MeasureBench(wb, o)
				if err != nil {
					b.Fatal(err)
				}
				simInsts += m.Commits()
			}
			b.ReportMetric(float64(simInsts)/b.Elapsed().Seconds(), "sim-insts/s")
		})
	}
}
