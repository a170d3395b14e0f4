package core

import (
	"cloudsuite/internal/workloads"
	"cloudsuite/internal/workloads/dataserving"
	"cloudsuite/internal/workloads/mapreduce"
	"cloudsuite/internal/workloads/satsolver"
	"cloudsuite/internal/workloads/streaming"
	"cloudsuite/internal/workloads/traditional"
	"cloudsuite/internal/workloads/webfrontend"
	"cloudsuite/internal/workloads/websearch"
)

// Bench is one benchmark of the suite: a named factory for workload
// instances. A fresh instance is created per measurement so runs do not
// share warmed state.
type Bench struct {
	// Name is the benchmark's display name and its identity: it keys the
	// Runner's memo slot and the warm image, names the run's trace track,
	// and becomes Measurement.BenchName. Two differently configured
	// benchmarks need two names.
	Name string
	// Class is the workload class.
	Class workloads.Class
	// New creates a fresh workload instance.
	New func() workloads.Workload
}

// Entry is one bar position in the paper's figures: either a single
// benchmark (the scale-out and server workloads) or a group reported as
// an average with min/max range bars (PARSEC and SPECint cpu/mem).
type Entry struct {
	// Label is the bar label.
	Label string
	// Members are the benchmarks aggregated under this label.
	Members []Bench
	// ShowOS marks entries whose OS component the paper reports
	// separately (Figure 2's OS bars).
	ShowOS bool
}

// ScaleOut returns the six CloudSuite scale-out benchmarks.
func ScaleOut() []Bench {
	return []Bench{
		{Name: "Data Serving", Class: workloads.ScaleOut, New: func() workloads.Workload { return dataserving.New(dataserving.DefaultConfig()) }},
		{Name: "MapReduce", Class: workloads.ScaleOut, New: func() workloads.Workload { return mapreduce.New(mapreduce.DefaultConfig()) }},
		{Name: "Media Streaming", Class: workloads.ScaleOut, New: func() workloads.Workload { return streaming.New(streaming.DefaultConfig()) }},
		{Name: "SAT Solver", Class: workloads.ScaleOut, New: func() workloads.Workload { return satsolver.New(satsolver.DefaultConfig()) }},
		{Name: "Web Frontend", Class: workloads.ScaleOut, New: func() workloads.Workload { return webfrontend.New(webfrontend.DefaultConfig()) }},
		{Name: "Web Search", Class: workloads.ScaleOut, New: func() workloads.Workload { return websearch.New(websearch.DefaultConfig()) }},
	}
}

// Traditional returns the comparison benchmarks: PARSEC and SPECint
// members plus the traditional server workloads.
func Traditional() []Bench {
	var out []Bench
	mk := func(w func() workloads.Workload, name string, class workloads.Class) {
		out = append(out, Bench{Name: name, Class: class, New: w})
	}
	mk(traditional.NewPARSECBlackscholes, "PARSEC (blackscholes)", workloads.Parallel)
	mk(traditional.NewPARSECSwaptions, "PARSEC (swaptions)", workloads.Parallel)
	mk(traditional.NewPARSECCanneal, "PARSEC (canneal)", workloads.Parallel)
	mk(traditional.NewPARSECStreamcluster, "PARSEC (streamcluster)", workloads.Parallel)
	mk(traditional.NewSPECintBitops, "SPECint (bitops)", workloads.Desktop)
	mk(traditional.NewSPECintCompile, "SPECint (compile)", workloads.Desktop)
	mk(traditional.NewSPECintDP, "SPECint (dp)", workloads.Desktop)
	mk(traditional.NewSPECintMCF, "SPECint (mcf)", workloads.Desktop)
	mk(traditional.NewSPECintEvents, "SPECint (events)", workloads.Desktop)
	mk(traditional.NewSPECintStream, "SPECint (stream)", workloads.Desktop)
	mk(traditional.NewSPECweb, "SPECweb09", workloads.Server)
	mk(traditional.NewTPCC, "TPC-C", workloads.Server)
	mk(traditional.NewTPCE, "TPC-E", workloads.Server)
	mk(traditional.NewWebBackend, "Web Backend", workloads.Server)
	return out
}

// AllBenches returns every benchmark in the suite.
func AllBenches() []Bench { return append(ScaleOut(), Traditional()...) }

// FindBench returns the benchmark with the given name, or false.
func FindBench(name string) (Bench, bool) {
	for _, b := range AllBenches() {
		if b.Name == name {
			return b, true
		}
	}
	return Bench{}, false
}

// mustBench returns the registered benchmark with the given name. The
// suite's own tables name only registered benchmarks, so a miss is a
// bug.
func mustBench(name string) Bench {
	b, ok := FindBench(name)
	if !ok {
		panic("core: unknown bench " + name)
	}
	return b
}

func group(label string, showOS bool, names ...string) Entry {
	e := Entry{Label: label, ShowOS: showOS}
	for _, n := range names {
		e.Members = append(e.Members, mustBench(n))
	}
	return e
}

// FigureEntries returns the bar positions of the paper's figures:
// the six scale-out workloads, then the traditional benchmarks with
// PARSEC and SPECint folded into cpu/mem group averages.
func FigureEntries() []Entry {
	return []Entry{
		group("Data Serving", true, "Data Serving"),
		group("MapReduce", true, "MapReduce"),
		group("Media Streaming", true, "Media Streaming"),
		group("SAT Solver", false, "SAT Solver"),
		group("Web Frontend", true, "Web Frontend"),
		group("Web Search", true, "Web Search"),
		group("PARSEC (cpu)", false, "PARSEC (blackscholes)", "PARSEC (swaptions)"),
		group("PARSEC (mem)", false, "PARSEC (canneal)", "PARSEC (streamcluster)"),
		group("SPECint (cpu)", false, "SPECint (bitops)", "SPECint (compile)", "SPECint (dp)"),
		group("SPECint (mem)", false, "SPECint (mcf)", "SPECint (events)", "SPECint (stream)"),
		group("SPECweb09", true, "SPECweb09"),
		group("TPC-C", true, "TPC-C"),
		group("TPC-E", true, "TPC-E"),
		group("Web Backend", true, "Web Backend"),
	}
}

// ScaleOutEntries returns just the scale-out bar positions.
func ScaleOutEntries() []Entry { return FigureEntries()[:6] }
