// Package cloudsuite is a from-scratch Go reproduction of "Clearing the
// Clouds: A Study of Emerging Scale-out Workloads on Modern Hardware"
// (Ferdman et al., ASPLOS 2012).
//
// It bundles three things:
//
//   - a cycle-approximate model of the paper's measured machine (a
//     Xeon X5670-class server: 4-wide out-of-order cores, a three-level
//     cache hierarchy with directory coherence and hardware
//     prefetchers, SMT, and DDR3 channels) with a performance-counter
//     layer standing in for VTune;
//
//   - the CloudSuite scale-out workloads (Data Serving, MapReduce,
//     Media Streaming, SAT Solver, Web Frontend, Web Search) and the
//     traditional comparison benchmarks (SPECint and PARSEC proxies,
//     SPECweb09, TPC-C, TPC-E, Web Backend), implemented as real
//     algorithms over a simulated address space, with an operating-
//     system model supplying the kernel side;
//
//   - the paper's measurement methodology and experiments: execution-
//     time breakdowns, instruction-miss characterization, IPC/MLP with
//     and without SMT, LLC capacity sweeps via cache-polluting threads,
//     prefetcher ablations, two-socket sharing analysis, and off-chip
//     bandwidth accounting (Figures 1-7 plus Table 1).
//
// This package is the public facade: it re-exports the measurement API
// from the internal packages. See README.md for a tour, DESIGN.md for
// the system inventory, and EXPERIMENTS.md for paper-vs-measured
// results. The cmd/cloudsuite and cmd/figures binaries and the
// examples/ directory show typical usage:
//
//	b, _ := cloudsuite.FindBench("Web Search")
//	m, err := cloudsuite.MeasureBench(b, cloudsuite.DefaultOptions())
//	fmt.Println(m.IPC(), m.MLP())
//
// Measurements are bit-reproducible per seed. Batch experiments go
// through a Runner, which fans requests out across a worker pool and
// memoizes results by (benchmark, canonicalized options), so identical
// configurations are simulated once no matter how many figures request
// them:
//
//	r := cloudsuite.NewRunner(4) // 4 workers
//	rows, err := r.Figure1(cloudsuite.ScaleOutEntries(), cloudsuite.DefaultOptions())
//
// Setting Options.Sampling replaces the contiguous measured window with
// SMARTS-style interval sampling: short timed windows spread across the
// same effective horizon, each preceded by functional warming, at ~1/5
// of the measured work. Sampled measurements carry per-interval counter
// vectors and report 95% confidence intervals:
//
//	o := cloudsuite.DefaultOptions()
//	o.Sampling = cloudsuite.DefaultSampling()
//	m, _ := cloudsuite.MeasureBench(b, o)
//	ci := m.CI(func(m *cloudsuite.Measurement) float64 { return m.IPC() })
//	fmt.Printf("IPC %.2f ± %.2f\n", ci.Mean, ci.Half)
//
// Parameter sweeps over the same warmed workloads can additionally
// share warm-state checkpoints: a CheckpointStore snapshots the
// machine at the warm->measure boundary and later runs fork from the
// image, byte-identically to warming from cold (DESIGN.md section 6):
//
//	cs, _ := cloudsuite.NewCheckpointStore(dir) // "" = in-memory
//	r.SetCheckpoints(cs)
package cloudsuite

import (
	"cloudsuite/internal/core"
	"cloudsuite/internal/workloads"
)

// Re-exported types: the measurement API.
type (
	// Machine is a simulated server configuration.
	Machine = core.Machine
	// Options configures one measurement run.
	Options = core.Options
	// Measurement is the counter outcome of one run.
	Measurement = core.Measurement
	// Sampling configures SMARTS-style interval sampling for a
	// measurement (see Options.Sampling).
	Sampling = core.Sampling
	// IntervalSample is one measurement interval of a sampled run.
	IntervalSample = core.IntervalSample
	// Estimate is a sampled metric statistic: mean, standard error, and
	// 95% confidence interval (Measurement.CI, EntryResult.CI).
	Estimate = core.Estimate
	// Bench is one benchmark of the suite.
	Bench = core.Bench
	// Entry is one bar position of the paper's figures.
	Entry = core.Entry
	// EntryResult aggregates measurements of an Entry's members.
	EntryResult = core.EntryResult
	// Workload is the interface new workloads implement.
	Workload = workloads.Workload
	// TableRow is one row of the Table-1 listing.
	TableRow = core.TableRow
	// Claim is one of the paper's findings checked by Validate.
	Claim = core.Claim

	// Implication row types.
	ImplicationRow = core.ImplicationRow
	IPrefRow       = core.IPrefRow

	// Figure row types.
	BreakdownRow = core.BreakdownRow
	InstrMissRow = core.InstrMissRow
	IPCMLPRow    = core.IPCMLPRow
	LLCSeries    = core.LLCSeries
	LLCPoint     = core.LLCPoint
	PrefetchRow  = core.PrefetchRow
	SharingRow   = core.SharingRow
	BandwidthRow = core.BandwidthRow

	// Experiment-orchestration types. Runner fans measurement requests
	// out across a worker pool and memoizes results; the figure,
	// validation and implication drivers are Runner methods.
	Runner         = core.Runner
	MeasureRequest = core.MeasureRequest
	RunnerStats    = core.RunnerStats
	ProgressEvent  = core.ProgressEvent
	ProgressFunc   = core.ProgressFunc

	// CheckpointStore caches warm-state machine snapshots so parameter
	// sweeps fork from one warm image instead of re-warming per
	// configuration (Options.Checkpoints, Runner.SetCheckpoints).
	CheckpointStore = core.CheckpointStore
	// CheckpointStats counts a CheckpointStore's activity.
	CheckpointStats = core.CheckpointStats
)

// Experiment orchestration.
var (
	// NewRunner returns a Runner with the given worker-pool width
	// (<= 0 selects GOMAXPROCS).
	NewRunner = core.NewRunner
	// NewCheckpointStore returns a warm-state checkpoint store backed
	// by a directory ("" = in-memory only).
	NewCheckpointStore = core.NewCheckpointStore
)

// Machine configurations.
var (
	// XeonX5670 returns the Table-1 machine.
	XeonX5670 = core.XeonX5670
	// TwoSocket returns the dual-socket sharing-measurement machine.
	TwoSocket = core.TwoSocket
	// Table1 lists a machine's architectural parameters.
	Table1 = core.Table1
)

// Suite access.
var (
	// ScaleOut returns the six CloudSuite benchmarks.
	ScaleOut = core.ScaleOut
	// Traditional returns the comparison benchmarks.
	Traditional = core.Traditional
	// AllBenches returns the full suite.
	AllBenches = core.AllBenches
	// FindBench looks a benchmark up by name.
	FindBench = core.FindBench
	// FigureEntries returns the bar positions of the paper's figures.
	FigureEntries = core.FigureEntries
	// ScaleOutEntries returns the six scale-out bar positions.
	ScaleOutEntries = core.ScaleOutEntries
)

// Measurement methodology.
var (
	// DefaultOptions is the paper's baseline setup (4 cores, warm-up,
	// measured window).
	DefaultOptions = core.DefaultOptions
	// DefaultSampling is an enabled interval-sampling spec with default
	// schedule (8 intervals spread over the MeasureInsts horizon).
	DefaultSampling = core.DefaultSampling
	// Measure runs one workload instance.
	Measure = core.Measure
	// MeasureBench creates and measures a fresh instance of a benchmark.
	MeasureBench = core.MeasureBench
	// AllHold reports whether every claim holds.
	AllHold = core.AllHold
)

// Implications experiments (Section 4's architectural proposals).
var (
	// ScaleOutProcessor is the paper's proposed scale-out-optimized CMP.
	ScaleOutProcessor = core.ScaleOutProcessor
	// AreaUnits is the coarse die-area proxy used by
	// Runner.Implications.
	AreaUnits = core.AreaUnits
	// Figure4Groups returns Figure 4's benchmark groups, the input of
	// Runner.Figure4.
	Figure4Groups = core.Figure4Groups
)
