package core

import (
	"errors"
	"fmt"

	"cloudsuite/internal/obs"
	"cloudsuite/internal/rng"
	"cloudsuite/internal/sim/cache"
	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/sim/counters"
	"cloudsuite/internal/sim/engine"
	"cloudsuite/internal/sim/sample"
	"cloudsuite/internal/trace"
)

// Sampling configures SMARTS-style interval sampling for a measurement:
// N short timed intervals spread across a longer execution, each
// preceded by functional warming, instead of one contiguous window.
// The zero value keeps the contiguous methodology. Zero fields of an
// enabled spec resolve to defaults derived from MeasureInsts (see
// sample.Spec.Normalize): by default the schedule covers the same
// effective horizon as the contiguous window while measuring a fifth
// of it. TargetRelErr > 0 additionally stops spawning intervals once
// the 95% CI of IPC is within that relative error.
type Sampling = sample.Spec

// Estimate is a sampled metric statistic: mean, standard error, and
// 95% confidence interval (see Measurement.CI and EntryResult.CI).
type Estimate = sample.Estimate

// DefaultSampling returns an enabled sampling spec with the default
// interval count; the per-interval budgets resolve against MeasureInsts
// at canonicalization.
func DefaultSampling() Sampling { return Sampling{Intervals: sample.DefaultIntervals} }

// Options configures one measurement, mirroring the paper's methodology
// (Section 3.1): four cores dedicated to the workload, a ramp-up period
// excluded from measurement, and optional SMT, socket-splitting, and
// cache-polluter variations.
type Options struct {
	// Machine is the simulated server (default: XeonX5670, or TwoSocket
	// when SplitSockets is set).
	Machine *Machine
	// Cores is the number of cores running the workload (paper: 4).
	Cores int
	// SMT runs two workload threads per core.
	SMT bool
	// SplitSockets places half the workload cores on each socket, the
	// configuration used to expose read-write sharing (Figure 6).
	SplitSockets bool
	// Sockets spreads the workload over a multi-socket machine: values
	// >= 2 select the n-socket Table-1 machine (unless Machine is set)
	// and imply SplitSockets placement. 0 or 1 leaves the default
	// single-socket configuration. The NUMA scale-up study sweeps this.
	Sockets int
	// CoresPerSocket, when positive, overrides the Table-1 six-core
	// socket (unless Machine is set), selecting the scaled machine the
	// paper's implications argue for: many smaller cores per socket.
	// Combined with Sockets it spans grids up to 4-8 sockets and
	// 64-256 cores, past the old 32-core ceiling.
	CoresPerSocket int
	// PolluteBytes, when non-zero, dedicates two extra cores to
	// cache-polluting threads that occupy the given amount of LLC
	// (Figure 4's capacity sensitivity methodology).
	PolluteBytes uint64
	// WarmupInsts is the per-thread functional warm-up (ramp-up).
	WarmupInsts int64
	// MeasureInsts is the per-thread measured instruction budget: the
	// contiguous window length, or — when Sampling is enabled — the
	// effective horizon the interval schedule's defaults are derived
	// from.
	MeasureInsts int64
	// Sampling, when enabled, replaces the contiguous window with
	// interval sampling: per-interval counter vectors land in
	// Measurement.Samples, and CI reports confidence intervals.
	Sampling Sampling
	// Seed controls the request streams and datasets. Runs with the same
	// seed are bit-identical: workload threads interleave over shared
	// structures in lockstep with the simulator's deterministic pull
	// order (see internal/trace), so a configuration measures to exactly
	// one result regardless of wall-clock scheduling — the property the
	// Runner's memoization cache and the parallel figure drivers rely
	// on.
	Seed int64
	// Checkpoints, when non-nil, routes the measurement through the
	// warm-state checkpoint store: the run forks from a cached warm
	// image when one exists for this configuration's warm-relevant
	// options, and contributes its own image otherwise (see
	// CheckpointStore). Restored runs are byte-identical to cold runs,
	// so this field is deliberately excluded from the Runner's
	// memoization key — it changes wall-clock time, never results.
	//simlint:ok memokey restored runs are byte-identical to cold runs (differential-tested), so this changes wall-clock only
	Checkpoints *CheckpointStore
	// InvariantChecks, when positive, arms the coherence invariant
	// checker on every n-th memory access (1 = every access); a
	// violation panics. The checker is a pure observer — it can veto a
	// run but never change its counters — so, like Checkpoints, this
	// field is excluded from the memoization key.
	//simlint:ok memokey pure observer: can veto a run by panicking but never changes its counters
	InvariantChecks int
	// Obs, when non-nil, observes the measurement: per-phase wall-time
	// attribution into the observer's registry plus one trace track for
	// the run (see internal/obs). Armed runs are byte-identical to
	// unarmed ones — the differential tests in obs_test.go gate it — so
	// this field is excluded from the memoization key: it changes what
	// is recorded about a run, never the run.
	//simlint:ok memokey pure observer (armed runs byte-identical to unarmed, differential-tested); records wall time, never results
	Obs *obs.Observer
}

// DefaultOptions returns the paper's baseline measurement setup scaled
// to simulation budgets: 4 cores, no SMT, warm-up plus a measured
// window per thread.
func DefaultOptions() Options {
	return Options{
		Cores:        4,
		WarmupInsts:  400_000,
		MeasureInsts: 120_000,
		Seed:         1,
	}
}

// maxBudgetInsts caps per-thread instruction budgets at a value far
// beyond any sensible simulation (a single thread at ~1M simulated
// insts/sec would run for days): a mistyped exponent is an option
// error, not a day-long hang.
const maxBudgetInsts = 1_000_000_000

// OptionError reports the Options field Validate rejects. Field is the
// field's path in Options ("Cores", "Sampling.Intervals"), so a front
// end can name its own spelling of the option — the CLIs map it to the
// flag that set it.
type OptionError struct {
	Field  string
	Value  any
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("core: Options.%s %v: %s", e.Field, e.Value, e.Reason)
}

// Validate is the one place an Options value is judged. measure and the
// Runner call it before canonicalize, so an invalid request never
// reaches the engine or takes a memo slot. Zero fields mean "default"
// and are always valid; any other value must describe a run the
// simulator can schedule: core counts within the directory's reach and
// the resolved machine's capacity, polluters within their address
// window, budgets within the per-thread cap, and a valid sampling
// spec. The first violation is returned as an *OptionError.
func (o Options) Validate() error {
	bad := func(field string, v any, format string, args ...any) error {
		return &OptionError{Field: field, Value: v, Reason: fmt.Sprintf(format, args...)}
	}
	for _, f := range []struct {
		field    string
		n, limit int64
		cap      string
	}{
		{"Cores", int64(o.Cores), cache.MaxCores, "-core directory limit"},
		{"Sockets", int64(o.Sockets), cache.MaxCores, "-core directory limit"},
		{"CoresPerSocket", int64(o.CoresPerSocket), cache.MaxCores, "-core directory limit"},
		{"WarmupInsts", o.WarmupInsts, maxBudgetInsts, " per-thread budget cap"},
		{"MeasureInsts", o.MeasureInsts, maxBudgetInsts, " per-thread budget cap"},
	} {
		switch {
		case f.n < 0:
			return bad(f.field, f.n, "must be >= 0 (0 = default)")
		case f.n > f.limit:
			return bad(f.field, f.n, "exceeds the %d%s", f.limit, f.cap)
		}
	}
	switch {
	case o.PolluteBytes > polluterWindow:
		return bad("PolluteBytes", o.PolluteBytes, "exceeds the %d-byte polluter address window", uint64(polluterWindow))
	case o.InvariantChecks < 0:
		return bad("InvariantChecks", o.InvariantChecks, "must be >= 0 (0 = off)")
	}
	if err := o.Sampling.Validate(); err != nil {
		if fe := (*sample.FieldError)(nil); errors.As(err, &fe) {
			return bad("Sampling."+fe.Field, fe.Value, "%s", fe.Reason)
		}
		return err
	}

	// The fields are in range; judge the configuration they resolve to.
	c := canonicalize(o)
	mem := c.machine.Mem
	if err := mem.Validate(); err != nil {
		switch {
		case o.Machine != nil:
			return bad("Machine", c.machine.Name, "%v", err)
		case o.CoresPerSocket > 0:
			return bad("CoresPerSocket", o.CoresPerSocket, "%v", err)
		}
		return bad("Sockets", o.Sockets, "%v", err)
	}
	if c.cores > mem.TotalCores() || (!c.splitSockets && c.cores > mem.CoresPerSocket) {
		return bad("Cores", o.Cores, "%d workload cores exceed the %s capacity (%d sockets x %d cores)",
			c.cores, c.machine.Name, mem.Sockets, mem.CoresPerSocket)
	}
	return nil
}

// Measurement is the outcome of one run: the counter deltas of the
// measurement window plus derived context.
type Measurement struct {
	// Counters is the summed counter block over the workload cores; its
	// Cycles field is the core-cycle total (window length x cores). In
	// sampled mode it is the sum over the measurement intervals.
	counters.Counters
	// WindowCycles is the measured window length in wall-clock cycles
	// (summed over intervals in sampled mode).
	WindowCycles int64
	// BenchName records the workload.
	BenchName string
	// Samples holds the per-interval counter deltas of a sampled run,
	// aggregated over the workload cores exactly like the top-level
	// Counters (nil for contiguous measurements).
	Samples []IntervalSample
	// Truncated reports that a timed window hit the engine's MaxCycles
	// cap before its instruction budget, so the counters cover a partial
	// window. Omitted from JSON when false.
	Truncated bool `json:"truncated,omitempty"`

	// warmSource records how the run reached its warm state ("cold" or
	// "checkpoint-fork"). Unexported — and therefore JSON-invisible — on
	// purpose: restored runs are byte-identical to cold runs, and the CI
	// checkpointing job diffs their serialized figures to prove it.
	warmSource string
}

// WarmSource reports how the run reached its warm state: "cold" or
// "checkpoint-fork". Provenance only — the result is identical either
// way — so it feeds progress reporting and metrics, never figures.
func (m *Measurement) WarmSource() string { return m.warmSource }

// IntervalSample is one measurement interval of a sampled run.
type IntervalSample struct {
	// Counters is the interval's counter delta over the workload cores.
	counters.Counters
	// WindowCycles is the interval's length in wall-clock cycles.
	WindowCycles int64
}

// Sampled reports whether the measurement used interval sampling.
func (m *Measurement) Sampled() bool { return len(m.Samples) > 0 }

// asMeasurement views one interval as a standalone Measurement so the
// same metric closures serve aggregates and intervals alike.
func (s *IntervalSample) asMeasurement(bench string) *Measurement {
	return &Measurement{Counters: s.Counters, WindowCycles: s.WindowCycles, BenchName: bench}
}

// CI returns the sample statistics of metric f across the measurement
// intervals: mean, standard error, and 95% confidence interval. For a
// contiguous measurement (or a single interval) it degenerates to a
// zero-width point estimate of the aggregate value.
func (m *Measurement) CI(f func(*Measurement) float64) Estimate {
	if len(m.Samples) < 2 {
		return sample.Point(f(m))
	}
	vals := make([]float64, len(m.Samples))
	for i := range m.Samples {
		vals[i] = f(m.Samples[i].asMeasurement(m.BenchName))
	}
	return sample.FromSamples(vals)
}

// measure runs one fresh instance of b under the given options; b.Name
// names the run's trace track, its warm-image key and its BenchName.
//
// Options pass Validate first; defaulting then goes through
// canonicalize (runner.go), the same resolution the Runner's
// memoization cache keys on: two Options with equal canonical forms
// measure identically by construction.
func measure(b Bench, o Options) (*Measurement, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	c := canonicalize(o)
	w := b.New()
	// Run observation (no-op when disarmed): opened before workload
	// startup so setup time is attributed, finished on every exit path.
	ro := o.Obs.StartRun(b.Name, c.label())
	defer ro.Finish()
	machine := &c.machine

	// Thread placement.
	nThreads := c.cores
	if c.smt {
		nThreads *= 2
	}
	coreOf := make([]int, nThreads)
	for i := range coreOf {
		coreOf[i] = placeCore(i%c.cores, c.cores, c.splitSockets, machine.Mem)
	}

	gens := w.Start(nThreads, c.seed)
	defer func() {
		for _, g := range gens {
			g.Close()
		}
	}()
	threads := make([]engine.Thread, 0, nThreads+2)
	for i, g := range gens {
		threads = append(threads, engine.Thread{Gen: g, Core: coreOf[i], Measured: true})
	}

	// Cache polluters: dedicated cores traverse arrays sized to occupy
	// PolluteBytes of LLC, shrinking the capacity available to the
	// workload (Section 3.1). Every socket the workload runs on gets
	// polluted — a multi-socket run has one LLC per socket.
	var polluters []*trace.StepGen
	if c.polluteBytes > 0 {
		pcores, err := polluterCores(coreOf, machine.Mem)
		if err != nil {
			return nil, err
		}
		per := c.polluteBytes / uint64(len(pcores))
		for i, pc := range pcores {
			g := startPolluter(per, uint64(i), c.seed+1000+int64(i))
			polluters = append(polluters, g)
			threads = append(threads, engine.Thread{Gen: g, Core: pc, Measured: false})
		}
		defer func() {
			for _, g := range polluters {
				g.Close()
			}
		}()
	}

	cfg := engine.RunConfig{
		Core:                 machine.Core,
		Mem:                  machine.Mem,
		WarmupInsts:          c.warmupInsts,
		MeasureInsts:         c.measureInsts,
		MaxCycles:            c.measureInsts * int64(nThreads) * 40,
		CheckInvariantsEvery: o.InvariantChecks,
		SaveShared:           w.SaveShared,
		LoadShared:           w.LoadShared,
		Obs:                  ro,
	}
	if c.sampling.Enabled() {
		// Sampled mode: N timed intervals of IntervalInsts each, every
		// interval preceded by WarmInsts of functional warming. The
		// engine's per-window budget and safety net scale to the
		// interval.
		cfg.MeasureInsts = c.sampling.IntervalInsts
		cfg.MaxCycles = c.sampling.IntervalInsts * int64(nThreads) * 40
		cfg.Intervals = c.sampling.Intervals
		// The warming budget splits into functional warming plus a
		// detailed-warming tail (timed execution, counters frozen) so
		// windows open on steady-state pipeline occupancy; the per-
		// interval horizon stays WarmInsts + IntervalInsts.
		cfg.IntervalWarmInsts = c.sampling.FunctionalWarmInsts()
		cfg.DetailWarmInsts = c.sampling.DetailWarmInsts()
		if c.sampling.TargetRelErr > 0 {
			// Adaptive stopping on the target metric (IPC over the
			// workload cores): deterministic, so the interval count a
			// configuration settles on is a pure function of the options.
			target := c.sampling.TargetRelErr
			cfg.StopSampling = func(done []engine.IntervalResult) bool {
				vals := make([]float64, len(done))
				for i := range done {
					agg := aggregateCores(done[i].PerCore, coreOf)
					vals[i] = agg.IPC()
				}
				return sample.Stop(vals, target)
			}
		}
	}
	// Warm-state checkpointing: fork from a cached warm image when one
	// exists for this configuration's warm key, or capture one at the
	// warm->measure boundary for later runs (and for concurrent runs
	// waiting on this warm-up — the store is a mid-run singleflight).
	var ckptKey string
	warmSource := "cold"
	if o.Checkpoints != nil {
		ckptKey = checkpointKey(b.Name, c)
		snap, commit := o.Checkpoints.acquire(ckptKey)
		if snap != nil {
			cfg.Restore = snap
			warmSource = "checkpoint-fork"
		} else {
			cfg.CheckpointKey = ckptKey
			committed := false
			cfg.Checkpoint = func(s *checkpoint.Snapshot) {
				committed = true
				commit(s)
			}
			// A run that errors before the warm boundary still owes the
			// store a resolution, or waiters would block forever.
			defer func() {
				if !committed {
					commit(nil)
				}
			}()
		}
	}
	ro.SetSource(warmSource)
	res, err := engine.Run(cfg, threads)
	if err != nil {
		if cfg.Restore != nil {
			// Drop the bad image so later requests warm cold instead of
			// retrying it, and tag the error: this run cannot retry
			// itself (its generators are already consumed), but
			// MeasureBench re-measures a fresh instance on this tag.
			o.Checkpoints.invalidate(ckptKey, cfg.Restore)
			return nil, &restoreError{key: ckptKey, err: err}
		}
		return nil, err
	}
	// Aggregate over the workload cores only: polluter cores are part of
	// the machine but not of the measurement (Section 3.1 measures the
	// cores under test).
	total := aggregateCores(res.PerCore, coreOf)
	// DRAM busy/span are chip-wide.
	total.DRAMBusyCycles = res.Total.DRAMBusyCycles
	total.DRAMTotalCycles = res.Total.DRAMTotalCycles
	total.DRAMChannels = res.Total.DRAMChannels
	m := &Measurement{Counters: total, WindowCycles: res.Cycles, BenchName: b.Name, Truncated: res.Truncated, warmSource: warmSource}
	for _, iv := range res.Intervals {
		agg := aggregateCores(iv.PerCore, coreOf)
		agg.DRAMBusyCycles = iv.DRAMBusyCycles
		agg.DRAMTotalCycles = uint64(iv.Cycles)
		agg.DRAMChannels = res.Total.DRAMChannels
		m.Samples = append(m.Samples, IntervalSample{Counters: agg, WindowCycles: iv.Cycles})
	}
	return m, nil
}

// aggregateCores sums the counter blocks of the distinct workload cores
// in coreOf.
func aggregateCores(perCore []*counters.Counters, coreOf []int) counters.Counters {
	var total counters.Counters
	seen := map[int]bool{}
	for _, c := range coreOf {
		if seen[c] {
			continue
		}
		seen[c] = true
		if pc := perCore[c]; pc != nil {
			total.Add(pc)
		}
	}
	return total
}

// placeCore maps workload-core index cid (0..n-1) to a global core id.
// Single-socket placement uses socket 0's cores in order; split
// placement spreads the n cores over the machine's sockets in
// contiguous even blocks (the first block on socket 0), the
// configuration the paper uses to expose read-write sharing as
// remote-cache hits (Section 3.1).
func placeCore(cid, n int, split bool, mem cache.SystemConfig) int {
	if !split || mem.Sockets < 2 {
		return cid
	}
	per := (n + mem.Sockets - 1) / mem.Sockets
	return (cid/per)*mem.CoresPerSocket + cid%per
}

// polluterCores picks the cores the cache polluters run on: two spare
// cores on a single-socket run (the paper's configuration), or one
// spare core on each socket the workload occupies, so every LLC under
// test is polluted.
func polluterCores(coreOf []int, mem cache.SystemConfig) ([]int, error) {
	used := make(map[int]bool, len(coreOf))
	sockets := map[int]bool{}
	for _, c := range coreOf {
		used[c] = true
		sockets[c/mem.CoresPerSocket] = true
	}
	perSocket := 1
	if len(sockets) == 1 {
		perSocket = 2
	}
	var out []int
	for so := 0; so < mem.Sockets; so++ {
		if !sockets[so] {
			continue
		}
		found := 0
		for local := 0; local < mem.CoresPerSocket && found < perSocket; local++ {
			id := so*mem.CoresPerSocket + local
			if !used[id] {
				out = append(out, id)
				found++
			}
		}
		if found < perSocket {
			return nil, fmt.Errorf("core: no spare cores for polluters on socket %d (%d workload cores on a %d-core socket)",
				so, len(used), mem.CoresPerSocket)
		}
	}
	return out, nil
}

// polluterProg is one cache-polluter thread: it traverses a private
// array in a pseudo-random sequence sized so that accesses miss the
// upper-level caches but hit (and therefore occupy) the LLC. It is
// Stateful, so polluted configurations can checkpoint.
type polluterProg struct {
	fn    *trace.Func //simlint:ok checkpointcov construction-time code layout
	rnd   *rng.Rand
	lines uint64 //simlint:ok checkpointcov derived from PolluteBytes
	base  uint64 //simlint:ok checkpointcov derived from polluter id
}

func (p *polluterProg) Init(e *trace.Emitter) { e.Call(p.fn) }

func (p *polluterProg) Step(e *trace.Emitter) bool {
	for it := 0; it < 64; it++ {
		// Independent random loads maximise occupancy pressure.
		for k := 0; k < 16; k++ {
			e.Load(p.base+(uint64(p.rnd.Int63n(int64(p.lines))))*64, 8, trace.NoVal, false)
		}
		e.ALUIndep(2)
	}
	return true
}

func (p *polluterProg) SaveState(w *checkpoint.Writer) {
	w.Tag("polluter")
	p.rnd.SaveState(w)
}

func (p *polluterProg) LoadState(rd *checkpoint.Reader) {
	rd.Expect("polluter")
	p.rnd.LoadState(rd)
}

// polluterWindow is the address span each polluter thread owns. Validate
// caps PolluteBytes at it, so no polluter array runs into its
// neighbour's window or wraps the address space.
const polluterWindow = 0x10_0000_0000

// startPolluter builds one polluter thread's generator.
func startPolluter(bytes uint64, id uint64, seed int64) *trace.StepGen {
	cfg := trace.EmitterConfig{Seed: seed, BlockLen: 8, BranchEntropy: 0}
	layout := trace.NewCodeLayout(0x10_0000+id*0x1_0000, 0x1_0000)
	lines := bytes / 64
	if lines == 0 {
		lines = 1
	}
	return trace.NewStepGen(cfg, &polluterProg{
		fn:    layout.Func("polluter", 64),
		rnd:   rng.New(seed),
		lines: lines,
		base:  uint64(0x20_0000_0000) + id*polluterWindow,
	})
}

// restoreError marks a measurement that failed while starting from a
// cached warm image (as opposed to failing on its own terms).
type restoreError struct {
	key string
	err error
}

func (e *restoreError) Error() string {
	return fmt.Sprintf("core: restoring warm checkpoint: %v", e.err)
}

func (e *restoreError) Unwrap() error { return e.err }

// MeasureBench creates a fresh instance of b and measures it. If a
// cached warm image fails to restore (a corrupt or incompatible
// snapshot that slipped past the integrity checks), measure has
// already dropped the image; the measurement is retried on a fresh
// instance and warms from cold — determinism guarantees the same
// result either way.
func MeasureBench(b Bench, o Options) (*Measurement, error) {
	m, err := measure(b, o)
	if rerr := (*restoreError)(nil); errors.As(err, &rerr) && o.Checkpoints != nil {
		m, err = measure(b, o)
	}
	if err != nil {
		return nil, fmt.Errorf("core: measuring %s: %w", b.Name, err)
	}
	return m, nil
}

// EntryResult aggregates an Entry's members: mean plus min/max of a
// metric extracted per member (Figure 3's range bars).
type EntryResult struct {
	Label        string
	Measurements []*Measurement
}

// MeanMinMax extracts f per member and returns the mean plus the
// minimum and maximum member values — the spread across an entry's
// members (Figure 3's range bars), NOT a confidence interval. For
// statistical intervals over a sampled run use CI.
func (r *EntryResult) MeanMinMax(f func(*Measurement) float64) (mean, min, max float64) {
	if len(r.Measurements) == 0 {
		return 0, 0, 0
	}
	min, max = f(r.Measurements[0]), f(r.Measurements[0])
	var sum float64
	for _, m := range r.Measurements {
		v := f(m)
		sum += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return sum / float64(len(r.Measurements)), min, max
}

// mean is the mean of MeanMinMax, for drivers that plot no range bars.
func mean(r *EntryResult, f func(*Measurement) float64) float64 {
	m, _, _ := r.MeanMinMax(f)
	return m
}

// CI returns the entry-level 95% confidence interval of metric f: each
// member contributes its per-interval sample statistics, combined in
// quadrature across the independently-measured members. Contiguous
// members degrade to zero-width point estimates, so the result is a
// plain mean when sampling is off.
func (r *EntryResult) CI(f func(*Measurement) float64) Estimate {
	ests := make([]sample.Estimate, 0, len(r.Measurements))
	for _, m := range r.Measurements {
		ests = append(ests, m.CI(f))
	}
	return sample.Combine(ests)
}
