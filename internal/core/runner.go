package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"cloudsuite/internal/obs"
	"cloudsuite/internal/sim/sample"
)

// This file implements the experiment-orchestration layer: a Runner
// that fans measurement requests out across a worker pool and memoizes
// results, so the figure drivers and Validate stop re-running identical
// configurations. Runs are bit-reproducible per seed (the trace layer
// generates instruction streams in lockstep with the simulator), so a
// parallel Runner produces byte-identical figure tables to a serial
// one: the worker count and the cache change wall-clock time, never
// results.

// MeasureRequest names one measurement: a benchmark under options.
type MeasureRequest struct {
	Bench   Bench
	Options Options
}

// ProgressEvent reports one completed measurement of a MeasureAll
// submission.
type ProgressEvent struct {
	// Bench is the benchmark that finished.
	Bench string
	// Done and Total count completed vs submitted requests of the
	// current MeasureAll call.
	Done, Total int
	// Cached marks requests satisfied from the memo, the finished
	// result of an earlier run of the same key, rather than by a fresh
	// simulation.
	Cached bool
	// Source says where the result came from: "memo" (an earlier run's
	// finished result), "checkpoint-fork" (fresh run restored from a
	// warm image), or "cold" (fresh run warmed from scratch). Empty when
	// the request errored before its source was established.
	Source string
	// Duration is the request's wall-clock resolution time: simulation
	// time for fresh runs, lookup time for memoized ones. Observer-side
	// provenance only (stamped through internal/obs) — it never feeds
	// back into scheduling or results.
	Duration time.Duration
	// Err is the measurement error, if any.
	Err error
}

// ProgressFunc consumes progress events. Calls are serialized across
// the whole Runner, and within one MeasureAll submission Done values
// arrive in strictly increasing order, so a callback may render
// in-place progress lines without tearing.
type ProgressFunc func(ProgressEvent)

// RunnerStats counts the runner's activity.
type RunnerStats struct {
	// Requests is the number of measurements requested; a request
	// Options.Validate rejects never counts.
	Requests int64
	// Runs is the number of simulations actually executed.
	Runs int64
	// CacheHits is the number of requests satisfied without a fresh
	// simulation; Requests == Runs + CacheHits.
	CacheHits int64
	// Errors is the number of executed runs that failed.
	Errors int64
	// MeasuredInsts is the total instruction count committed inside
	// timed measurement windows across executed runs — the
	// counter-bearing work interval sampling reduces (cache hits
	// measure nothing new). Detailed-warming instructions of sampled
	// runs execute under full timing but are not counted here, so
	// wall-clock cost shrinks less than this metric does.
	MeasuredInsts int64
}

// measureKey identifies a measurement up to result equality: the
// benchmark name plus the canonicalized options (defaults resolved, the
// machine resolved to a value). Two requests with equal keys produce
// bit-identical Measurements, which is what licenses memoization.
//
// Benchmarks are identified by Bench.Name, as warm images are: a
// custom Bench must use a name distinct from any differently-configured
// benchmark measured through the same Runner or checkpoint store.
type measureKey struct {
	bench string
	opt   canonicalOptions
}

// canonicalOptions is Options with measure's defaulting applied and the
// machine held by value, so it is comparable and collision-free.
type canonicalOptions struct {
	machine      Machine
	cores        int
	smt          bool
	splitSockets bool
	polluteBytes uint64
	warmupInsts  int64
	measureInsts int64
	sampling     sample.Spec
	seed         int64
}

// canonicalize is the single defaulting resolution: measure consumes
// the canonical form directly, so requests spelled differently but
// measured identically share a cache slot by construction — the cache
// key and the measurement semantics cannot drift apart. It resolves
// zeros to defaults and nothing else: callers pass Options that
// Validate accepted.
func canonicalize(o Options) canonicalOptions {
	c := canonicalOptions{
		cores:        o.Cores,
		smt:          o.SMT,
		splitSockets: o.SplitSockets || o.Sockets >= 2,
		polluteBytes: o.PolluteBytes,
		warmupInsts:  o.WarmupInsts,
		measureInsts: o.MeasureInsts,
		seed:         o.Seed,
	}
	if c.cores == 0 {
		c.cores = DefaultOptions().Cores
	}
	if c.warmupInsts == 0 {
		c.warmupInsts = DefaultOptions().WarmupInsts
	}
	if c.measureInsts == 0 {
		c.measureInsts = DefaultOptions().MeasureInsts
	}
	// Sampling defaults derive from the resolved contiguous budget, so
	// two spellings of the same schedule share a cache slot.
	c.sampling = o.Sampling.Normalize(c.measureInsts)
	switch {
	case o.Machine != nil:
		c.machine = *o.Machine
	case o.CoresPerSocket > 0 || o.Sockets >= 2:
		c.machine = ScaledMachine(o.Sockets, o.CoresPerSocket)
	case o.SplitSockets:
		c.machine = TwoSocket()
	default:
		c.machine = XeonX5670()
	}
	return c
}

// label renders the canonical configuration as a short human-readable
// string: the "config" argument of the run-level trace span. Purely
// descriptive — the memoization key stays canonicalOptions itself.
func (c *canonicalOptions) label() string {
	s := fmt.Sprintf("machine=%s cores=%d smt=%t split=%t pollute=%d warm=%d measure=%d seed=%d",
		c.machine.Name, c.cores, c.smt, c.splitSockets,
		c.polluteBytes, c.warmupInsts, c.measureInsts, c.seed)
	if c.sampling.Enabled() {
		s += fmt.Sprintf(" intervals=%d", c.sampling.Intervals)
	}
	return s
}

// memoEntry is the finished result of one run: its measurement or its
// error.
type memoEntry struct {
	m   *Measurement
	err error
}

// Runner orchestrates measurements: each MeasureAll call runs a worker
// pool of at most the configured width, and a memo keyed on (bench,
// canonicalized options) holds every finished result. One Runner can
// be shared by many experiment drivers — cmd/figures submits all
// selected figures through a single Runner so baseline configurations
// measured by several figures run once. All methods are safe for
// concurrent use. The width bounds each MeasureAll call, not the
// Runner: concurrent calls run their pools side by side, and a key
// that two of them request before either has finished may be
// simulated by both, to identical results.
type Runner struct {
	workers int
	progMu  sync.Mutex // serializes progress emission Runner-wide

	// mu guards every field below. Each stats transition happens in one
	// critical section, so any Stats snapshot satisfies
	// Requests == Runs + CacheHits exactly (the -race hammer test in
	// obs_test.go holds the Runner to this).
	mu       sync.Mutex
	progress ProgressFunc
	memo     map[measureKey]memoEntry
	ckpts    *CheckpointStore
	ob       *obs.Observer
	met      runnerMetrics
	stats    RunnerStats
}

// runnerMetrics holds the Runner's pre-resolved metric handles. All
// fields are nil when no observer is installed; nil handles no-op, so
// recording sites carry no arming branches.
type runnerMetrics struct {
	requests    *obs.Counter
	memoHits    *obs.Counter
	runsCold    *obs.Counter
	runsFork    *obs.Counter
	errors      *obs.Counter
	measureWall *obs.Histogram // fresh-run simulation wall time
	queueWait   *obs.Histogram // submission -> worker-pickup latency
}

func resolveRunnerMetrics(o *obs.Observer) runnerMetrics {
	reg := o.Registry()
	return runnerMetrics{
		requests:    reg.Counter("runner.requests"),
		memoHits:    reg.Counter("runner.memo_hits"),
		runsCold:    reg.Counter("runner.runs.cold"),
		runsFork:    reg.Counter("runner.runs.checkpoint_fork"),
		errors:      reg.Counter("runner.errors"),
		measureWall: reg.Histogram("runner.measure_wall"),
		queueWait:   reg.Histogram("runner.queue_wait"),
	}
}

// runResult describes how one request was satisfied, for progress
// reporting: provenance and wall-clock cost, never results.
type runResult struct {
	cached bool
	source string
	dur    time.Duration
}

// NewRunner returns a Runner with the given worker-pool width.
// workers <= 0 selects GOMAXPROCS.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, memo: map[measureKey]memoEntry{}}
}

// Workers reports the worker-pool width.
func (r *Runner) Workers() int { return r.workers }

// SetProgress installs a progress callback. Pass nil to disable.
func (r *Runner) SetProgress(f ProgressFunc) {
	r.mu.Lock()
	r.progress = f
	r.mu.Unlock()
}

// SetCheckpoints routes the Runner's measurements through a warm-state
// checkpoint store: configurations that differ only in measurement-side
// knobs fork from one warm image, and warm images persist across
// processes in the store's directory. Requests whose Options already
// carry a store keep it. Pass nil to disable. Restored runs are byte-
// identical to cold ones, so the store never changes results — only
// wall-clock time.
func (r *Runner) SetCheckpoints(cs *CheckpointStore) {
	r.mu.Lock()
	r.ckpts = cs
	ob := r.ob
	r.mu.Unlock()
	if ob != nil {
		cs.SetObserver(ob)
	}
}

// Checkpoints returns the store installed by SetCheckpoints, if any.
func (r *Runner) Checkpoints() *CheckpointStore {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ckpts
}

// SetObserver arms the Runner with an observability sink: per-request
// counters and wall-time histograms land in the observer's registry,
// and the observer propagates to measurements (Options.Obs) and to the
// checkpoint store, if one is installed. Observation is a pure
// observer — armed runs produce byte-identical results to unarmed ones
// (differential-tested). Pass nil to disarm.
func (r *Runner) SetObserver(o *obs.Observer) {
	r.mu.Lock()
	r.ob = o
	r.met = resolveRunnerMetrics(o)
	cs := r.ckpts
	r.mu.Unlock()
	cs.SetObserver(o)
}

// Observer returns the observer installed by SetObserver, if any.
func (r *Runner) Observer() *obs.Observer {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ob
}

// Stats returns a snapshot of the runner's counters. Every counter
// transition is a single critical section, so any snapshot is
// internally consistent: Requests == Runs + CacheHits holds exactly,
// even while MeasureAll is in flight.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

func (r *Runner) emit(ev ProgressEvent) {
	r.mu.Lock()
	f := r.progress
	r.mu.Unlock()
	if f != nil {
		f(ev)
	}
}

// MeasureAll measures every request, fanning them out across a worker
// pool of at most Workers goroutines, and returns results in request
// order: results[i] belongs to reqs[i]. Each key runs at most once per
// call: duplicate requests, and requests matching runs that finished
// earlier, are satisfied from the memo. On error the first
// failure in request order is returned; because measurements are
// deterministic, which error that is does not depend on scheduling.
func (r *Runner) MeasureAll(reqs []MeasureRequest) ([]*Measurement, error) {
	n := len(reqs)
	results := make([]*Measurement, n)
	errs := make([]error, n)

	// Progress is reported under the Runner-wide progMu, which also
	// owns this call's counter: callbacks never run concurrently (even
	// from concurrent MeasureAll calls on a shared Runner) and within
	// this submission Done never goes backwards, so the final event is
	// the last one this submission delivers. The callback runs without
	// mu, so it may call back into the Runner (Stats, say).
	var doneCount int
	report := func(req MeasureRequest, rr runResult, err error) {
		r.progMu.Lock()
		doneCount++
		r.emit(ProgressEvent{
			Bench: req.Bench.Name, Done: doneCount, Total: n,
			Cached: rr.cached, Source: rr.source, Duration: rr.dur, Err: err,
		})
		r.progMu.Unlock()
	}

	// Dispatch only the first occurrence of each key to the pool, so no
	// key runs twice in this call. Duplicates resolve against the memo
	// once the unique set has completed.
	seen := map[measureKey]bool{}
	var uniq, dups []int
	for i, req := range reqs {
		k := measureKey{bench: req.Bench.Name, opt: canonicalize(req.Options)}
		if seen[k] {
			dups = append(dups, i)
		} else {
			seen[k] = true
			uniq = append(uniq, i)
		}
	}

	// Queue-wait latency: every unique request stamps the submission
	// boundary; the histogram records how long it sat before a worker
	// picked it up (observer-side wall clock through internal/obs).
	r.mu.Lock()
	met := r.met
	r.mu.Unlock()
	submitted := obs.Now()

	// Every worker count runs this pool; with one worker it measures
	// uniq in submission order.
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(r.workers, len(uniq)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				met.queueWait.Observe(int64(obs.Since(submitted)))
				req := reqs[i]
				m, rr, err := r.measureOne(req)
				results[i], errs[i] = m, err
				report(req, rr, err)
			}
		}()
	}
	for _, i := range uniq {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, i := range dups {
		m, rr, err := r.measureOne(reqs[i])
		results[i], errs[i] = m, err
		report(reqs[i], rr, err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// measureOne resolves one request against the memo, running the
// simulation if no run of its key has finished yet, and writing the
// memo when it completes. It reports how the result was obtained
// (memo vs fresh, warm source, wall time).
func (r *Runner) measureOne(req MeasureRequest) (*Measurement, runResult, error) {
	// The front door: an invalid request fails before it is keyed, so it
	// takes no memo slot and leaves the stats untouched.
	if err := req.Options.Validate(); err != nil {
		return nil, runResult{}, fmt.Errorf("core: measuring %s: %w", req.Bench.Name, err)
	}
	start := obs.Now()
	key := measureKey{bench: req.Bench.Name, opt: canonicalize(req.Options)}
	r.mu.Lock()
	met, ob, ckpts := r.met, r.ob, r.ckpts
	e, hit := r.memo[key]
	r.stats.Requests++
	if hit {
		r.stats.CacheHits++
	} else {
		r.stats.Runs++
	}
	r.mu.Unlock()
	met.requests.Inc()

	var rr runResult
	if hit {
		met.memoHits.Inc()
		rr = runResult{cached: true, source: "memo"}
	} else {
		opts := req.Options
		if opts.Checkpoints == nil {
			opts.Checkpoints = ckpts
		}
		if opts.Obs == nil {
			opts.Obs = ob
		}
		e.m, e.err = MeasureBench(req.Bench, opts)
		met.measureWall.Observe(int64(obs.Since(start)))
		r.mu.Lock()
		r.memo[key] = e
		if e.err != nil {
			r.stats.Errors++
		} else {
			r.stats.MeasuredInsts += int64(e.m.Commits())
		}
		r.mu.Unlock()
		if e.err != nil {
			met.errors.Inc()
		} else {
			rr.source = e.m.WarmSource()
			if rr.source == "checkpoint-fork" {
				met.runsFork.Inc()
			} else {
				met.runsCold.Inc()
			}
		}
	}
	rr.dur = obs.Since(start)
	if e.err != nil {
		return nil, rr, e.err
	}
	m := *e.m // copy so callers cannot corrupt the memo
	return &m, rr, nil
}

// grid measures every member of every entry under each of opts as one
// MeasureAll batch and returns out[c][i], entries[i] under opts[c]. It
// is the substrate the figure drivers stand on: each enumerates its
// whole request matrix up front, so the worker pool sees all the
// parallelism at once.
func (r *Runner) grid(entries []Entry, opts ...Options) ([][]*EntryResult, error) {
	var reqs []MeasureRequest
	for _, o := range opts {
		for _, e := range entries {
			for _, b := range e.Members {
				reqs = append(reqs, MeasureRequest{Bench: b, Options: o})
			}
		}
	}
	ms, err := r.MeasureAll(reqs)
	if err != nil {
		return nil, err
	}
	out := make([][]*EntryResult, len(opts))
	for c := range out {
		out[c] = make([]*EntryResult, len(entries))
		for i, e := range entries {
			n := len(e.Members)
			out[c][i] = &EntryResult{Label: e.Label, Measurements: ms[:n:n]}
			ms = ms[n:]
		}
	}
	return out, nil
}
