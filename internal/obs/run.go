package obs

import "time"

// This file implements per-run phase attribution: the engine's answer
// to "where does wall time go inside one measurement".
//
// The mechanism is a single cursor, not nested timers. A RunObs holds
// the current phase and the stamp of the last boundary; Enter(p)
// attributes everything since that boundary to the CURRENT phase,
// records the segment in that phase's histogram, and makes p current.
// Every nanosecond between StartRun and Finish therefore lands in
// exactly one phase — attribution is exclusive and exhaustive by
// construction, which is what lets the CI obs job assert that the
// phase breakdown sums to (at least 95% of) the measured wall time
// instead of trusting hand-placed timer pairs.
//
// The interleaved trace-generation attribution falls out of the same
// mechanism: the engine's batch-pull site brackets the generator call
// with Enter(PhaseTraceGen)/Enter(prev), so generation time is carved
// out of whatever phase it happens inside (functional warming, a timed
// window, or detailed warming) and attributed to trace_gen. Metrics
// are therefore exclusive; the coarse trace SPANS (warm, window,
// restore...) are inclusive wall intervals — the two views answer
// different questions and both are emitted.

// Phase names one exclusive wall-time attribution class of a run.
type Phase uint8

const (
	// PhaseSetup is everything not otherwise attributed: workload
	// startup, machine construction, result aggregation.
	PhaseSetup Phase = iota
	// PhaseTraceGen is time inside trace-generator batch pulls (the
	// workload Steps they run), wherever they occur.
	PhaseTraceGen
	// PhaseFuncWarm is functional warming: cold warm-up plus the
	// between-interval warming of sampled runs.
	PhaseFuncWarm
	// PhaseDetailWarm is the detailed-warming quantum before each
	// sampled window.
	PhaseDetailWarm
	// PhaseTimedWindow is the contiguous timed measurement window.
	PhaseTimedWindow
	// PhaseSampleInterval is a sampled run's timed window.
	PhaseSampleInterval
	// PhaseCkptSave is warm-image capture (serialization plus the
	// store's commit, including the disk write).
	PhaseCkptSave
	// PhaseCkptRestore is warm-image deserialization into the machine.
	PhaseCkptRestore
	numPhases
)

// phaseNames indexes Phase; these are the "engine.phase.<name>" metric
// suffixes and the span names in the emitted trace.
//
//simlint:ok globalrand immutable name lookup table, written only at init
var phaseNames = [numPhases]string{
	"setup", "trace_gen", "func_warm", "detail_warm",
	"timed_window", "sample_interval",
	"ckpt_save", "ckpt_restore",
}

func (p Phase) String() string {
	if p >= numPhases {
		return "invalid"
	}
	return phaseNames[p]
}

// RunObs observes one measurement run: phase attribution into the
// observer's registry plus one trace track for the run's spans. It is
// single-goroutine (the engine runs a simulation on one goroutine);
// a nil RunObs — observability disarmed — no-ops everywhere.
type RunObs struct {
	ob     *Observer
	bench  string
	config string
	source string
	track  int
	start  int64
	last   int64
	cur    Phase
	done   bool
}

// StartRun opens a run observation: acquires a trace track and starts
// the attribution cursor in PhaseSetup. Callers must Finish it.
func (o *Observer) StartRun(bench, config string) *RunObs {
	if o == nil {
		return nil
	}
	now := o.stamp()
	return &RunObs{
		ob: o, bench: bench, config: config,
		track: o.tracer.acquire(),
		start: now, last: now, cur: PhaseSetup,
	}
}

// Enter attributes the wall time since the last boundary to the
// current phase and makes p current, returning the previous phase so
// nested carve-outs (trace generation) can restore it.
func (r *RunObs) Enter(p Phase) Phase {
	if r == nil {
		return PhaseSetup
	}
	now := r.ob.stamp()
	r.ob.phases[r.cur].Observe(now - r.last)
	r.last = now
	prev := r.cur
	r.cur = p
	return prev
}

// SpanStart stamps the opening of a coarse trace span; pass the stamp
// to SpanEnd. (Stamps are nanoseconds on the observer clock; a
// disarmed RunObs returns 0 and SpanEnd ignores it.)
func (r *RunObs) SpanStart() int64 {
	if r == nil {
		return 0
	}
	return r.ob.stamp()
}

// SpanEnd emits one complete span on the run's track, from the
// SpanStart stamp to now. Coarse engine spans are inclusive wall
// intervals (see the file comment).
func (r *RunObs) SpanEnd(name string, start int64) {
	if r == nil {
		return
	}
	r.ob.tracer.span(r.track, name, "engine", start, r.ob.stamp(), nil)
}

// SetSource records where the run's warm state came from ("cold",
// "checkpoint-fork"); it becomes an argument of the run-level span.
func (r *RunObs) SetSource(s string) {
	if r != nil {
		r.source = s
	}
}

// Finish attributes the tail segment, emits the run-level span
// (named by benchmark, with the configuration and warm source as
// arguments), releases the track, and returns the run's total
// observed wall time. Safe to call once; a nil RunObs returns 0.
func (r *RunObs) Finish() time.Duration {
	if r == nil || r.done {
		return 0
	}
	r.done = true
	now := r.ob.stamp()
	r.ob.phases[r.cur].Observe(now - r.last)
	args := map[string]any{"config": r.config}
	if r.source != "" {
		args["source"] = r.source
	}
	r.ob.tracer.span(r.track, r.bench, "run", r.start, now, args)
	r.ob.tracer.release(r.track)
	return time.Duration(now - r.start)
}
