// Package obs is the simulator's observability layer: a lightweight
// metrics registry (counters and wall-time histograms), a structured
// trace emitter producing Chrome trace_event JSON, and the
// profiling plumbing behind the CLIs' -pprof/-obs-out flags.
//
// The package exists under one hard contract: observability is a PURE
// OBSERVER. An armed run must produce byte-identical results to an
// unarmed one — obs reads wall-clock time and simulator counters, and
// writes only to its own registry, its own trace buffer, and stderr/
// file outputs that never feed back into a measurement. Nothing in this
// package may influence scheduling, randomness, or any simulated state.
// The armed-vs-unarmed differential tests in internal/core and the CI
// obs job gate that property.
//
// Wall-clock reads are banned everywhere else in the simulator tree
// (the globalrand analyzer enforces it: simulated time lives in cycle
// counters). This package is the single audited exception — every
// time.Now/time.Since call here carries a //simlint:ok suppression, and
// internal/obs is inside the analyzer's scope precisely so that any new
// clock read must be annotated and reviewed. Code in internal/core or
// internal/sim that needs a wall-clock duration (progress reporting,
// phase timing) calls Now/Since here instead of the time package.
//
// All entry points are nil-safe: a nil *Observer (observability
// disarmed, the default) makes every handle a no-op, so instrumented
// call sites need no arming branches and the disarmed hot path costs a
// nil check.
package obs

import "time"

// Time is a wall-clock stamp handed out by Now. Callers outside obs
// treat it as opaque: its only use is Since.
type Time = time.Time

// Now returns the current wall-clock time. This is the simulator
// tree's single sanctioned clock read (see the package comment);
// callers use it exclusively for observer-side durations that never
// feed back into simulation.
func Now() Time {
	return time.Now() //simlint:ok globalrand obs is the audited wall-clock boundary; durations never feed back into simulation
}

// Since returns the wall-clock time elapsed since t.
func Since(t Time) time.Duration {
	return time.Since(t) //simlint:ok globalrand obs is the audited wall-clock boundary; durations never feed back into simulation
}

// Observer bundles one process's observability state: the metrics
// registry and the trace emitter, plus pre-resolved handles for the
// engine's phase histograms (resolved once here so the engine's phase
// transitions are map-lookup-free). A nil Observer disarms everything.
type Observer struct {
	reg    *Registry
	tracer *Tracer
	phases [numPhases]*Histogram
}

// New returns an armed Observer with an empty registry and trace
// buffer. The trace epoch (timestamp zero of the emitted trace) is the
// moment of creation.
func New() *Observer {
	o := &Observer{reg: NewRegistry(), tracer: newTracer()}
	for p := Phase(0); p < numPhases; p++ {
		o.phases[p] = o.reg.Histogram("engine.phase." + p.String())
	}
	return o
}

// Registry returns the observer's metrics registry (nil when the
// observer is nil; Registry handles are themselves nil-safe, so
// `ob.Registry().Counter("x")` is a valid no-op chain when disarmed).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// stamp returns nanoseconds since the trace epoch — the observer's
// internal monotonic clock, used for both phase attribution and trace
// timestamps so metrics and spans line up exactly.
func (o *Observer) stamp() int64 {
	return int64(time.Since(o.tracer.epoch)) //simlint:ok globalrand obs is the audited wall-clock boundary; durations never feed back into simulation
}
