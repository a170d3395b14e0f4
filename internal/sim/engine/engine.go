// Package engine implements the cycle-approximate out-of-order core
// model and the chip-level simulation loop. Together with the memory
// system (internal/sim/cache) it is the stand-in for the Xeon X5670 of
// Table 1: 4-wide issue and retire, a 128-entry reorder buffer, 36
// reservation stations, 48/32-entry load/store queues, and optional
// two-way simultaneous multi-threading.
//
// The model tracks what the paper's counters measure — commit slots,
// stall cycles and their user/OS attribution, super-queue (off-core
// request) occupancy for memory cycles and MLP, branch mispredictions,
// and all cache-hierarchy events — without simulating wrong-path
// execution or detailed scheduler ports. Section 3.1's measurement
// definitions are implemented verbatim in the cycle loop.
package engine

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"cloudsuite/internal/obs"
	"cloudsuite/internal/sim/bpred"
	"cloudsuite/internal/sim/cache"
	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/sim/counters"
	"cloudsuite/internal/sim/tlb"
	"cloudsuite/internal/trace"
)

// CoreConfig sizes one core (Table 1 values by default).
type CoreConfig struct {
	// Width is the issue/retire width.
	Width int
	// ROB is the reorder-buffer capacity (shared between SMT contexts),
	// at most trace.MaxDepDist: a longer window could hold a producer
	// whose saturated dependence distance no longer locates it.
	ROB int
	// RS is the reservation-station count.
	RS int
	// LoadQ and StoreQ are load/store queue capacities.
	LoadQ, StoreQ int
	// MSHRs is the super-queue size: the maximum number of outstanding
	// L1 data misses.
	MSHRs int
	// MispredictPenalty is the front-end refill time after a resolved
	// mispredicted branch.
	MispredictPenalty int
	// ALULatency, MulLatency, FPLatency are execution latencies.
	ALULatency, MulLatency, FPLatency int
}

// DefaultCoreConfig returns the Table-1 core: 4-wide, 128-entry ROB,
// 36 reservation stations, 48/32 load/store buffers.
func DefaultCoreConfig() CoreConfig {
	return CoreConfig{
		Width: 4, ROB: 128, RS: 36, LoadQ: 48, StoreQ: 32,
		MSHRs: 16, MispredictPenalty: 14,
		ALULatency: 1, MulLatency: 3, FPLatency: 4,
	}
}

// Thread binds an instruction stream to a core. Placing two threads on
// the same core models SMT.
type Thread struct {
	// Gen produces the thread's dynamic instruction stream.
	Gen trace.Generator
	// Core is the global core id the thread runs on.
	Core int
	// Measured threads count toward the measurement-window stop
	// condition; helper threads (e.g. cache polluters) do not.
	Measured bool
}

// RunConfig configures one simulation.
type RunConfig struct {
	Core CoreConfig
	Mem  cache.SystemConfig
	// WarmupInsts is the per-thread functional warm-up length: caches,
	// TLBs and predictors are trained without timing, mirroring the
	// paper's ramp-up period before the measurement window.
	WarmupInsts int64
	// MeasureInsts is the per-measured-thread instruction budget of each
	// timed window (the whole measurement in contiguous mode, one
	// interval in sampled mode). Must be positive.
	MeasureInsts int64
	// MaxCycles bounds each timed window as a safety net (0 = no bound).
	// A window that reaches it stops and is reported Truncated; core's
	// measure refuses such a run rather than report a partial window.
	MaxCycles int64

	// Intervals selects SMARTS-style interval sampling when >= 1: the
	// run executes Intervals timed windows of MeasureInsts each, every
	// window after the first preceded by IntervalWarmInsts of functional
	// warming (caches, TLBs and predictors updated, counters frozen).
	// Per-window counter deltas land in Result.Intervals. 0 runs the
	// classic single contiguous window.
	Intervals int
	// IntervalWarmInsts is the per-thread functional-warming budget
	// between consecutive measurement intervals.
	IntervalWarmInsts int64
	// DetailWarmInsts, in sampled mode, runs an aggregate quantum of
	// DetailWarmInsts x measured-threads through the detailed timing
	// model immediately before each window's counters are snapshotted:
	// the window then opens on steady-state pipeline occupancy instead
	// of the commit burst a functionally-refilled window would produce.
	DetailWarmInsts int64
	// StopSampling, when non-nil, is consulted after each completed
	// interval with the windows measured so far; returning true ends the
	// run early (adaptive sampling). The callback sees deterministic
	// inputs, so early stopping keeps runs bit-reproducible per seed.
	StopSampling func(done []IntervalResult) bool

	// Checkpoint, when non-nil, is invoked once at the warm->measure
	// boundary (after WarmupInsts of functional warming, before the
	// first timed window) with a snapshot of the complete simulated-
	// machine state and the complete generator state, an image that
	// restores by a pure load. It is not invoked on restored runs. The
	// callback runs on the simulation goroutine; a slow callback delays
	// the measurement but cannot change its result. A run with
	// Checkpoint or Restore set fails at start unless every thread's
	// generator can serialize its state.
	Checkpoint func(*checkpoint.Snapshot)
	// SaveShared and LoadShared serialize and restore the workload's
	// shared structures (data-store contents, kernel state, allocator
	// cursors — everything the per-thread generators reference but do
	// not own) as part of the image's generator half. Nil means the
	// threads share no state. LoadShared must accept exactly what
	// SaveShared wrote (signatures match workloads.Workload's
	// SaveShared/LoadShared; errors flow through the Reader).
	SaveShared func(*checkpoint.Writer)
	LoadShared func(*checkpoint.Reader)
	// CheckpointKey is the identity string recorded in snapshots taken
	// by this run; restore-side caches use it to name the warm-relevant
	// configuration the image belongs to.
	CheckpointKey string
	// Restore, when non-nil, starts the run from the given warm
	// snapshot instead of warming from cold. Restore is a pure load:
	// machine state, workload shared state (via LoadShared), and every
	// thread's generator state deserialize directly, with no
	// instruction replay. The snapshot must come from a run with
	// identical warm-relevant configuration (machine, threads, and
	// WarmupInsts); mismatches fail with an error. A restored run is
	// byte-identical to the warm run it forked from.
	Restore     *checkpoint.Snapshot
	restoreOnly bool // set by engine.Restore: stop once the image is loaded

	// CheckInvariantsEvery, when positive, arms the memory system's
	// coherence invariant checker on every n-th access (1 = every
	// access), where a violation panics, and checks the counter
	// conservation laws on every core's window delta, where a violation
	// fails the run. Checking is a pure observer: it never changes a
	// measurement, only vetoes an incoherent one, so smoke runs at new
	// scales can assert the directory's correctness in-line.
	CheckInvariantsEvery int

	// Obs, when non-nil, observes the run: wall time is attributed to
	// phases (functional warming, detailed warming, timed windows,
	// trace generation, checkpoint save/restore) in the
	// observer's registry, and coarse spans land on the run's trace
	// track. Observation is a pure observer — it reads the wall clock
	// and writes only observer state, so an armed run is byte-identical
	// to an unarmed one (differential-tested). Attribution is exclusive
	// at phase boundaries only: the per-cycle simulation loop never
	// touches it.
	Obs *obs.RunObs
}

// IntervalResult is one timed measurement window of a sampled run: the
// per-core counter deltas of that window only (functional-warming
// activity between windows is excluded by construction).
type IntervalResult struct {
	// PerCore holds each used core's counter delta over this window,
	// indexed by global core id (nil for unused cores). DRAM busy/span
	// fields are zeroed here; the chip-wide values are below.
	PerCore []*counters.Counters
	// Cycles is this window's length in cycles.
	Cycles int64
	// DRAMBusyCycles is the chip-wide DRAM busy-cycle delta of this
	// window (summed over channels and sockets).
	DRAMBusyCycles uint64
	// Truncated reports that the window hit MaxCycles before its stop
	// condition: its counters cover a partial window.
	Truncated bool `json:"truncated,omitempty"`
}

// Result carries the outcome of a run.
type Result struct {
	// Total sums the per-core counter blocks of all cores that ran a
	// measured or helper thread.
	Total counters.Counters
	// PerCore holds each used core's counter block, indexed by global
	// core id (nil for unused cores).
	PerCore []*counters.Counters
	// PerThread holds committed-instruction counts per thread.
	PerThread []uint64
	// Cycles is the timed length in cycles (summed over windows in
	// sampled mode).
	Cycles int64
	// Intervals holds the per-window deltas of a sampled run (nil in
	// contiguous mode). Total and PerCore are their sums.
	Intervals []IntervalResult
	// Truncated reports that at least one timed window hit MaxCycles.
	Truncated bool `json:"truncated,omitempty"`
}

const (
	stWaiting uint8 = iota
	stIssued
	stDone
)

// entry is one window slot. It keeps of its instruction only what
// issue and retirement read (class, mode and data address); the rest of
// the trace.Inst is consumed at dispatch. Besides timing it carries the
// wakeup/select scheduler's links: an entry dispatched behind producers
// that have not issued yet is threaded onto each producer's consumer
// list (one edge per operand, so at most two) and counts them in
// pending. An entry is 32 bytes, two to a host cache line.
type entry struct {
	addr uint64
	// at is the latest completion among the entry's issued producers
	// while it waits, and its own completion cycle once it has issued.
	at int64
	// waiters heads this entry's consumer list: the edge id
	// (slot<<1 | operand) of the first consumer operand waiting on it, or
	// -1. next[k] links operand k's edge to the next one on the list of
	// the producer it waits on. Slots stay below trace.MaxDepDist, so an
	// edge id fits in 16 bits.
	waiters int16
	next    [2]int16
	op      trace.Op
	kernel  bool
	pending uint8
	status  uint8
}

// wake is a min-heap element: a waiting entry's slot and the cycle its
// last operand becomes ready.
type wake struct {
	at   int64
	slot int32
}

// batchInsts is how many instructions a context asks its generator for
// at a time. It fixes where a StepGen runs its Steps, and so the
// cross-thread Step order every result depends on.
const batchInsts = 4096

type context struct {
	gen      trace.Generator
	batch    []trace.Inst // lent by gen, valid until the next gen.Batch
	pos      int          // fetch cursor into batch
	eof      bool
	measured bool
	tid      int

	window  []entry
	head    int
	tail    int
	count   int
	baseSeq int64 // dynamic seq of window head

	// ready has one bit per window slot: waiting entries whose operands
	// are all ready. It is held inline, sized for the largest window
	// (slots stay below trace.MaxDepDist). timers holds waiting entries
	// whose operands are all issued but complete in the future, as a
	// min-heap on the cycle they become ready; issue drains it into
	// ready.
	ready  [(trace.MaxDepDist + 63) / 64]uint64
	timers []wake

	fetchBlockedUntil int64
	imissUntil        int64 // off-core or L2 instruction-stall window
	redirectUntil     int64
	pendingBranch     int64 // absolute seq of unresolved mispredict, -1
	lastFetchLine     uint64
	lastFetchPage     uint64
	lastMode          bool // kernel flag of last dispatched inst
	committed         uint64
	committedUser     uint64

	// Functional-warming fetch state, kept across warming phases so a
	// sampled run's later warm intervals do not re-touch lines the
	// stream already sits on.
	warmLine uint64
	warmPage uint64
	// target is the cumulative commit count that ends the current timed
	// window for this context.
	target uint64

	// ro observes batch pulls: time inside gen.Batch is carved out of
	// the ambient phase and attributed to trace generation. Nil when
	// observability is disarmed (the nil check costs once per batch,
	// never per instruction).
	ro *obs.RunObs
}

type core struct {
	id  int
	cfg CoreConfig
	ctxs []*context
	bp   *bpred.Predictor
	tlbs *tlb.Hierarchy
	ctr  *counters.Counters // the memory system's block for this core

	rsUsed int
	lqUsed int
	sqUsed int

	superQ  []int64 // completion times of outstanding L1-D misses
	offcore []int64 // completion times of outstanding off-core data reqs
	tlbBusy int64

	nextCtx int // round-robin pointer for SMT fairness, in [0, len(ctxs))

	// sleeping is set after an idle cycle whose next event is more than
	// one cycle away: runUntil skips the core until idle.wake, and charge
	// then bills the skipped cycles with idle's classification.
	sleeping bool
	idle     idleCycle
	ticks    uint64 // cycle calls, for the sleep tests and BenchmarkCycle64
}

// idleCycle is the classification of a cycle in which a core committed,
// issued and fetched nothing. Until its next event every cycle of that
// core is classified the same way.
type idleCycle struct {
	at, wake   int64 // the idle cycle and the first cycle ticked again
	kernel     bool  // stall attributed to OS mode
	fetchStall bool  // window empty
	mem        bool  // memory cycle
	superQ     uint64
}

// never is the wake time of a core with no pending event.
const never = int64(math.MaxInt64)

// refill reports whether the context has an instruction to fetch at
// batch[pos], pulling the next batch from the generator once the lent
// one is used up. Fetch reads the batch in place and calls refill only
// at its end, so the per-instruction path carries no call.
func (c *context) refill() bool {
	if c.pos < len(c.batch) {
		return true
	}
	if c.eof {
		return false
	}
	if c.ro != nil {
		prev := c.ro.Enter(obs.PhaseTraceGen)
		c.batch = c.gen.Batch(batchInsts)
		c.ro.Enter(prev)
	} else {
		c.batch = c.gen.Batch(batchInsts)
	}
	c.pos = 0
	if len(c.batch) == 0 {
		c.eof = true
		return false
	}
	return true
}

// link records operand k (backward distance d > 0) of the entry in
// slot, which is about to occupy absolute index seq. A producer that
// already committed imposes nothing; one that issued raises the entry's
// at to its completion; one still waiting gets the operand on its
// consumer list.
func (c *context) link(slot int, seq int64, k int, d uint8) {
	p := seq - int64(d)
	if p < c.baseSeq {
		return // producer already committed
	}
	ps := c.head + int(p-c.baseSeq)
	if ps >= len(c.window) {
		ps -= len(c.window)
	}
	pe, e := &c.window[ps], &c.window[slot]
	if pe.status == stWaiting {
		e.next[k] = pe.waiters
		pe.waiters = int16(slot<<1 | k)
		e.pending++
		return
	}
	if pe.at > e.at {
		e.at = pe.at
	}
}

// schedule files the entry in slot, whose producers have all issued: it
// is ready now if its last operand completes by now, else a timer.
func (c *context) schedule(slot int, now int64) {
	at := c.window[slot].at
	if at <= now {
		c.ready[slot>>6] |= 1 << uint(slot&63)
		return
	}
	h := append(c.timers, wake{at: at, slot: int32(slot)})
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up].at <= h[i].at {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	c.timers = h
}

// expireTimers moves every timer due by now into the ready set.
func (c *context) expireTimers(now int64) {
	h := c.timers
	for len(h) > 0 && h[0].at <= now {
		s := h[0].slot
		c.ready[s>>6] |= 1 << uint(s&63)
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			min, l := i, 2*i+1
			if l < last && h[l].at < h[min].at {
				min = l
			}
			if r := l + 1; r < last && h[r].at < h[min].at {
				min = r
			}
			if min == i {
				break
			}
			h[i], h[min] = h[min], h[i]
			i = min
		}
	}
	c.timers = h
}

// wakeConsumers releases the consumer list of the entry in slot, which
// has just issued: each waiting operand takes the entry's completion
// time, and a consumer with no producers left is scheduled.
func (c *context) wakeConsumers(slot int, now int64) {
	pe := &c.window[slot]
	for edge := pe.waiters; edge >= 0; {
		cs := int(edge >> 1)
		ce := &c.window[cs]
		edge = ce.next[edge&1]
		if pe.at > ce.at {
			ce.at = pe.at
		}
		ce.pending--
		if ce.pending == 0 {
			c.schedule(cs, now)
		}
	}
	pe.waiters = -1
}

// newCore builds core id running threads[ti] for every ti in ts, one
// SMT context each, splitting the ROB evenly between them. ctr is the
// memory system's counter block for the core.
func newCore(id int, cfg RunConfig, threads []Thread, ts []int, ctr *counters.Counters) *core {
	co := &core{id: id, cfg: cfg.Core, bp: bpred.New(bpred.DefaultConfig()), tlbs: tlb.NewHierarchy(), ctr: ctr}
	winPer := cfg.Core.ROB / len(ts)
	for _, ti := range ts {
		t := threads[ti]
		co.ctxs = append(co.ctxs, &context{
			gen:      t.Gen,
			measured: t.Measured, tid: ti,
			window:        make([]entry, winPer),
			timers:        make([]wake, 0, winPer),
			pendingBranch: -1,
			ro:            cfg.Obs,
		})
	}
	return co
}

// Run simulates threads under cfg and returns the measured counters.
func Run(cfg RunConfig, threads []Thread) (*Result, error) {
	res, _, err := run(cfg, threads)
	return res, err
}

// Restore builds the machine for cfg and threads and loads cfg.Restore
// into it without simulating: a restored Run's image checks on their
// own, returning the error that Run would.
func Restore(cfg RunConfig, threads []Thread) error {
	cfg.restoreOnly = true
	_, _, err := run(cfg, threads)
	return err
}

// run is Run, also returning the simulated cores for test hooks.
func run(cfg RunConfig, threads []Thread) (*Result, []*core, error) {
	if len(threads) == 0 {
		return nil, nil, errors.New("engine: no threads")
	}
	// Budget guards: a zero or negative measured budget would convert to
	// a huge uint64 commit target and spin the timed loop until the trace
	// ends (never, for the suite's unbounded generators).
	if cfg.MeasureInsts <= 0 {
		return nil, nil, fmt.Errorf("engine: MeasureInsts %d must be positive", cfg.MeasureInsts)
	}
	if cfg.WarmupInsts < 0 {
		return nil, nil, fmt.Errorf("engine: WarmupInsts %d must be >= 0", cfg.WarmupInsts)
	}
	if cfg.Intervals < 0 || cfg.IntervalWarmInsts < 0 || cfg.DetailWarmInsts < 0 {
		return nil, nil, fmt.Errorf("engine: sampling schedule (%d intervals, %d warm insts, %d detail insts) must be non-negative",
			cfg.Intervals, cfg.IntervalWarmInsts, cfg.DetailWarmInsts)
	}
	if cfg.Checkpoint != nil || cfg.Restore != nil {
		if err := checkSerializable(threads); err != nil {
			return nil, nil, err
		}
	}
	if cfg.Core.Width == 0 {
		cfg.Core = DefaultCoreConfig()
	}
	if cfg.Core.ROB > trace.MaxDepDist {
		return nil, nil, fmt.Errorf("engine: ROB %d exceeds %d entries, the farthest dependence distance an instruction records", cfg.Core.ROB, trace.MaxDepDist)
	}
	// An entirely-unspecified core grid selects the Table-1 machine; a
	// partially- or badly-specified one is an error, not a silent
	// fallback.
	if cfg.Mem.Sockets == 0 && cfg.Mem.CoresPerSocket == 0 {
		cfg.Mem = cache.DefaultSystemConfig()
	}
	if err := cfg.Mem.Validate(); err != nil {
		return nil, nil, fmt.Errorf("engine: %w", err)
	}
	mem := cache.NewSystem(cfg.Mem)
	if cfg.CheckInvariantsEvery > 0 {
		mem.EnableInvariantChecks(cfg.CheckInvariantsEvery)
	}

	perCore := map[int][]int{} // core id -> indices into threads
	for i, t := range threads {
		if t.Core < 0 || t.Core >= cfg.Mem.TotalCores() {
			return nil, nil, fmt.Errorf("engine: thread core %d out of range (%d cores)", t.Core, cfg.Mem.TotalCores())
		}
		perCore[t.Core] = append(perCore[t.Core], i)
		if len(perCore[t.Core]) > 2 {
			return nil, nil, fmt.Errorf("engine: more than two threads on core %d", t.Core)
		}
	}

	var cores []*core
	for id := 0; id < cfg.Mem.TotalCores(); id++ {
		ts, ok := perCore[id]
		if !ok {
			continue
		}
		cores = append(cores, newCore(id, cfg, threads, ts, mem.Ctr(id)))
	}

	// Functional warm-up: stream instructions through caches, TLBs and
	// the branch predictor with a coarse pseudo-clock, then snapshot
	// counters so the measured windows report deltas only. A sampled run
	// (cfg.Intervals >= 1) repeats the warm/measure alternation per
	// interval; the contiguous mode is the one-window special case of
	// the same loop, cycle-for-cycle identical to the pre-sampling
	// engine. A restored run skips warming entirely: the warmed machine
	// and generator state load from the snapshot.
	clock := int64(0)
	if cfg.Restore != nil {
		// Load the warm image instead of warming; the whole load is
		// ckpt_restore.
		span := cfg.Obs.SpanStart()
		prev := cfg.Obs.Enter(obs.PhaseCkptRestore)
		err := restoreRun(cfg.Restore, cfg, cores, mem, &clock)
		cfg.Obs.SpanEnd("ckpt-restore", span)
		cfg.Obs.Enter(prev)
		if err != nil || cfg.restoreOnly {
			return nil, nil, err
		}
	} else {
		span := cfg.Obs.SpanStart()
		prev := cfg.Obs.Enter(obs.PhaseFuncWarm)
		for _, co := range cores {
			for _, ctx := range co.ctxs {
				co.warmThread(ctx, mem, cfg.WarmupInsts, &clock)
			}
		}
		cfg.Obs.SpanEnd("warm", span)
		if cfg.Checkpoint != nil {
			span = cfg.Obs.SpanStart()
			cfg.Obs.Enter(obs.PhaseCkptSave)
			cfg.Checkpoint(saveMachine(cfg, clock, cores, mem))
			cfg.Obs.SpanEnd("ckpt-save", span)
		}
		cfg.Obs.Enter(prev)
	}

	nWindows := cfg.Intervals
	if nWindows < 1 {
		nWindows = 1
	}
	nMeasured := 0
	for _, t := range threads {
		if t.Measured {
			nMeasured++
		}
	}
	totalCores := cfg.Mem.TotalCores()
	res := &Result{
		PerCore:   make([]*counters.Counters, totalCores),
		PerThread: make([]uint64, len(threads)),
	}
	totals := make([]counters.Counters, totalCores)
	snapshots := make([]counters.Counters, totalCores)
	var totalBusy uint64

	windowPhase := obs.PhaseTimedWindow
	windowSpan := "window"
	if cfg.Intervals >= 1 {
		windowPhase = obs.PhaseSampleInterval
		windowSpan = "interval"
	}
	for iv := 0; iv < nWindows; iv++ {
		if iv > 0 {
			span := cfg.Obs.SpanStart()
			prev := cfg.Obs.Enter(obs.PhaseFuncWarm)
			for _, co := range cores {
				for _, ctx := range co.ctxs {
					co.warmThread(ctx, mem, cfg.IntervalWarmInsts, &clock)
				}
			}
			cfg.Obs.Enter(prev)
			cfg.Obs.SpanEnd("interval-warm", span)
		}
		if cfg.Intervals >= 1 && cfg.DetailWarmInsts > 0 {
			// Detailed warming: execute a pre-window quantum under full
			// timing before the snapshot, so the measured window starts
			// from steady-state pipeline state.
			span := cfg.Obs.SpanStart()
			prev := cfg.Obs.Enter(obs.PhaseDetailWarm)
			quantum := uint64(cfg.DetailWarmInsts) * uint64(nMeasured)
			if sum, live := measuredProgress(cores); live && quantum > 0 {
				clock, _ = runUntil(cores, mem, clock, cfg.MaxCycles, quantumDone(cores, sum+quantum))
			}
			cfg.Obs.Enter(prev)
			cfg.Obs.SpanEnd("detail-warm", span)
		}
		// Window stop condition. Contiguous mode preserves the paper's
		// per-thread contract: the window ends when every measured thread
		// has committed its budget. Sampled windows instead measure a
		// chip-wide instruction quantum (the SMARTS sampling unit):
		// MeasureInsts x measured-threads committed in aggregate. A
		// per-thread budget would overshoot badly on short windows when
		// thread progress is uneven (e.g. split-socket runs) — the fast
		// threads keep committing until the slowest reaches its budget,
		// once per interval.
		for _, co := range cores {
			snapshots[co.id] = *mem.Ctr(co.id)
			for _, ctx := range co.ctxs {
				ctx.target = ctx.committed + uint64(cfg.MeasureInsts)
			}
		}
		done := targetsDone(cores)
		if cfg.Intervals >= 1 {
			sum, _ := measuredProgress(cores)
			done = quantumDone(cores, sum+uint64(cfg.MeasureInsts)*uint64(nMeasured))
		}
		mem.DRAMResetQueues(clock)
		dramBusyStart := mem.DRAMBusyCycles()

		wspan := cfg.Obs.SpanStart()
		wprev := cfg.Obs.Enter(windowPhase)
		start := clock
		var truncated bool
		clock, truncated = runUntil(cores, mem, clock, cfg.MaxCycles, done)
		cfg.Obs.Enter(wprev)
		cfg.Obs.SpanEnd(windowSpan, wspan)
		res.Cycles += clock - start
		res.Truncated = res.Truncated || truncated

		busy := mem.DRAMBusyCycles() - dramBusyStart
		totalBusy += busy
		window := IntervalResult{
			PerCore:        make([]*counters.Counters, totalCores),
			Cycles:         clock - start,
			DRAMBusyCycles: busy,
			Truncated:      truncated,
		}
		drainedAll := true
		for _, co := range cores {
			d := mem.Ctr(co.id).Sub(&snapshots[co.id])
			d.DRAMBusyCycles = 0 // chip-wide; reported per window and in Total
			d.DRAMTotalCycles = 0
			if cfg.CheckInvariantsEvery > 0 {
				if err := d.Conservation(); err != nil {
					return nil, nil, fmt.Errorf("engine: window %d, core %d: %w", iv, co.id, err)
				}
			}
			window.PerCore[co.id] = &d
			totals[co.id].Add(&d)
			for _, ctx := range co.ctxs {
				res.PerThread[ctx.tid] = ctx.committed
				if ctx.measured && !ctx.drained() {
					drainedAll = false
				}
			}
		}
		if cfg.Intervals >= 1 {
			res.Intervals = append(res.Intervals, window)
		}
		if drainedAll {
			break // finite traces: no instructions left to sample
		}
		if cfg.StopSampling != nil && cfg.StopSampling(res.Intervals) {
			break
		}
	}

	for _, co := range cores {
		t := totals[co.id]
		res.PerCore[co.id] = &t
		res.Total.Add(&t)
	}
	// DRAM busy/span are chip-wide quantities, not per-core sums.
	res.Total.DRAMBusyCycles = totalBusy
	res.Total.DRAMTotalCycles = uint64(res.Cycles)
	return res, cores, nil
}

// runUntil is the timed cycle loop shared by contiguous windows,
// sampled windows, and detailed warming: it ticks every core from clock
// on until done holds after a cycle and returns the last cycle. With
// maxCycles > 0 a run that has ticked maxCycles cycles stops at the
// next cycle without ticking it and reports truncated.
//
// A sleeping core is not ticked until its wake cycle; when every core
// sleeps, now jumps to the earliest wake (capped at the truncation
// cycle). Skipped cycles are charged on wake and on return, so no sleep
// state outlives the call.
func runUntil(cores []*core, mem *cache.System, clock, maxCycles int64, done func() bool) (now int64, truncated bool) {
	stop := never
	if maxCycles > 0 {
		stop = clock + maxCycles + 1
	}
	for now = clock + 1; now < stop; {
		next := stop
		for _, co := range cores {
			if co.sleeping {
				if now < co.idle.wake {
					next = min(next, co.idle.wake)
					continue
				}
				co.charge(now - 1)
			}
			co.cycle(now, mem)
			if co.sleeping {
				next = min(next, co.idle.wake)
			} else {
				next = now + 1
			}
		}
		if done() {
			chargeAll(cores, now)
			return now, false
		}
		if next == never {
			panic("engine: every core is asleep with no pending event")
		}
		now = next
	}
	chargeAll(cores, now-1)
	return now, true
}

// charge bills a sleeping core's skipped cycles, idle.at+1 through last,
// with its idle cycle's classification and wakes it. Advancing nextCtx
// once per skipped cycle, modulo the context count, keeps the SMT
// round-robin where ticking would have left it.
func (co *core) charge(last int64) {
	ctr := co.ctr
	k := uint64(last - co.idle.at)
	ctr.Cycles += k
	if co.idle.kernel {
		ctr.StallCyclesOS += k
	} else {
		ctr.StallCyclesUser += k
	}
	if co.idle.fetchStall {
		ctr.FetchStallCycles += k
	}
	if co.idle.mem {
		ctr.MemCycles += k
	}
	if co.idle.superQ > 0 {
		ctr.MLPSum += k * co.idle.superQ
		ctr.MLPCycles += k
	}
	co.nextCtx = int((uint64(co.nextCtx) + k) % uint64(len(co.ctxs)))
	co.sleeping = false
}

// chargeAll charges every sleeping core through last.
func chargeAll(cores []*core, last int64) {
	for _, co := range cores {
		if co.sleeping {
			co.charge(last)
		}
	}
}

// measuredProgress sums the measured contexts' commits and reports
// whether any of them still has instructions to run.
func measuredProgress(cores []*core) (committed uint64, live bool) {
	for _, co := range cores {
		for _, ctx := range co.ctxs {
			if ctx.measured {
				committed += ctx.committed
				live = live || !ctx.drained()
			}
		}
	}
	return committed, live
}

// quantumDone stops a run once the measured contexts have committed
// goal instructions in aggregate, or all of them have drained.
func quantumDone(cores []*core, goal uint64) func() bool {
	return func() bool {
		sum, live := measuredProgress(cores)
		return sum >= goal || !live
	}
}

// targetsDone stops a run once every measured context has committed up
// to its target or drained.
func targetsDone(cores []*core) func() bool {
	return func() bool {
		for _, co := range cores {
			for _, ctx := range co.ctxs {
				if ctx.measured && ctx.committed < ctx.target && !ctx.drained() {
					return false
				}
			}
		}
		return true
	}
}

// warmThread streams up to insts instructions of ctx through the
// caches, TLBs, and branch predictor with a coarse pseudo-clock and no
// timing: microarchitectural state observes every instruction while the
// measured windows' counter deltas exclude this activity (functional
// warming). The shared clock advances so DRAM-queue and span bookkeeping
// stay ordered with the timed windows around it.
func (co *core) warmThread(ctx *context, mem *cache.System, insts int64, clock *int64) {
	now, line, page := *clock, ctx.warmLine, ctx.warmPage
	tlbs, bp := co.tlbs, co.bp
	for insts > 0 && ctx.refill() {
		batch := ctx.batch[ctx.pos:]
		if int64(len(batch)) > insts {
			batch = batch[:insts]
		}
		for i := range batch {
			in := &batch[i]
			if l := in.PC >> cache.LineShift; l != line {
				if pg := in.PC >> 12; pg != page {
					tlbs.TranslateI(in.PC)
					page = pg
				}
				mem.FetchInstr(co.id, in.PC, now, in.Kernel)
				line = l
			}
			switch in.Op {
			case trace.OpLoad, trace.OpStore:
				tlbs.TranslateD(in.Addr)
				mem.AccessData(co.id, in.Addr, in.Op == trace.OpStore, in.Kernel, now)
			case trace.OpBranch:
				bp.Update(in.PC, in.Taken, in.Target)
			}
			now += 2
		}
		ctx.pos += len(batch)
		insts -= int64(len(batch))
	}
	*clock, ctx.warmLine, ctx.warmPage = now, line, page
}

// drained reports whether the context has no more work: stream ended and
// window empty.
func (c *context) drained() bool { return c.eof && c.count == 0 && c.pos == len(c.batch) }

// cycle advances one core by one clock. After a cycle in which it
// committed, issued and fetched nothing, the core goes to sleep if its
// next event is more than one cycle away.
func (co *core) cycle(now int64, mem *cache.System) {
	co.ticks++
	ctr := co.ctr
	ctr.Cycles++

	co.expireMisses(now)

	committedMode, committedAny := co.commit(now, mem)
	issued := co.issue(now, mem)
	fetched := co.frontend(now, mem)

	// Cycle classification (Figure 1). A cycle is Committing if at least
	// one instruction retired; otherwise it is Stalled and attributed to
	// the mode of the instruction blocking the head of the window (or
	// the last fetched mode when the window is empty).
	var mode, empty bool
	if committedAny {
		if committedMode {
			ctr.CommitCyclesOS++
		} else {
			ctr.CommitCyclesUser++
		}
	} else {
		mode, empty = co.headMode()
		if empty {
			ctr.FetchStallCycles++
		}
		if mode {
			ctr.StallCyclesOS++
		} else {
			ctr.StallCyclesUser++
		}
	}

	// Memory cycles (Section 3.1): at least one off-core data request
	// outstanding, instruction fetch stalled past the L1-I, or a TLB
	// walk in progress.
	memCycle := len(co.offcore) > 0 || co.tlbBusy > now || co.imissActive(now)
	if memCycle {
		ctr.MemCycles++
	}
	// Super-queue occupancy for MLP (Figure 3, right).
	n := len(co.superQ)
	if n > 0 {
		ctr.MLPSum += uint64(n)
		ctr.MLPCycles++
	}

	if committedAny || issued || fetched {
		return
	}
	if wake := co.nextEvent(now); wake > now+1 {
		co.sleeping = true
		co.idle = idleCycle{at: now, wake: wake, kernel: mode, fetchStall: empty, mem: memCycle, superQ: uint64(n)}
	}
}

// nextEvent returns the first cycle after now at which an idle core can
// act or classify a cycle differently, or never. Until then no head
// completes, no timer readies an entry, no fetch stall, redirect,
// I-miss or page walk ends, and no super-queue or off-core request
// retires (a retiring super-queue entry frees the slot a held-back load
// waits for). Nothing else the core reads changes without its own
// activity: other cores reach it only through the shared caches, which
// an idle core does not touch.
func (co *core) nextEvent(now int64) int64 {
	next := never
	for _, ctx := range co.ctxs {
		if ctx.count > 0 {
			if h := &ctx.window[ctx.head]; h.status == stIssued {
				next = sooner(next, h.at, now)
			}
		}
		if len(ctx.timers) > 0 {
			next = sooner(next, ctx.timers[0].at, now)
		}
		next = sooner(next, ctx.fetchBlockedUntil, now)
		next = sooner(next, ctx.redirectUntil, now)
		next = sooner(next, ctx.imissUntil, now)
	}
	for _, t := range co.superQ {
		next = sooner(next, t, now)
	}
	for _, t := range co.offcore {
		next = sooner(next, t, now)
	}
	return sooner(next, co.tlbBusy, now)
}

// sooner returns t if it lies after now and before next, else next.
func sooner(next, t, now int64) int64 {
	if t > now && t < next {
		return t
	}
	return next
}

func (co *core) imissActive(now int64) bool {
	for _, ctx := range co.ctxs {
		if ctx.imissUntil > now {
			return true
		}
	}
	return false
}

func (co *core) headMode() (kernel bool, windowEmpty bool) {
	// Prefer the oldest head across contexts for attribution.
	var found *context
	for _, ctx := range co.ctxs {
		if ctx.count == 0 {
			continue
		}
		if found == nil || ctx.baseSeq < found.baseSeq {
			found = ctx
		}
	}
	if found == nil {
		for _, ctx := range co.ctxs {
			if ctx.lastMode {
				return true, true
			}
		}
		return false, true
	}
	return found.window[found.head].kernel, false
}

func (co *core) expireMisses(now int64) {
	co.superQ = expire(co.superQ, now)
	co.offcore = expire(co.offcore, now)
}

// expire drops the completion times in q that are due by now, keeping
// the rest in order. A queue with nothing due comes back untouched, so
// the common tick moves no element.
func expire(q []int64, now int64) []int64 {
	for i, t := range q {
		if t <= now {
			w := i
			for _, t := range q[i+1:] {
				if t > now {
					q[w] = t
					w++
				}
			}
			return q[:w]
		}
	}
	return q
}

// rr returns the context i < len(co.ctxs) places after nextCtx in the
// SMT round-robin. Both are below the context count, so one subtraction
// wraps the sum, and the rotation, which runs on every context visit of
// every cycle, needs no integer division.
func (co *core) rr(i int) *context {
	j := co.nextCtx + i
	if j >= len(co.ctxs) {
		j -= len(co.ctxs)
	}
	return co.ctxs[j]
}

// commit retires up to Width instructions across contexts, oldest head
// first, and returns the mode of the first retiree.
func (co *core) commit(now int64, mem *cache.System) (kernelMode bool, any bool) {
	budget := co.cfg.Width
	for budget > 0 {
		// Pick the context whose head is ready, preferring round-robin
		// fairness between SMT contexts.
		var pick *context
		for i := 0; i < len(co.ctxs); i++ {
			ctx := co.rr(i)
			if ctx.count == 0 {
				continue
			}
			h := &ctx.window[ctx.head]
			if h.status == stIssued && h.at <= now {
				h.status = stDone
			}
			if h.status == stDone {
				pick = ctx
				break
			}
		}
		if pick == nil {
			break
		}
		h := &pick.window[pick.head]
		if h.op == trace.OpStore {
			// Stores update the cache at retirement (store buffer drain).
			mem.AccessData(co.id, h.addr, true, h.kernel, now)
			co.sqUsed--
		}
		if h.op == trace.OpLoad {
			co.lqUsed--
		}
		ctr := co.ctr
		if h.kernel {
			ctr.CommitOS++
		} else {
			ctr.CommitUser++
			pick.committedUser++
		}
		if !any {
			any = true
			kernelMode = h.kernel
		}
		pick.committed++
		pick.head++
		if pick.head >= len(pick.window) {
			pick.head -= len(pick.window)
		}
		pick.count--
		pick.baseSeq++
		budget--
	}
	if co.nextCtx++; co.nextCtx == len(co.ctxs) {
		co.nextCtx = 0
	}
	return kernelMode, any
}

// issue starts up to Width ready instructions, oldest first within each
// context and contexts in round-robin order. Only the ready set is
// visited: entries reach it through wakeup (a producer issuing) or a
// timer (a producer's completion time passing), never by rescanning the
// window. It reports whether anything issued.
func (co *core) issue(now int64, mem *cache.System) bool {
	for _, ctx := range co.ctxs {
		if len(ctx.timers) > 0 && ctx.timers[0].at <= now {
			ctx.expireTimers(now)
		}
	}
	budget := co.cfg.Width
	for i := 0; i < len(co.ctxs) && budget > 0; i++ {
		ctx := co.rr(i)
		// Program order from the head: slots [head, len) then [0, head).
		// Bits are re-read after every issue, so a consumer an issue makes
		// ready at once (a zero-latency producer) is seen further on.
		budget = co.issueSlots(ctx, ctx.head, len(ctx.window), budget, now, mem)
		budget = co.issueSlots(ctx, 0, ctx.head, budget, now, mem)
	}
	return budget < co.cfg.Width
}

// issueSlots starts ready entries of ctx in slots [lo, hi), lowest
// first, until budget runs out, and returns the budget left.
func (co *core) issueSlots(ctx *context, lo, hi, budget int, now int64, mem *cache.System) int {
	for pos := lo; pos < hi && budget > 0; pos++ {
		w := ctx.ready[pos>>6] >> uint(pos&63)
		if w == 0 {
			pos |= 63
			continue
		}
		if pos += bits.TrailingZeros64(w); pos >= hi {
			break
		}
		if co.start(ctx, pos, now, mem) {
			budget--
		}
	}
	return budget
}

// start issues the ready entry in slot unless a structural hazard holds
// it back (a load with the super queue full stays ready), and reports
// whether it issued.
func (co *core) start(ctx *context, slot int, now int64, mem *cache.System) bool {
	e := &ctx.window[slot]
	switch e.op {
	case trace.OpLoad:
		if len(co.superQ) >= co.cfg.MSHRs {
			return false // super queue full: cannot start the miss
		}
		lat, tres := co.tlbs.TranslateD(e.addr)
		if tres == tlb.Walk {
			co.ctr.STLBMiss++
			if end := now + int64(lat); end > co.tlbBusy {
				co.tlbBusy = end
			}
		} else if tres == tlb.HitL2 {
			co.ctr.DTLBMiss++
		}
		r := mem.AccessData(co.id, e.addr, false, e.kernel, now)
		e.at = r.Done + int64(lat)
		if r.L1Miss {
			co.superQ = append(co.superQ, e.at)
		}
		if r.OffCore {
			co.offcore = append(co.offcore, e.at)
		}
	case trace.OpStore:
		// Address+data ready; completion is immediate (the write
		// happens at retirement through the store buffer).
		e.at = now + 1
	case trace.OpBranch:
		e.at = now + 1
		if ctx.pendingBranch >= 0 {
			off := slot - ctx.head
			if off < 0 {
				off += len(ctx.window)
			}
			if ctx.pendingBranch == ctx.baseSeq+int64(off) {
				ctx.redirectUntil = e.at + int64(co.cfg.MispredictPenalty)
				ctx.pendingBranch = -1
			}
		}
	case trace.OpMul:
		e.at = now + int64(co.cfg.MulLatency)
	case trace.OpFP:
		e.at = now + int64(co.cfg.FPLatency)
	default:
		e.at = now + int64(co.cfg.ALULatency)
	}
	e.status = stIssued
	ctx.ready[slot>>6] &^= 1 << uint(slot&63)
	co.rsUsed--
	ctx.wakeConsumers(slot, now)
	return true
}

// frontend fetches and dispatches up to Width instructions into the
// window, honouring I-cache stalls, branch-mispredict redirects, and
// structural limits (ROB, RS, LQ/SQ). It reports whether it fetched or
// dispatched, or stopped on a full load/store queue before visiting
// every context: another context may dispatch next cycle, when the
// round-robin visits it first.
func (co *core) frontend(now int64, mem *cache.System) (busy bool) {
	ctr := co.ctr
	budget := co.cfg.Width
	i := 0
	for ; i < len(co.ctxs) && budget > 0; i++ {
		ctx := co.rr(i)
		for budget > 0 {
			if ctx.fetchBlockedUntil > now || ctx.redirectUntil > now || ctx.pendingBranch >= 0 {
				break
			}
			if ctx.count == len(ctx.window) || co.rsUsed >= co.cfg.RS {
				break
			}
			if ctx.pos == len(ctx.batch) && !ctx.refill() {
				break
			}
			in := &ctx.batch[ctx.pos]
			switch in.Op {
			case trace.OpLoad:
				if co.lqUsed >= co.cfg.LoadQ {
					budget = 0
					continue
				}
			case trace.OpStore:
				if co.sqUsed >= co.cfg.StoreQ {
					budget = 0
					continue
				}
			}

			// Instruction fetch: access the I-side on line transitions.
			line := in.PC >> cache.LineShift
			if line != ctx.lastFetchLine {
				page := in.PC >> 12
				if page != ctx.lastFetchPage {
					lat, tres := co.tlbs.TranslateI(in.PC)
					if tres != tlb.HitL1 {
						ctr.ITLBMiss++
						ctx.fetchBlockedUntil = now + int64(lat)
						if end := now + int64(lat); end > co.tlbBusy {
							co.tlbBusy = end
						}
					}
					ctx.lastFetchPage = page
				}
				fr := mem.FetchInstr(co.id, in.PC, now, in.Kernel)
				busy = true
				ctx.lastFetchLine = line
				if fr.L1Miss {
					if fr.Done > ctx.fetchBlockedUntil {
						ctx.fetchBlockedUntil = fr.Done
					}
					if fr.Done > ctx.imissUntil {
						ctx.imissUntil = fr.Done
					}
					break
				}
				if ctx.fetchBlockedUntil > now {
					break
				}
			}

			// Dispatch into the window, linking each operand to its
			// producer.
			slot := ctx.tail
			// Field by field: a composite literal is assembled on the stack
			// and copied in wide loads the narrow stores cannot forward to.
			e := &ctx.window[slot]
			e.addr, e.at = in.Addr, 0
			e.waiters, e.next = -1, [2]int16{}
			e.op, e.kernel, e.pending, e.status = in.Op, in.Kernel, 0, stWaiting
			seq := ctx.baseSeq + int64(ctx.count)
			if in.DepA != 0 {
				ctx.link(slot, seq, 0, in.DepA)
			}
			if in.DepB != 0 {
				ctx.link(slot, seq, 1, in.DepB)
			}
			if e.pending == 0 {
				ctx.schedule(slot, now)
			}
			ctx.tail++
			if ctx.tail >= len(ctx.window) {
				ctx.tail -= len(ctx.window)
			}
			ctx.count++
			co.rsUsed++
			ctx.lastMode = in.Kernel
			switch in.Op {
			case trace.OpLoad:
				co.lqUsed++
			case trace.OpStore:
				co.sqUsed++
			case trace.OpBranch:
				ctr.Branches++
				// Unconditional transfers (calls, returns, jumps) are
				// handled by the BTB/RAS and never redirect late.
				if !in.Uncond && co.bp.Predict(in.PC, in.Taken, in.Target) {
					ctr.Mispredicts++
					ctx.pendingBranch = ctx.baseSeq + int64(ctx.count) - 1
				}
			}
			ctx.pos++
			busy = true
			budget--
		}
	}
	return busy || i < len(co.ctxs)
}
