package engine

import (
	"fmt"

	"cloudsuite/internal/sim/cache"
	"cloudsuite/internal/sim/checkpoint"
)

// This file implements warm-state checkpointing for the engine. A warm
// image has two halves:
//
// Machine half — serialized at the warm->measure boundary: the engine
// clock and per-context fetch-stream state, each core's branch
// predictor and TLB hierarchy, and the whole memory system (caches
// with directory state, prefetchers, per-core counters, DRAM
// controllers).
//
// Generator half — the workload's shared structures (RunConfig.
// SaveShared, when set), then per context its generator state (for a
// trace.StepGen: emitter RNG, call stack, program state, and the one
// residue section with the count of lent but unfetched instructions,
// which restore re-borrows with Batch(lent)) and end-of-stream flag.
// Restore is a pure load: no part of the warmup instruction stream is
// re-executed, so fork cost is independent of WarmupInsts. A run that
// checkpoints or restores must have a serializable generator on every
// thread; Run checks that before it starts.
//
// The differential harness in internal/core proves restore(save(warm))
// + measure == warm + measure byte-for-byte for every benchmark.

// statefulGen is the generator side of a warm image: trace.StepGen
// implements it (serializable when its program is Stateful), and so do
// trace.SliceGen and trace.LoopGen.
type statefulGen interface {
	CanSave() bool
	SaveState(w *checkpoint.Writer, lent int)
	LoadState(rd *checkpoint.Reader) int
}

// checkSerializable fails unless every thread's generator can
// serialize its full state, which a checkpointed run requires.
func checkSerializable(threads []Thread) error {
	for i, t := range threads {
		if sg, ok := t.Gen.(statefulGen); !ok || !sg.CanSave() {
			return fmt.Errorf("engine: thread %d's generator (%T) cannot serialize its state, so the run cannot checkpoint or restore", i, t.Gen)
		}
	}
	return nil
}

// saveMachine serializes the complete warm image: machine half, then
// generator half.
func saveMachine(cfg RunConfig, clock int64, cores []*core, mem *cache.System) *checkpoint.Snapshot {
	w := checkpoint.NewWriter()
	w.Tag("engine")
	w.I64(cfg.WarmupInsts)
	w.I64(clock)
	w.U32(uint32(len(cores)))
	for _, co := range cores {
		w.U32(uint32(co.id))
		w.U32(uint32(len(co.ctxs)))
		for _, ctx := range co.ctxs {
			w.U64(ctx.warmLine)
			w.U64(ctx.warmPage)
		}
		co.bp.SaveState(w)
		co.tlbs.SaveState(w)
	}
	mem.SaveState(w)

	w.Tag("generators")
	w.Bool(cfg.SaveShared != nil)
	if cfg.SaveShared != nil {
		cfg.SaveShared(w)
	}
	for _, co := range cores {
		for _, ctx := range co.ctxs {
			ctx.gen.(statefulGen).SaveState(w, len(ctx.batch)-ctx.pos)
			w.Bool(ctx.eof)
		}
	}
	return w.Snapshot(cfg.CheckpointKey)
}

// restoreRun loads a snapshot written by saveMachine into a
// freshly-built machine of identical configuration: machine state,
// workload shared state, and every thread's generator state. Nothing
// executes; fork cost is a deserialization, not a replay.
func restoreRun(snap *checkpoint.Snapshot, cfg RunConfig, cores []*core, mem *cache.System, clock *int64) error {
	r := snap.Reader()
	r.Expect("engine")
	if wi := r.I64(); r.Err() == nil && wi != cfg.WarmupInsts {
		return fmt.Errorf("engine: snapshot warmed %d instructions per thread, run wants %d", wi, cfg.WarmupInsts)
	}
	*clock = r.I64()
	if n := int(r.U32()); r.Err() == nil && n != len(cores) {
		return fmt.Errorf("engine: snapshot has %d active cores, run has %d", n, len(cores))
	}
	for _, co := range cores {
		if id := int(r.U32()); r.Err() == nil && id != co.id {
			return fmt.Errorf("engine: snapshot core id %d does not match run core %d", id, co.id)
		}
		if n := int(r.U32()); r.Err() == nil && n != len(co.ctxs) {
			return fmt.Errorf("engine: snapshot has %d contexts on core %d, run has %d", n, co.id, len(co.ctxs))
		}
		for _, ctx := range co.ctxs {
			ctx.warmLine = r.U64()
			ctx.warmPage = r.U64()
		}
		co.bp.LoadState(r)
		co.tlbs.LoadState(r)
	}
	if err := mem.LoadState(r); err != nil {
		return fmt.Errorf("engine: %w", err)
	}

	r.Expect("generators")
	shared := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	switch {
	case shared && cfg.LoadShared == nil:
		return fmt.Errorf("engine: live image carries workload shared state, but the run has no shared-state loader")
	case !shared && cfg.LoadShared != nil:
		return fmt.Errorf("engine: run loads workload shared state, but the live image carries none")
	case shared:
		cfg.LoadShared(r)
		if err := r.Err(); err != nil {
			return err
		}
	}
	for _, co := range cores {
		for _, ctx := range co.ctxs {
			lent := ctx.gen.(statefulGen).LoadState(r)
			if r.Err() != nil {
				return r.Err()
			}
			ctx.batch, ctx.pos = ctx.gen.Batch(lent), 0
			ctx.eof = r.Bool()
		}
	}
	return r.Err()
}
