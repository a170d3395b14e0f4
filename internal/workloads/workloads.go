// Package workloads defines the workload model interface and shared
// building blocks used by the CloudSuite workload implementations and
// the traditional comparison benchmarks.
//
// A workload is a real algorithm (a key-value store, a SAT solver, an
// inverted-index search node, ...) whose data structures live at
// simulated addresses (internal/addrspace) and whose execution emits a
// dynamic instruction stream (internal/trace) including its operating-
// system activity (internal/oskern). The micro-architectural behaviour
// the paper measures — instruction working sets, dependence-limited ILP
// and MLP, data working sets, sharing, bandwidth — emerges from the
// algorithms and layouts rather than from per-counter dials.
package workloads

import (
	"cloudsuite/internal/addrspace"
	"cloudsuite/internal/rng"
	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/trace"
)

// Class groups workloads the way the paper's figures do.
type Class int

// Workload classes.
const (
	// ScaleOut is a CloudSuite scale-out workload.
	ScaleOut Class = iota
	// Desktop is a SPEC CINT2006-style workload.
	Desktop
	// Parallel is a PARSEC-style workload.
	Parallel
	// Server is a traditional server workload (SPECweb09, TPC-C, TPC-E,
	// Web Backend).
	Server
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ScaleOut:
		return "scale-out"
	case Desktop:
		return "desktop"
	case Parallel:
		return "parallel"
	case Server:
		return "server"
	default:
		return "class?"
	}
}

// Workload is one benchmark: a factory for per-thread instruction
// streams over a shared simulated dataset. It carries no name: the
// core.Bench that constructs it is the benchmark's only identity. Its
// state, kernel and heaps included, is touched only by the threads'
// Steps, SaveShared and LoadShared, all on the simulation goroutine,
// so it holds no locks or atomics.
type Workload interface {
	// Start launches n software threads and returns their generators.
	// The caller owns closing them. Threads are step-driven programs
	// that implement trace.Stateful, so a warm image can carry their
	// state; construction must be deterministic in (n, seed) because a
	// checkpoint restore re-runs Start before loading state.
	Start(n int, seed int64) []*trace.StepGen
	// SaveShared serializes the shared mutable state beyond what the
	// threads serialize themselves: heaps, memtables, kernel cursors.
	SaveShared(w *checkpoint.Writer)
	// LoadShared restores state written by SaveShared onto a freshly
	// started instance. Callers check the reader's Err.
	LoadShared(rd *checkpoint.Reader)
}

// defaultEmitter returns the conventional emitter configuration used by
// the scale-out workloads: moderately predictable branches.
func defaultEmitter(seed int64) trace.EmitterConfig {
	return trace.EmitterConfig{Seed: seed, BlockLen: 6, BranchEntropy: 0.04}
}

// EmitterConfigFor returns the standard emitter configuration with the
// given seed and branch entropy.
func EmitterConfigFor(seed int64, entropy float64) trace.EmitterConfig {
	cfg := defaultEmitter(seed)
	cfg.BranchEntropy = entropy
	return cfg
}

// CodeBank models the broad instruction footprint of a layered software
// stack (application framework, language runtime, libraries). It holds
// many medium-sized functions; requests execute request-dependent
// subsets, which is what defeats the L1-I and the next-line prefetcher
// for the scale-out workloads (Section 4.1).
type CodeBank struct {
	Funcs []*trace.Func
}

// NewCodeBank carves nFuncs functions of instsPerFunc static
// instructions each out of layout.
func NewCodeBank(layout *trace.CodeLayout, name string, nFuncs, instsPerFunc int) *CodeBank {
	b := &CodeBank{Funcs: make([]*trace.Func, nFuncs)}
	for i := range b.Funcs {
		b.Funcs[i] = layout.Func(name, instsPerFunc)
	}
	return b
}

// Exec runs dynInsts instructions of framework code spread over calls
// into pathLen bank functions chosen by the request-specific selector
// seed. hot is a data address repeatedly touched (a request context
// structure); ilp sets the dependence chain length of the compute
// (lower = more ILP).
func (b *CodeBank) Exec(e *trace.Emitter, sel uint64, pathLen, dynInsts int, hot uint64, ilp int) {
	if pathLen <= 0 || dynInsts <= 0 {
		return
	}
	perFunc := dynInsts / pathLen
	if perFunc < 8 {
		perFunc = 8
	}
	x := sel
	for i := 0; i < pathLen; i++ {
		// xorshift over the selector picks a request-dependent call path.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f := b.Funcs[x%uint64(len(b.Funcs))]
		e.InFunc(f, func() {
			GenericWork(e, perFunc, hot, ilp)
		})
	}
}

// GenericWork emits n instructions of typical integer application code:
// short dependent ALU chains interleaved with stack/context loads and
// occasional stores, at roughly a 20% load / 8% store mix.
func GenericWork(e *trace.Emitter, n int, hot uint64, ilp int) trace.Val {
	if ilp < 1 {
		ilp = 1
	}
	v := trace.NoVal
	emitted := 0
	slot := uint64(0)
	for emitted < n {
		v = e.ALUChain(ilp, v)
		emitted += ilp
		ld := e.Load(hot+(slot%8)*64, 8, trace.NoVal, false)
		emitted++
		slot++
		if slot%4 == 0 {
			e.Store(hot+(slot%8)*64, 8, ld, trace.NoVal)
			emitted++
		}
		if slot%6 == 0 {
			v = e.ALU(v, ld)
			emitted++
		}
	}
	return v
}

// Zipf draws keys with the skew the YCSB client uses (Section 3.2).
// The sampler's parameters are immutable; all mutable draw state lives
// in the underlying rng.Rand, which the owner checkpoints.
type Zipf struct {
	z *rng.Zipf
}

// NewZipf returns a Zipfian sampler over [0, n) with exponent theta
// (YCSB uses 0.99). A degenerate key space (n < 2) yields a sampler
// that always draws key 0: the imax parameter (n-1) would underflow to
// a ~2^64 key range for n == 0.
func NewZipf(r *rng.Rand, theta float64, n uint64) *Zipf {
	if n < 2 {
		return &Zipf{}
	}
	if theta <= 1.0 {
		// The sampler requires s > 1; YCSB's 0.99 skew corresponds
		// closely to s just above 1 for the ranges we use.
		theta = 1.001
	}
	return &Zipf{z: rng.NewZipf(r, theta, n-1)}
}

// Next draws the next key.
func (z *Zipf) Next() uint64 {
	if z.z == nil {
		return 0
	}
	return z.z.Next()
}

// StackOf returns a thread's stack base region for hot context data.
func StackOf(tid int) uint64 { return addrspace.StackFor(tid) - 4096 }
