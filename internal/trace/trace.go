// Package trace defines the dynamic instruction stream representation that
// connects workload models to the micro-architectural simulator.
//
// A workload produces a stream of Inst records through the Generator
// interface. Each record carries the information the simulator needs to
// model the front-end (program counter, branch outcome), the out-of-order
// back-end (register dependence distances), and the memory hierarchy
// (effective address, access size, kernel/user mode).
//
// The generator's buffer is the only one between a workload and its
// core: Generator.Batch lends a slice of it, read in place.
//
// Dependences are encoded as backward distances in the dynamic stream:
// DepA == 3 means this instruction consumes the value produced by the
// instruction three slots earlier. Distance 0 means "no dependence".
// A distance is one byte that saturates at MaxDepDist: the engine's
// instruction windows hold at most MaxDepDist entries, so a producer
// that far back has always committed and the exact distance changes
// nothing. This
// representation is position-independent, so generators can be
// buffered, split into batches, and replayed without fix-ups.
package trace

import "cloudsuite/internal/sim/checkpoint"

// Op classifies a dynamic instruction for the purposes of the timing model.
type Op uint8

// Instruction classes. The simulator assigns execution latencies and
// structural resources (load/store queue slots, branch predictor lookups)
// based on the class.
const (
	// OpALU is a simple integer operation with single-cycle latency.
	OpALU Op = iota
	// OpMul is an integer multiply or other medium-latency operation.
	OpMul
	// OpFP is a floating-point operation.
	OpFP
	// OpBranch is a conditional or unconditional control transfer.
	OpBranch
	// OpLoad reads Size bytes from Addr.
	OpLoad
	// OpStore writes Size bytes to Addr.
	OpStore
	// OpNop occupies a pipeline slot but has no dependences or effects.
	OpNop

	numOps
)

// String returns a short mnemonic for the op class.
func (o Op) String() string {
	switch o {
	case OpALU:
		return "alu"
	case OpMul:
		return "mul"
	case OpFP:
		return "fp"
	case OpBranch:
		return "br"
	case OpLoad:
		return "ld"
	case OpStore:
		return "st"
	case OpNop:
		return "nop"
	default:
		return "op?"
	}
}

// IsMem reports whether the op accesses data memory.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// Inst is one dynamic instruction.
type Inst struct {
	// PC is the virtual address of the instruction. The front-end model
	// derives instruction-cache accesses from the PC sequence.
	PC uint64
	// Addr is the effective address for OpLoad/OpStore.
	Addr uint64
	// Target is the branch target for OpBranch when Taken.
	Target uint64
	// DepA and DepB are backward dependence distances (0 = none),
	// saturated at MaxDepDist (see DepDist).
	DepA, DepB uint8
	// Size is the access size in bytes for memory ops.
	Size uint8
	// Op is the instruction class.
	Op Op
	// Kernel marks instructions executed in operating-system mode.
	Kernel bool
	// Taken is the branch outcome for OpBranch.
	Taken bool
	// Uncond marks unconditional control transfers (calls, returns,
	// direct jumps); the front-end predicts these with the BTB/RAS and
	// they effectively never mispredict.
	Uncond bool
	// AcquiresDep marks a load whose address depends on a previous load's
	// value (pointer chasing). It is advisory: DepA/DepB already encode the
	// dependence; this flag lets tools compute chasing statistics cheaply.
	AcquiresDep bool
}

// MaxDepDist is the largest encodable dependence distance. It stands
// for "MaxDepDist or farther", so an instruction window of more than
// MaxDepDist entries could not tell a saturated distance from the exact
// one; the engine rejects such windows.
const MaxDepDist = 255

// DepDist encodes a backward dependence distance d >= 0 as an Inst
// field, saturating at MaxDepDist.
func DepDist(d int64) uint8 { return uint8(min(d, MaxDepDist)) }

// Generator produces the dynamic instruction stream in batches.
//
// Batch lends up to max instructions and returns them. The slice stays
// valid until the next call, which consumes it; callers read it in
// place and must not modify it. An empty batch means the stream is
// exhausted. Generators are not required to be safe for concurrent use.
type Generator interface {
	Batch(max int) []Inst
}

// SliceGen replays a fixed slice of instructions once.
type SliceGen struct {
	Insts []Inst
	pos   int // next instruction not yet lent
}

// Batch implements Generator, lending straight out of Insts.
func (g *SliceGen) Batch(max int) []Inst { return lend(g.Insts, &g.pos, max) }

// CanSave reports that the cursor is the generator's whole state.
func (g *SliceGen) CanSave() bool { return true }

// SaveState serializes the cursor and lent, the count of lent but
// unfetched instructions. The slice itself is construction-time input;
// its length is recorded so a restore onto a different slice fails
// instead of resuming mid-way through the wrong stream.
func (g *SliceGen) SaveState(w *checkpoint.Writer, lent int) {
	saveCursor(w, "slicegen", len(g.Insts), g.pos, lent)
}

// LoadState restores a cursor written by SaveState onto a generator
// over a slice of the same length, rewound by lent, which it returns.
func (g *SliceGen) LoadState(rd *checkpoint.Reader) int {
	return loadCursor(rd, "slicegen", g.Insts, &g.pos)
}

// LoopGen replays a fixed slice of instructions forever. A batch ends
// at the end of the slice; the next one starts over.
type LoopGen struct {
	Insts []Inst
	pos   int // next instruction not yet lent; len(Insts) wraps lazily
}

// Batch implements Generator, lending straight out of Insts.
func (g *LoopGen) Batch(max int) []Inst {
	if g.pos == len(g.Insts) {
		g.pos = 0
	}
	return lend(g.Insts, &g.pos, max)
}

// CanSave reports that the cursor is the generator's whole state.
func (g *LoopGen) CanSave() bool { return true }

// SaveState serializes the cursor, as SliceGen.SaveState does.
func (g *LoopGen) SaveState(w *checkpoint.Writer, lent int) {
	saveCursor(w, "loopgen", len(g.Insts), g.pos, lent)
}

// LoadState restores a cursor written by SaveState and returns lent.
func (g *LoopGen) LoadState(rd *checkpoint.Reader) int {
	return loadCursor(rd, "loopgen", g.Insts, &g.pos)
}

// lend returns the next up to max instructions of buf from *pos on and
// advances *pos past them.
func lend(buf []Inst, pos *int, max int) []Inst {
	n := min(max, len(buf)-*pos)
	*pos += n
	return buf[*pos-n : *pos]
}

func saveCursor(w *checkpoint.Writer, tag string, n, pos, lent int) {
	w.Tag(tag)
	w.U64(uint64(n))
	w.U64(uint64(pos))
	w.U64(uint64(lent))
}

// loadCursor sets *pos to the saved cursor rewound by the lent count,
// and returns that count.
func loadCursor(rd *checkpoint.Reader, tag string, insts []Inst, pos *int) int {
	rd.Expect(tag)
	saved, end, lent := rd.U64(), rd.U64(), rd.U64()
	if rd.Err() != nil {
		return 0
	}
	if n := uint64(len(insts)); saved != n || end > saved || lent > end {
		rd.Failf("%s: cursor %d (%d lent) over %d instructions does not fit a %d-instruction stream", tag, end, lent, saved, n)
		return 0
	}
	*pos = int(end - lent)
	return int(lent)
}
