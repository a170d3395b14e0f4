// Package trace defines the dynamic instruction stream representation that
// connects workload models to the micro-architectural simulator.
//
// A workload produces a stream of Inst records through the Generator
// interface. Each record carries the information the simulator needs to
// model the front-end (program counter, branch outcome), the out-of-order
// back-end (register dependence distances), and the memory hierarchy
// (effective address, access size, kernel/user mode).
//
// Dependences are encoded as backward distances in the dynamic stream:
// DepA == 3 means this instruction consumes the value produced by the
// instruction three slots earlier. Distance 0 means "no dependence".
// This representation is position-independent, so generators can be
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
	// DepA and DepB are backward dependence distances (0 = none).
	DepA, DepB int32
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

// Generator produces batches of dynamic instructions.
//
// Next fills out with up to len(out) instructions and returns the number
// written. A return of 0 means the stream is exhausted. Generators are not
// required to be safe for concurrent use.
type Generator interface {
	Next(out []Inst) int
}

// Closer is implemented by generators that own background resources
// (for example a goroutine running the workload kernel). The simulator
// closes generators when a run finishes.
type Closer interface {
	Close()
}

// SliceGen replays a fixed slice of instructions once.
type SliceGen struct {
	Insts []Inst
	pos   int
}

// Next implements Generator.
func (g *SliceGen) Next(out []Inst) int {
	n := copy(out, g.Insts[g.pos:])
	g.pos += n
	return n
}

// Reset rewinds the generator to the beginning of its slice.
func (g *SliceGen) Reset() { g.pos = 0 }

// CanSave reports that the cursor is the generator's whole state.
func (g *SliceGen) CanSave() bool { return true }

// SaveState serializes the cursor. The slice itself is construction-
// time input; its length is recorded so a restore onto a different
// slice fails instead of resuming mid-way through the wrong stream.
func (g *SliceGen) SaveState(w *checkpoint.Writer) { saveCursor(w, "slicegen", len(g.Insts), g.pos) }

// LoadState restores a cursor written by SaveState onto a generator
// over a slice of the same length.
func (g *SliceGen) LoadState(rd *checkpoint.Reader) { g.pos = loadCursor(rd, "slicegen", len(g.Insts)) }

// LoopGen replays a fixed slice of instructions forever.
type LoopGen struct {
	Insts []Inst
	pos   int
}

// CanSave reports that the cursor is the generator's whole state.
func (g *LoopGen) CanSave() bool { return true }

// SaveState serializes the cursor, as SliceGen.SaveState does.
func (g *LoopGen) SaveState(w *checkpoint.Writer) { saveCursor(w, "loopgen", len(g.Insts), g.pos) }

// LoadState restores a cursor written by SaveState.
func (g *LoopGen) LoadState(rd *checkpoint.Reader) { g.pos = loadCursor(rd, "loopgen", len(g.Insts)) }

func saveCursor(w *checkpoint.Writer, tag string, n, pos int) {
	w.Tag(tag)
	w.U64(uint64(n))
	w.U64(uint64(pos))
}

func loadCursor(rd *checkpoint.Reader, tag string, n int) int {
	rd.Expect(tag)
	saved, pos := rd.U64(), rd.U64()
	if rd.Err() != nil {
		return 0
	}
	if saved != uint64(n) || pos > saved {
		rd.Failf("%s: cursor %d over %d instructions does not fit a %d-instruction stream", tag, pos, saved, n)
		return 0
	}
	return int(pos)
}

// Next implements Generator.
func (g *LoopGen) Next(out []Inst) int {
	if len(g.Insts) == 0 {
		return 0
	}
	total := 0
	for total < len(out) {
		n := copy(out[total:], g.Insts[g.pos:])
		g.pos += n
		total += n
		if g.pos == len(g.Insts) {
			g.pos = 0
		}
	}
	return total
}
