package trace

import (
	"fmt"
	"sync"

	"cloudsuite/internal/rng"
	"cloudsuite/internal/sim/checkpoint"
)

// Val identifies a value produced earlier in the dynamic instruction
// stream. Workload kernels thread Vals through their code to express the
// data-flow the out-of-order model should see. The zero of the type is not
// meaningful; use NoVal for "no dependence".
type Val int64

// NoVal marks the absence of a dependence.
const NoVal Val = -1

// Func is a static code region (one function) in the simulated program.
// Instructions emitted while the function is active receive consecutive
// PCs inside [Entry, Entry+4*Size), wrapping around like a loop body when
// the dynamic instruction count exceeds the static size.
type Func struct {
	// Entry is the virtual address of the first instruction.
	Entry uint64
	// Size is the static size in instructions.
	Size uint64
	// Name is used in diagnostics only.
	Name string
	// BranchEntropy overrides the emitter default when >= 0: the
	// probability that an automatically inserted branch in this function
	// is data-dependent (hard to predict) rather than strongly biased.
	BranchEntropy float64
}

// InstBytes is the size of one instruction in the simulated ISA. A fixed
// 4-byte encoding keeps PC arithmetic trivial; with 64-byte cache lines
// this yields 16 instructions per line, close to x86 server code density.
const InstBytes = 4

// CodeLayout allocates static code regions from a contiguous address
// range. One layout is typically shared by all functions of a program
// (user code) and a second one by the OS model (kernel code).
type CodeLayout struct {
	next uint64
	end  uint64
}

// NewCodeLayout returns a layout allocating from [base, base+size).
func NewCodeLayout(base, size uint64) *CodeLayout {
	return &CodeLayout{next: base, end: base + size}
}

// Func carves a function of size instructions out of the layout.
// It panics if the region is exhausted, which indicates a workload
// configuration bug rather than a runtime condition.
func (l *CodeLayout) Func(name string, size int) *Func {
	if size <= 0 {
		panic("trace: function size must be positive")
	}
	bytes := uint64(size) * InstBytes
	// Align functions to cache lines like a real linker would; this makes
	// instruction-cache footprints honest.
	const lineMask = 63
	l.next = (l.next + lineMask) &^ uint64(lineMask)
	if l.next+bytes > l.end {
		panic(fmt.Sprintf("trace: code layout exhausted allocating %s (%d insts)", name, size))
	}
	f := &Func{Entry: l.next, Size: uint64(size), Name: name, BranchEntropy: -1}
	l.next += bytes
	return f
}

// EmitterConfig tunes the synthetic control-flow the emitter weaves
// around the data-flow provided by the workload kernel.
type EmitterConfig struct {
	// BlockLen is the mean number of instructions between automatically
	// inserted branches. Typical compiled code has a branch every 5-7
	// instructions. Zero selects the default of 6.
	BlockLen int
	// BranchEntropy is the probability that an auto-inserted branch is
	// data-dependent (50% taken, unpredictable) instead of strongly
	// biased. Predictable code (tight loops) has low entropy; interpreter
	// dispatch and search heuristics have high entropy.
	BranchEntropy float64
	// Seed initialises the emitter's private random stream.
	Seed int64
}

// Emitter converts workload-level events (loads, stores, compute,
// function calls) into the dynamic instruction stream consumed by the
// simulator. It maintains the program counter, inserts realistic
// control flow, and converts Val handles into dependence distances.
//
// Emitters run synchronously on the simulator goroutine: a Program's
// Step method emits into the buffer and returns, and the owning StepGen
// lends the buffer out in batches. There is no workload goroutine,
// which is what makes the whole generator — RNG, call stack, buffered
// residue — serializable through SaveState/LoadState for warm-image
// checkpoints.
type Emitter struct {
	cfg   EmitterConfig
	rng   *rng.Rand
	buf   []Inst // pending instructions, grown as a Step emits
	pos   int    // lend cursor: buf[pos:] is not yet lent
	seq   int64  // absolute index of the next instruction
	funcs []frame
	// untilBranch counts down instructions until the next auto branch.
	untilBranch int
	kernelDepth int
}

type frame struct {
	fn  *Func
	pc  uint64 // next PC to assign inside fn
	ret frameRet
}

type frameRet struct {
	fn *Func
	pc uint64
}

// bufPool recycles the buffers of closed generators, so a fresh emitter
// does not regrow its buffer step by step to the workload's largest
// Step. Only capacity is shared: Batch and SaveState read instructions
// that every emitter writes itself before reading.
var bufPool sync.Pool //simlint:ok globalrand recycled capacity only; no buffer content reaches a result

// NewEmitter returns an emitter with an empty call stack. Most callers
// want NewStepGen, which pairs the emitter with a Program.
func NewEmitter(cfg EmitterConfig) *Emitter {
	if cfg.BlockLen <= 0 {
		cfg.BlockLen = 6
	}
	e := &Emitter{
		cfg: cfg,
		rng: rng.New(cfg.Seed),
	}
	if b, ok := bufPool.Get().(*[]Inst); ok {
		e.buf = *b
	}
	e.untilBranch = e.nextBlockLen()
	return e
}

func (e *Emitter) nextBlockLen() int {
	// Jitter block length between half and 1.5x the mean.
	bl := e.cfg.BlockLen
	return bl/2 + 1 + e.rng.Intn(bl)
}

func (e *Emitter) dist(v Val) uint8 {
	if v < 0 {
		return 0
	}
	d := e.seq - int64(v)
	if d <= 0 {
		panic("trace: dependence on a not-yet-emitted value")
	}
	return DepDist(d)
}

// curFrame panics if no function is active: every instruction must belong
// to a Func so the instruction cache sees a meaningful PC.
func (e *Emitter) curFrame() *frame {
	if len(e.funcs) == 0 {
		panic("trace: emitting outside any function; use Call first")
	}
	return &e.funcs[len(e.funcs)-1]
}

func (e *Emitter) nextPC() uint64 {
	fr := e.curFrame()
	pc := fr.pc
	fr.pc += InstBytes
	limit := fr.fn.Entry + fr.fn.Size*InstBytes
	if fr.pc >= limit {
		// Wrap like a loop: re-execute the body from shortly after entry.
		fr.pc = fr.fn.Entry
	}
	return pc
}

// add appends a slot for the next instruction and returns it. The slot
// may hold a stale instruction from a recycled buffer, so the caller
// writes every field of it. Writing in place rather than building an
// Inst and appending a copy took about a fifth off trace generation
// (BenchmarkEmit).
func (e *Emitter) add() *Inst {
	if n := len(e.buf); n < cap(e.buf) {
		e.buf = e.buf[:n+1]
	} else {
		e.buf = append(e.buf, Inst{})
	}
	return &e.buf[len(e.buf)-1]
}

// pushed does the bookkeeping for the non-branch instruction just
// written into the slot add returned: it assigns the instruction's Val
// and counts down to the next auto branch.
func (e *Emitter) pushed() Val {
	v := Val(e.seq)
	e.seq++
	// Interleave synthetic control flow. The branch belongs to the same
	// function and usually falls through; sometimes it jumps backwards a
	// short distance (loop) which keeps the footprint identical.
	if e.untilBranch--; e.untilBranch <= 0 {
		e.autoBranch()
	}
	return v
}

// branch emits a branch at pc to target, consuming the value dep
// instructions back (0 for none).
func (e *Emitter) branch(pc, target uint64, taken, uncond bool, dep uint8) {
	in := e.add()
	in.PC, in.Addr, in.Target = pc, 0, target
	in.DepA, in.DepB, in.Size, in.Op = dep, 0, 0, OpBranch
	in.Kernel, in.Taken, in.Uncond, in.AcquiresDep = e.kernelDepth > 0, taken, uncond, false
	e.seq++
}

// autoBranch ends a basic block: it draws the next block's length, then
// emits the block's closing branch.
func (e *Emitter) autoBranch() {
	e.untilBranch = e.nextBlockLen()
	fr := e.curFrame()
	entropy := e.cfg.BranchEntropy
	if fr.fn.BranchEntropy >= 0 {
		entropy = fr.fn.BranchEntropy
	}
	pc := e.nextPC()
	var taken bool
	var dep uint8
	if e.rng.Float64() < entropy {
		// Data-dependent branch: weakly biased outcome that depends on a
		// recent value (real data-dependent branches are rarely 50/50).
		taken = e.rng.Float64() < 0.3
		dep = 1
	} else {
		// Strongly biased branch, mostly not taken (fall through a check).
		taken = e.rng.Float64() < 0.04
	}
	target := pc
	if taken {
		// Short jump within the function; the target is a fixed function
		// of the branch PC (real branches have static targets, so the
		// BTB can learn them).
		span := int64(fr.fn.Size) * InstBytes
		h := pc * 0x9e3779b97f4a7c15
		off := (int64(h>>33)%8 + 1) * InstBytes
		if h&(1<<32) != 0 {
			off = -off
		}
		t := int64(pc) + off
		lo, hi := int64(fr.fn.Entry), int64(fr.fn.Entry)+span-InstBytes
		if t < lo {
			t = lo
		}
		if t > hi {
			t = hi
		}
		target = uint64(t)
		fr.pc = target + InstBytes
		limit := fr.fn.Entry + fr.fn.Size*InstBytes
		if fr.pc >= limit {
			fr.pc = fr.fn.Entry
		}
	}
	e.branch(pc, target, taken, false, dep)
}

// Call enters fn: it emits the call branch and redirects the PC stream to
// the function body. Every Call must be paired with Ret.
func (e *Emitter) Call(fn *Func) {
	if len(e.funcs) > 0 {
		fr := e.curFrame()
		e.branch(e.nextPC(), fn.Entry, true, true, 0)
		e.funcs = append(e.funcs, frame{fn: fn, pc: fn.Entry, ret: frameRet{fn: fr.fn, pc: fr.pc}})
		return
	}
	e.funcs = append(e.funcs, frame{fn: fn, pc: fn.Entry})
}

// Ret leaves the current function, emitting the return branch.
func (e *Emitter) Ret() {
	if len(e.funcs) == 0 {
		panic("trace: Ret without Call")
	}
	fr := e.funcs[len(e.funcs)-1]
	e.funcs = e.funcs[:len(e.funcs)-1]
	if fr.ret.fn != nil {
		e.branch(fr.pc, fr.ret.pc, true, true, 0)
	}
}

// InFunc runs body inside fn, handling the Call/Ret pairing.
func (e *Emitter) InFunc(fn *Func, body func()) {
	e.Call(fn)
	body()
	e.Ret()
}

// InKernel runs body in kernel mode inside fn. The OS model uses this for
// syscall handlers, interrupt paths, and kernel threads.
func (e *Emitter) InKernel(fn *Func, body func()) {
	e.kernelDepth++
	e.InFunc(fn, body)
	e.kernelDepth--
}

// Load emits a load of size bytes from addr. dep is the value the address
// computation consumes (NoVal for none); chase marks address-generating
// dependences (pointer chasing), which serialise memory-level parallelism.
func (e *Emitter) Load(addr uint64, size int, dep Val, chase bool) Val {
	pc, d := e.nextPC(), e.dist(dep)
	in := e.add()
	in.PC, in.Addr, in.Target = pc, addr, 0
	in.DepA, in.DepB, in.Size, in.Op = d, 0, uint8(size), OpLoad
	in.Kernel, in.Taken, in.Uncond, in.AcquiresDep = e.kernelDepth > 0, false, false, chase && dep >= 0
	return e.pushed()
}

// Store emits a store of size bytes to addr, consuming up to two values.
func (e *Emitter) Store(addr uint64, size int, a, b Val) {
	pc, da, db := e.nextPC(), e.dist(a), e.dist(b)
	in := e.add()
	in.PC, in.Addr, in.Target = pc, addr, 0
	in.DepA, in.DepB, in.Size, in.Op = da, db, uint8(size), OpStore
	in.Kernel, in.Taken, in.Uncond, in.AcquiresDep = e.kernelDepth > 0, false, false, false
	e.pushed()
}

// ALU emits one integer op consuming a and b.
func (e *Emitter) ALU(a, b Val) Val { return e.compute(OpALU, a, b) }

// FP emits one floating-point op consuming a and b.
func (e *Emitter) FP(a, b Val) Val { return e.compute(OpFP, a, b) }

// compute emits one register-only op consuming a and b. ALU and FP stay
// small enough to inline, so ALUChain and its kin make one call per
// instruction.
func (e *Emitter) compute(op Op, a, b Val) Val {
	pc, da, db := e.nextPC(), e.dist(a), e.dist(b)
	in := e.add()
	in.PC, in.Addr, in.Target = pc, 0, 0
	in.DepA, in.DepB, in.Size, in.Op = da, db, 0, op
	in.Kernel, in.Taken, in.Uncond, in.AcquiresDep = e.kernelDepth > 0, false, false, false
	return e.pushed()
}

// ALUChain emits n serially dependent integer ops seeded by dep and
// returns the final value. It models address arithmetic, comparisons and
// other short dependent computations.
func (e *Emitter) ALUChain(n int, dep Val) Val {
	v := dep
	for i := 0; i < n; i++ {
		v = e.ALU(v, NoVal)
	}
	return v
}

// ALUIndep emits n mutually independent integer ops (abundant ILP) and
// returns the last one.
func (e *Emitter) ALUIndep(n int) Val {
	v := NoVal
	for i := 0; i < n; i++ {
		v = e.ALU(NoVal, NoVal)
	}
	return v
}

// FPChain emits n serially dependent floating-point ops.
func (e *Emitter) FPChain(n int, dep Val) Val {
	v := dep
	for i := 0; i < n; i++ {
		v = e.FP(v, NoVal)
	}
	return v
}

// Branch emits an explicit conditional branch whose outcome the workload
// controls (taken), consuming dep. Explicit branches express data-
// dependent control flow such as comparison results during a tree search.
func (e *Emitter) Branch(taken bool, dep Val) {
	fr := e.curFrame()
	pc := e.nextPC()
	target := pc
	if taken {
		h := pc * 0x9e3779b97f4a7c15
		t := int64(pc) + (int64(h>>40)%6+1)*InstBytes
		hi := int64(fr.fn.Entry) + int64(fr.fn.Size-1)*InstBytes
		if t > hi {
			t = hi
		}
		target = uint64(t)
		fr.pc = target + InstBytes
		limit := fr.fn.Entry + fr.fn.Size*InstBytes
		if fr.pc >= limit {
			fr.pc = fr.fn.Entry
		}
	}
	e.branch(pc, target, taken, false, e.dist(dep))
}

// SaveState serializes the complete emitter state: configuration, RNG
// position, call stack (with per-frame code-region geometry), and the
// residue: the last lent instructions the consumer has not fetched,
// then those never lent. Restoring from this state continues the
// instruction stream at exactly the next instruction, with no replay.
func (e *Emitter) SaveState(w *checkpoint.Writer, lent int) {
	w.Tag("emitter")
	w.U32(uint32(e.cfg.BlockLen))
	w.F64(e.cfg.BranchEntropy)
	w.I64(e.cfg.Seed)
	e.rng.SaveState(w)
	w.I64(e.seq)
	w.U32(uint32(e.untilBranch))
	w.U32(uint32(e.kernelDepth))
	w.U32(uint32(len(e.funcs)))
	for i := range e.funcs {
		fr := &e.funcs[i]
		w.U64(fr.fn.Entry)
		w.U64(fr.fn.Size)
		w.F64(fr.fn.BranchEntropy)
		w.U64(fr.pc)
		w.Bool(fr.ret.fn != nil)
		if fr.ret.fn != nil {
			w.U64(fr.ret.fn.Entry)
			w.U64(fr.ret.fn.Size)
			w.F64(fr.ret.fn.BranchEntropy)
			w.U64(fr.ret.pc)
		}
	}
	residue := e.buf[e.pos-lent:]
	w.U32(uint32(len(residue)))
	w.U32(uint32(lent))
	saveResidue(w, residue)
}

// saveResidue writes insts as consecutive residue records.
func saveResidue(w *checkpoint.Writer, insts []Inst) {
	var c instCoder
	for i := range insts {
		c.save(w, &insts[i])
	}
}

// loadResidue reads len(dst) residue records written by saveResidue
// into dst, stopping at the first error.
func loadResidue(rd *checkpoint.Reader, dst []Inst) {
	var c instCoder
	for i := range dst {
		if c.load(rd, &dst[i]); rd.Err() != nil {
			return
		}
	}
}

// A residue record is delta-coded against the record before it (the
// first against a zero Inst). It is a header byte, a presence byte,
// and then only the fields present, in this order:
//
//   - the PC, unless it is the previous PC + InstBytes: a zigzag varint
//     delta from the previous PC;
//   - DepA, DepB and Size, one byte each, when nonzero;
//   - Addr, when nonzero: a zigzag varint delta from the last Addr
//     present;
//   - Target, when nonzero: a zigzag varint delta from the record's PC.
//
// Deltas wrap modulo 2^64, so every Inst round-trips. Most records are
// a sequential ALU or memory op and take 2 to 4 bytes.
const (
	recOp     = 7 // header bits 0-2: Op
	recKernel = 1 << 3
	recTaken  = 1 << 4
	recUncond = 1 << 5
	recAcqDep = 1 << 6
	recSeqPC  = 1 << 7 // PC = previous PC + InstBytes
)

// Presence bits: which optional fields follow the header.
const (
	hasDepA = 1 << iota
	hasDepB
	hasSize
	hasAddr
	hasTarget
	hasAll = hasDepA | hasDepB | hasSize | hasAddr | hasTarget
)

// instCoder holds what a residue record is coded against: the previous
// record's PC and the last Addr present.
type instCoder struct{ pc, addr uint64 }

// bit returns b if v is set, else 0.
func bit(v bool, b uint8) uint8 {
	if v {
		return b
	}
	return 0
}

// save writes in as the next residue record. in.Op must be a defined
// Op: the header has three bits for it.
func (c *instCoder) save(w *checkpoint.Writer, in *Inst) {
	hdr := uint8(in.Op) | bit(in.Kernel, recKernel) | bit(in.Taken, recTaken) |
		bit(in.Uncond, recUncond) | bit(in.AcquiresDep, recAcqDep) | bit(in.PC == c.pc+InstBytes, recSeqPC)
	has := bit(in.DepA != 0, hasDepA) | bit(in.DepB != 0, hasDepB) | bit(in.Size != 0, hasSize) |
		bit(in.Addr != 0, hasAddr) | bit(in.Target != 0, hasTarget)
	w.U8(hdr)
	w.U8(has)
	if hdr&recSeqPC == 0 {
		w.Varint(int64(in.PC - c.pc))
	}
	if has&hasDepA != 0 {
		w.U8(in.DepA)
	}
	if has&hasDepB != 0 {
		w.U8(in.DepB)
	}
	if has&hasSize != 0 {
		w.U8(in.Size)
	}
	if has&hasAddr != 0 {
		w.Varint(int64(in.Addr - c.addr))
		c.addr = in.Addr
	}
	if has&hasTarget != 0 {
		w.Varint(int64(in.Target - in.PC))
	}
	c.pc = in.PC
}

// load reads the next residue record into in, failing on an Op this
// package does not define or a presence bit it does not know.
func (c *instCoder) load(rd *checkpoint.Reader, in *Inst) {
	hdr, has := rd.U8(), rd.U8()
	if rd.Err() != nil {
		return
	}
	op := Op(hdr & recOp)
	if op >= numOps {
		rd.Failf("emitter: residue instruction has op %d; ops end at %d", op, numOps-1)
		return
	}
	if has&^hasAll != 0 {
		rd.Failf("emitter: residue presence byte %#x names no field", has)
		return
	}
	*in = Inst{Op: op, Kernel: hdr&recKernel != 0, Taken: hdr&recTaken != 0,
		Uncond: hdr&recUncond != 0, AcquiresDep: hdr&recAcqDep != 0}
	in.PC = c.pc + InstBytes
	if hdr&recSeqPC == 0 {
		in.PC = c.pc + uint64(rd.Varint())
	}
	if has&hasDepA != 0 {
		in.DepA = rd.U8()
	}
	if has&hasDepB != 0 {
		in.DepB = rd.U8()
	}
	if has&hasSize != 0 {
		in.Size = rd.U8()
	}
	if has&hasAddr != 0 {
		in.Addr = c.addr + uint64(rd.Varint())
		c.addr = in.Addr
	}
	if has&hasTarget != 0 {
		in.Target = in.PC + uint64(rd.Varint())
	}
	c.pc = in.PC
}

// LoadState restores state written by SaveState. The call stack is
// rebuilt with fresh Func values carrying the saved geometry — the
// emitter only ever reads Entry/Size/BranchEntropy from a frame's
// function, so pointer identity with the workload's own Func values is
// not required (Name is diagnostics-only and restored frames carry a
// placeholder). It returns the lent count, checked against the residue.
func (e *Emitter) LoadState(rd *checkpoint.Reader) int {
	rd.Expect("emitter")
	e.cfg.BlockLen = int(rd.U32())
	e.cfg.BranchEntropy = rd.F64()
	e.cfg.Seed = rd.I64()
	e.rng.LoadState(rd)
	e.seq = rd.I64()
	e.untilBranch = int(rd.U32())
	e.kernelDepth = int(rd.U32())
	// A frame takes at least 33 bytes: entry, size, entropy, pc and the
	// return flag.
	n := rd.Count(33)
	if rd.Err() != nil {
		return 0
	}
	e.funcs = make([]frame, n)
	for i := range e.funcs {
		fn := &Func{Name: "restored"}
		fn.Entry = rd.U64()
		fn.Size = rd.U64()
		fn.BranchEntropy = rd.F64()
		fr := frame{fn: fn, pc: rd.U64()}
		if rd.Bool() {
			ret := &Func{Name: "restored-ret"}
			ret.Entry = rd.U64()
			ret.Size = rd.U64()
			ret.BranchEntropy = rd.F64()
			fr.ret = frameRet{fn: ret, pc: rd.U64()}
		}
		e.funcs[i] = fr
	}
	// A residue record takes at least its header and presence bytes.
	k := rd.Count(2)
	lent := int(rd.U32())
	if rd.Err() != nil {
		return 0
	}
	if lent > k {
		rd.Failf("emitter: %d lent instructions exceed the %d-instruction residue", lent, k)
		return 0
	}
	e.buf = make([]Inst, k)
	e.pos = 0
	if loadResidue(rd, e.buf); rd.Err() != nil {
		return 0
	}
	return lent
}

// Program is a resumable workload thread. Step emits one bounded unit of
// work into the emitter (typically one request, one transaction, or one
// chunk of a long sweep — aim for well under 100k instructions per step)
// and returns false when the thread has nothing further to produce.
//
// Steps run synchronously on the goroutine that pulls from the StepGen,
// in exactly the order the (single-threaded) simulator pulls batches.
// That ordering, plus the seeded emitter RNG, makes a run a
// deterministic function of its seeds even when threads share data
// structures; it is also why shared workload state needs no locks.
type Program interface {
	Step(e *Emitter) bool
}

// ProgFunc adapts a plain step function to Program.
type ProgFunc func(e *Emitter) bool

// Step implements Program.
func (f ProgFunc) Step(e *Emitter) bool { return f(e) }

// Initer is implemented by programs that need to set up the emitter once
// before the first Step — typically pushing the base call frame (a Call
// with an empty stack emits no instruction). Init must only touch the
// emitter: restoring a checkpoint rebuilds the emitter state wholesale
// after Init runs, so side effects on the program itself would diverge.
type Initer interface {
	Init(e *Emitter)
}

// Stateful is implemented by programs whose complete per-thread state
// can be serialized. A warm image stores every thread's generator
// state, so a checkpointed run needs every program to be Stateful; the
// engine rejects one that is not before the run starts.
type Stateful interface {
	SaveState(w *checkpoint.Writer)
	LoadState(rd *checkpoint.Reader)
}

// StepGen adapts a Program to the Generator interface, owning the
// emitter the program emits into. There is no background goroutine,
// and the whole generator state is serializable when the program is
// Stateful.
type StepGen struct {
	e    *Emitter
	prog Program
	done bool
}

// NewStepGen returns a generator running prog with a fresh emitter. If
// prog implements Initer, its Init hook runs immediately.
func NewStepGen(cfg EmitterConfig, prog Program) *StepGen {
	e := NewEmitter(cfg)
	if init, ok := prog.(Initer); ok {
		init.Init(e)
	}
	return &StepGen{e: e, prog: prog}
}

// Batch implements Generator. It runs Steps only while fewer than max
// instructions are pending — the pull rule that fixes the cross-thread
// Step order — then lends the first max of them out of the emitter's
// buffer. Before stepping it moves the residue over the consumed batch.
func (g *StepGen) Batch(max int) []Inst {
	e := g.e
	if len(e.buf)-e.pos < max && !g.done {
		e.buf = e.buf[:copy(e.buf, e.buf[e.pos:])]
		e.pos = 0
		for len(e.buf) < max && !g.done {
			g.done = !g.prog.Step(e)
		}
	}
	return lend(e.buf, &e.pos, max)
}

// Next copies Batch(len(out)) into out and returns its length.
func (g *StepGen) Next(out []Inst) int { return copy(out, g.Batch(len(out))) }

// Close ends the stream, discards any buffered instructions and hands
// the buffer to the next emitter. There is no goroutine to unwind.
func (g *StepGen) Close() {
	g.done = true
	if buf := g.e.buf[:0]; cap(buf) > 0 {
		bufPool.Put(&buf)
	}
	g.e.buf, g.e.pos = nil, 0
}

// CanSave reports whether the full generator state — emitter plus
// program — is serializable, which a checkpointed run requires.
func (g *StepGen) CanSave() bool {
	_, ok := g.prog.(Stateful)
	return ok
}

// SaveState serializes the generator: progress flag, emitter, and the
// program's own per-thread state; lent counts the unfetched rest of
// the last batch. It panics if CanSave is false; the engine checks
// every generator before a checkpointed run starts.
func (g *StepGen) SaveState(w *checkpoint.Writer, lent int) {
	w.Tag("stepgen")
	w.Bool(g.done)
	g.e.SaveState(w, lent)
	g.prog.(Stateful).SaveState(w)
}

// LoadState restores state written by SaveState onto a freshly
// constructed generator for the same program and configuration, and
// returns lent: Batch(lent) lends those instructions again, stepping
// nothing.
func (g *StepGen) LoadState(rd *checkpoint.Reader) int {
	rd.Expect("stepgen")
	g.done = rd.Bool()
	lent := g.e.LoadState(rd)
	g.prog.(Stateful).LoadState(rd)
	return lent
}
