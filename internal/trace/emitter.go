package trace

import (
	"encoding/binary"
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

// Rand returns the emitter's private random stream, for workloads that
// need reproducible randomness tied to the thread seed. The stream is
// part of the emitter's checkpointed state.
func (e *Emitter) Rand() *rng.Rand { return e.rng }

func (e *Emitter) dist(v Val) int32 {
	if v < 0 {
		return 0
	}
	d := e.seq - int64(v)
	if d <= 0 {
		panic("trace: dependence on a not-yet-emitted value")
	}
	const maxDist = 1 << 24
	if d > maxDist {
		return 0 // far outside any realistic instruction window
	}
	return int32(d)
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

func (e *Emitter) push(i Inst) Val {
	i.Kernel = e.kernelDepth > 0
	e.buf = append(e.buf, i)
	v := Val(e.seq)
	e.seq++

	// Interleave synthetic control flow. The branch belongs to the same
	// function and usually falls through; sometimes it jumps backwards a
	// short distance (loop) which keeps the footprint identical.
	if i.Op != OpBranch {
		e.untilBranch--
		if e.untilBranch <= 0 {
			e.untilBranch = e.nextBlockLen()
			e.autoBranch()
		}
	}
	return v
}

func (e *Emitter) autoBranch() {
	fr := e.curFrame()
	entropy := e.cfg.BranchEntropy
	if fr.fn.BranchEntropy >= 0 {
		entropy = fr.fn.BranchEntropy
	}
	pc := e.nextPC()
	var taken bool
	var dep int32
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
	e.buf = append(e.buf, Inst{PC: pc, Op: OpBranch, Taken: taken, Target: target, DepA: dep, Kernel: e.kernelDepth > 0})
	e.seq++
}

// Call enters fn: it emits the call branch and redirects the PC stream to
// the function body. Every Call must be paired with Ret.
func (e *Emitter) Call(fn *Func) {
	if len(e.funcs) > 0 {
		fr := e.curFrame()
		pc := e.nextPC()
		e.buf = append(e.buf, Inst{PC: pc, Op: OpBranch, Taken: true, Uncond: true, Target: fn.Entry, Kernel: e.kernelDepth > 0})
		e.seq++
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
		pc := fr.pc
		e.buf = append(e.buf, Inst{PC: pc, Op: OpBranch, Taken: true, Uncond: true, Target: fr.ret.pc, Kernel: e.kernelDepth > 0})
		e.seq++
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
	return e.push(Inst{
		PC: e.nextPC(), Op: OpLoad, Addr: addr, Size: uint8(size),
		DepA: e.dist(dep), AcquiresDep: chase && dep >= 0,
	})
}

// Store emits a store of size bytes to addr, consuming up to two values.
func (e *Emitter) Store(addr uint64, size int, a, b Val) {
	e.push(Inst{
		PC: e.nextPC(), Op: OpStore, Addr: addr, Size: uint8(size),
		DepA: e.dist(a), DepB: e.dist(b),
	})
}

// ALU emits one integer op consuming a and b.
func (e *Emitter) ALU(a, b Val) Val {
	return e.push(Inst{PC: e.nextPC(), Op: OpALU, DepA: e.dist(a), DepB: e.dist(b)})
}

// FP emits one floating-point op consuming a and b.
func (e *Emitter) FP(a, b Val) Val {
	return e.push(Inst{PC: e.nextPC(), Op: OpFP, DepA: e.dist(a), DepB: e.dist(b)})
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
	e.push(Inst{PC: pc, Op: OpBranch, Taken: taken, Target: target, DepA: e.dist(dep)})
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
	w.Struct(residue)
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
	k := rd.Count(binary.Size(Inst{}))
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
	rd.Struct(e.buf)
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
// structures — the same property the earlier goroutine-based generator
// obtained through lockstep channels, now structural instead of
// protocol-enforced.
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
// emitter the program emits into. It replaces the goroutine-per-thread
// generator: there is no background goroutine, no channel protocol, and
// the whole generator state is serializable when the program is
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
