package trace

import (
	"testing"

	"cloudsuite/internal/rng"
)

// refEmitter is the by-value write path that add/pushed replaced, kept
// as the reference model: every op builds an Inst and push appends a
// copy of it. It shares the emitter's PC, dependence and block-length
// helpers, so only the write path differs.
type refEmitter struct{ *Emitter }

func (e refEmitter) push(i Inst) Val {
	i.Kernel = e.kernelDepth > 0
	e.buf = append(e.buf, i)
	v := Val(e.seq)
	e.seq++
	if i.Op != OpBranch {
		e.untilBranch--
		if e.untilBranch <= 0 {
			e.untilBranch = e.nextBlockLen()
			e.autoBranch()
		}
	}
	return v
}

func (e refEmitter) autoBranch() {
	fr := e.curFrame()
	entropy := e.cfg.BranchEntropy
	if fr.fn.BranchEntropy >= 0 {
		entropy = fr.fn.BranchEntropy
	}
	pc := e.nextPC()
	var taken bool
	var dep uint8
	if e.rng.Float64() < entropy {
		taken = e.rng.Float64() < 0.3
		dep = 1
	} else {
		taken = e.rng.Float64() < 0.04
	}
	target := pc
	if taken {
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

func (e refEmitter) Call(fn *Func) {
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

func (e refEmitter) Ret() {
	fr := e.funcs[len(e.funcs)-1]
	e.funcs = e.funcs[:len(e.funcs)-1]
	if fr.ret.fn != nil {
		e.buf = append(e.buf, Inst{PC: fr.pc, Op: OpBranch, Taken: true, Uncond: true, Target: fr.ret.pc, Kernel: e.kernelDepth > 0})
		e.seq++
	}
}

func (e refEmitter) InKernel(fn *Func, body func()) {
	e.kernelDepth++
	e.Call(fn)
	body()
	e.Ret()
	e.kernelDepth--
}

func (e refEmitter) Load(addr uint64, size int, dep Val, chase bool) Val {
	return e.push(Inst{
		PC: e.nextPC(), Op: OpLoad, Addr: addr, Size: uint8(size),
		DepA: e.dist(dep), AcquiresDep: chase && dep >= 0,
	})
}

func (e refEmitter) Store(addr uint64, size int, a, b Val) {
	e.push(Inst{
		PC: e.nextPC(), Op: OpStore, Addr: addr, Size: uint8(size),
		DepA: e.dist(a), DepB: e.dist(b),
	})
}

func (e refEmitter) ALU(a, b Val) Val {
	return e.push(Inst{PC: e.nextPC(), Op: OpALU, DepA: e.dist(a), DepB: e.dist(b)})
}

func (e refEmitter) FP(a, b Val) Val {
	return e.push(Inst{PC: e.nextPC(), Op: OpFP, DepA: e.dist(a), DepB: e.dist(b)})
}

func (e refEmitter) ALUChain(n int, dep Val) Val {
	v := dep
	for i := 0; i < n; i++ {
		v = e.ALU(v, NoVal)
	}
	return v
}

func (e refEmitter) ALUIndep(n int) Val {
	v := NoVal
	for i := 0; i < n; i++ {
		v = e.ALU(NoVal, NoVal)
	}
	return v
}

func (e refEmitter) Branch(taken bool, dep Val) {
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

// emitOps is the emitting surface both write paths implement.
type emitOps interface {
	Load(addr uint64, size int, dep Val, chase bool) Val
	Store(addr uint64, size int, a, b Val)
	ALU(a, b Val) Val
	FP(a, b Val) Val
	ALUChain(n int, dep Val) Val
	ALUIndep(n int) Val
	Branch(taken bool, dep Val)
	Call(fn *Func)
	Ret()
	InKernel(fn *Func, body func())
}

// opScript drives an emitter with a random op sequence drawn from its
// own stream, so two scripts of one seed make the same calls as long
// as the emitters return the same Vals.
type opScript struct {
	r     *rng.Rand
	e     emitOps
	funcs []*Func
	vals  []Val
}

// dep returns NoVal or one of the Vals emitted so far.
func (s *opScript) dep() Val {
	if len(s.vals) == 0 || s.r.Intn(3) == 0 {
		return NoVal
	}
	return s.vals[len(s.vals)-1-s.r.Intn(min(len(s.vals), 300))]
}

func (s *opScript) keep(v Val) {
	if v >= 0 {
		s.vals = append(s.vals, v)
	}
}

// run makes n random calls, entering functions and kernel mode down to
// depth more levels.
func (s *opScript) run(n, depth int) {
	for range n {
		r := s.r
		addr := r.Uint64() >> r.Intn(64)
		switch k := r.Intn(12); {
		case k == 0:
			s.keep(s.e.Load(addr, 1<<r.Intn(4), s.dep(), r.Intn(2) == 0))
		case k == 1:
			s.e.Store(addr, 1<<r.Intn(4), s.dep(), s.dep())
		case k == 2:
			s.keep(s.e.ALU(s.dep(), s.dep()))
		case k == 3:
			s.keep(s.e.FP(s.dep(), s.dep()))
		case k == 4:
			s.keep(s.e.ALUChain(r.Intn(8), s.dep()))
		case k == 5:
			s.keep(s.e.ALUIndep(r.Intn(8)))
		case k == 6:
			s.e.Branch(r.Intn(2) == 0, s.dep())
		case k == 7 && depth > 0:
			s.e.Call(s.funcs[r.Intn(len(s.funcs))])
			s.run(r.Intn(20), depth-1)
			s.e.Ret()
		case k == 8 && depth > 0:
			s.e.InKernel(s.funcs[r.Intn(len(s.funcs))], func() { s.run(r.Intn(20), depth-1) })
		default:
			s.keep(s.e.Load(addr, 8, NoVal, false))
		}
	}
}

// garbage is what a recycled buffer's stale slot may hold: every bit
// of every field set.
var garbage = Inst{
	PC: ^uint64(0), Addr: ^uint64(0), Target: ^uint64(0),
	DepA: 0xff, DepB: 0xff, Size: 0xff, Op: 0xff,
	Kernel: true, Taken: true, Uncond: true, AcquiresDep: true,
}

// TestEmitterMatchesByValueReference: random op sequences over every op
// kind, nested calls, kernel mode, branch entropies 0 and 1 and
// functions small enough to wrap emit the by-value reference's stream
// instruction for instruction. The in-place emitter starts from a
// recycled buffer full of garbage and reuses its own stale slots each
// round, so a field the in-place path forgets to write shows.
func TestEmitterMatchesByValueReference(t *testing.T) {
	l := NewCodeLayout(0x400000, 1<<24)
	var funcs []*Func
	for _, size := range []int{1, 2, 3, 7, 40, 5000} {
		for _, entropy := range []float64{-1, 0, 1} {
			f := l.Func("f", size)
			f.BranchEntropy = entropy
			funcs = append(funcs, f)
		}
	}
	const rounds, opsPerRound = 20, 400
	for _, entropy := range []float64{0, 1, 0.3} {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := EmitterConfig{BlockLen: int(seed) * 2, BranchEntropy: entropy, Seed: seed}
			got, want := NewEmitter(cfg), refEmitter{NewEmitter(cfg)}
			// What NewEmitter may take from bufPool: a buffer of a closed
			// generator, here big enough that no round regrows it.
			got.buf = make([]Inst, 0, 1<<16)
			for i := range got.buf[:cap(got.buf)] {
				got.buf[:cap(got.buf)][i] = garbage
			}
			want.buf = nil
			gs := &opScript{r: rng.New(seed), e: got, funcs: funcs}
			ws := &opScript{r: rng.New(seed), e: want, funcs: funcs}
			base := funcs[int(seed)%len(funcs)]
			got.Call(base)
			want.Call(base)
			for round := range rounds {
				gs.run(opsPerRound, 3)
				ws.run(opsPerRound, 3)
				if len(got.buf) != len(want.buf) {
					t.Fatalf("entropy %v seed %d round %d: %d instructions, reference %d",
						entropy, seed, round, len(got.buf), len(want.buf))
				}
				for i := range want.buf {
					if got.buf[i] != want.buf[i] {
						t.Fatalf("entropy %v seed %d round %d inst %d:\n got %+v\nwant %+v",
							entropy, seed, round, i, got.buf[i], want.buf[i])
					}
				}
				if got.seq != want.seq || got.untilBranch != want.untilBranch || got.rng.Uint64() != want.rng.Uint64() {
					t.Fatalf("entropy %v seed %d round %d: seq/untilBranch/rng diverged", entropy, seed, round)
				}
				// The next round writes over this round's instructions.
				got.buf, want.buf = got.buf[:0], want.buf[:0]
			}
		}
	}
}
