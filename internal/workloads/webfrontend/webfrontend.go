// Package webfrontend models the Web Frontend workload: an Nginx + PHP
// frontend serving the Olio social-event-calendar application
// (Section 3.2: Nginx 1.0.10, PHP 5.3.5 with the APC opcode cache,
// Cloudstone dataset, Faban client driver).
//
// Each thread executes dynamic requests through a real bytecode
// interpreter: page scripts are arrays of opcodes held in an APC-like
// cache; the dispatch loop walks each script, jumping through a large
// bank of opcode-handler functions — the classic interpreter structure
// whose code footprint and indirect control flow give the workload its
// large instruction working set. Handlers manipulate a PHP-style value
// heap (short pointer chains — the lowest MLP of the suite, Figure 3),
// template strings, and per-user session state; a few opcodes issue
// backend queries over the network. Requests are stateless and
// independent, per the paper's description.
package webfrontend

import (
	"cloudsuite/internal/addrspace"
	"cloudsuite/internal/oskern"
	"cloudsuite/internal/rng"
	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/trace"
	"cloudsuite/internal/workloads"
)

// Config scales the workload.
type Config struct {
	// Scripts is the number of distinct page scripts in the APC cache.
	Scripts int
	// OpcodesPerScript is the mean script length.
	OpcodesPerScript int
	// Handlers is the number of opcode handler routines (the
	// interpreter's dispatch surface).
	Handlers int
	// ValueHeapBytes sizes the PHP value heap.
	ValueHeapBytes uint64
	// Sessions is the number of user sessions.
	Sessions uint64
}

// DefaultConfig returns a frontend with ~1MB of interpreter+handler
// text, 64 page scripts, and a 64MB value heap.
func DefaultConfig() Config {
	return Config{
		Scripts: 64, OpcodesPerScript: 2600, Handlers: 300,
		ValueHeapBytes: 64 << 20, Sessions: 4 << 10,
	}
}

type opcode struct {
	handler int
	kind    uint8 // 0 value op, 1 string op, 2 session op, 3 backend op, 4 branch
	arg     uint64
}

// Frontend is the Web Frontend workload instance.
type Frontend struct {
	cfg  Config
	kern *oskern.Kernel
	heap *addrspace.Heap

	handlers  []*trace.Func // opcode handlers (the interpreter surface)
	fnAccept  *trace.Func
	fnParse   *trace.Func
	fnDisp    *trace.Func
	fnTmpl    *trace.Func
	fnRespond *trace.Func
	nginxBank *workloads.CodeBank

	scripts   [][]opcode
	scriptArr []addrspace.Array // simulated opcode arrays (APC cache)
	valueHeap uint64
	sessions  addrspace.Array
	templates addrspace.Array
}

// New builds the frontend.
func New(cfg Config) *Frontend {
	if cfg.Scripts == 0 {
		cfg = DefaultConfig()
	}
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	f := &Frontend{cfg: cfg, kern: oskern.New(oskern.DefaultConfig()), heap: addrspace.NewUserHeap()}
	f.nginxBank = workloads.NewCodeBank(code, "nginx_php_runtime", 120, 850)
	f.fnAccept = code.Func("http_accept", 500)
	f.fnParse = code.Func("http_parse", 700)
	f.fnDisp = code.Func("zend_dispatch", 260)
	f.fnTmpl = code.Func("template_render", 650)
	f.fnRespond = code.Func("http_respond", 550)
	f.handlers = make([]*trace.Func, cfg.Handlers)
	for i := range f.handlers {
		// Handlers vary in size like real opcode implementations.
		f.handlers[i] = code.Func("zend_handler", 120+(i*37)%360)
	}

	r := rng.New(42)
	f.scripts = make([][]opcode, cfg.Scripts)
	f.scriptArr = make([]addrspace.Array, cfg.Scripts)
	for sIdx := range f.scripts {
		n := cfg.OpcodesPerScript/2 + r.Intn(cfg.OpcodesPerScript)
		ops := make([]opcode, n)
		for i := range ops {
			k := uint8(0)
			switch r := r.Intn(1000); {
			case r < 580:
				k = 0 // value ops
			case r < 800:
				k = 1 // string ops
			case r < 900:
				k = 2 // session ops
			case r < 908:
				k = 3 // backend query (a handful per page)
			default:
				k = 4 // script-level branch
			}
			ops[i] = opcode{handler: r.Intn(cfg.Handlers), kind: k, arg: r.Uint64()}
		}
		f.scripts[sIdx] = ops
		f.scriptArr[sIdx] = addrspace.NewArray(f.heap, uint64(n), 16)
	}
	f.valueHeap = f.heap.AllocLines(cfg.ValueHeapBytes)
	f.sessions = addrspace.NewArray(f.heap, cfg.Sessions, 512)
	f.templates = addrspace.NewArray(f.heap, 128, 8<<10)
	return f
}

// Start implements workloads.Workload.
func (f *Frontend) Start(n int, seed int64) []*trace.StepGen {
	gens := make([]*trace.StepGen, n)
	for i := 0; i < n; i++ {
		cfg := workloads.EmitterConfigFor(seed+int64(i)*7561, 0.08)
		gens[i] = trace.NewStepGen(cfg, f.newThread(i, seed+int64(i)))
	}
	return gens
}

// SaveShared serializes the frontend's shared mutable state. Requests
// are stateless; only the kernel and heap cursors move at run time.
func (f *Frontend) SaveShared(w *checkpoint.Writer) {
	w.Tag("webfrontend.shared")
	f.kern.SaveState(w)
	f.heap.SaveState(w)
}

// LoadShared restores state written by SaveShared.
func (f *Frontend) LoadShared(rd *checkpoint.Reader) {
	rd.Expect("webfrontend.shared")
	f.kern.LoadState(rd)
	f.heap.LoadState(rd)
}

// wthread is one worker thread; each Step serves one request.
type wthread struct {
	f          *Frontend //simlint:ok checkpointcov shared frontend, checkpointed via SaveShared
	tid        int       //simlint:ok checkpointcov construction-time identity
	rnd        *rng.Rand // request selectors + session draws
	conn       *oskern.Conn
	backend    *oskern.Conn
	stack      uint64          //simlint:ok checkpointcov construction-time address
	reqBuf     uint64          //simlint:ok checkpointcov construction-time address
	respBuf    uint64          //simlint:ok checkpointcov construction-time address
	hotPool    uint64          //simlint:ok checkpointcov construction-time address
	zipfScript *workloads.Zipf //simlint:ok checkpointcov immutable params; draw state lives in rnd
}

func (f *Frontend) newThread(tid int, seed int64) *wthread {
	r := rng.New(seed)
	return &wthread{
		f: f, tid: tid, rnd: r,
		conn:    f.kern.OpenConnOn(tid),
		backend: f.kern.OpenConnOn(tid),
		stack:   workloads.StackOf(tid),
		reqBuf:  f.heap.AllocLines(8 << 10),
		respBuf: f.heap.AllocLines(64 << 10),
		// Most zvals of a request live in a hot per-request arena; only a
		// fraction reach into the cold shared value heap.
		hotPool:    f.heap.AllocLines(64 << 10),
		zipfScript: workloads.NewZipf(r, 1.1, uint64(f.cfg.Scripts)),
	}
}

// SaveState serializes the thread's resumable state.
func (t *wthread) SaveState(w *checkpoint.Writer) {
	w.Tag("webfrontend.thread")
	t.rnd.SaveState(w)
	t.conn.SaveState(w)
	t.backend.SaveState(w)
}

// LoadState restores state written by SaveState.
func (t *wthread) LoadState(rd *checkpoint.Reader) {
	rd.Expect("webfrontend.thread")
	t.rnd.LoadState(rd)
	t.conn.LoadState(rd)
	t.backend.LoadState(rd)
}

// Step serves one request.
func (t *wthread) Step(e *trace.Emitter) bool {
	f, rnd := t.f, t.rnd
	conn, backend := t.conn, t.backend
	stack, reqBuf, respBuf, hotPool := t.stack, t.reqBuf, t.respBuf, t.hotPool
	zipfScript := t.zipfScript

	{
		f.kern.Poll(e, conn)
		f.kern.Recv(e, conn, reqBuf, 512)
		e.InFunc(f.fnAccept, func() { workloads.GenericWork(e, 180, stack, 3) })
		e.InFunc(f.fnParse, func() {
			for b := uint64(0); b < 512; b += 64 {
				ld := e.Load(reqBuf+b, 64, trace.NoVal, false)
				e.ALUChain(3, ld)
			}
		})
		f.nginxBank.Exec(e, rnd.Uint64(), 14, 1400, stack, 3)

		sIdx := int(zipfScript.Next()) % f.cfg.Scripts
		session := f.sessions.At(uint64(rnd.Int63n(int64(f.cfg.Sessions))))
		f.interpret(e, sIdx, session, hotPool, respBuf, backend, stack)

		e.InFunc(f.fnRespond, func() {
			var v trace.Val = trace.NoVal
			for b := uint64(0); b < 8<<10; b += 64 {
				ld := e.Load(respBuf+b, 64, trace.NoVal, false)
				v = e.ALU(v, ld)
			}
			workloads.GenericWork(e, 160, stack, 3)
		})
		f.kern.Send(e, conn, respBuf, 12<<10)
	}
	return true
}

// interpret executes one page script through the opcode dispatch loop.
func (f *Frontend) interpret(e *trace.Emitter, sIdx int, session, hotPool, respBuf uint64, backend *oskern.Conn, stack uint64) {
	script := f.scripts[sIdx]
	arr := f.scriptArr[sIdx]
	heapMask := f.cfg.ValueHeapBytes - 1
	respOff := uint64(0)

	pc := 0
	steps := 0
	maxSteps := len(script) * 2
	var last trace.Val = trace.NoVal
	for pc < len(script) && steps < maxSteps {
		op := script[pc]
		steps++
		// Dispatch: load the opcode record and jump through the handler
		// table (the indirect branch of the interpreter loop).
		e.InFunc(f.fnDisp, func() {
			last = e.Load(arr.At(uint64(pc)), 16, last, true)
			last = e.ALUChain(2, last)
		})
		h := f.handlers[op.handler]
		e.InFunc(h, func() {
			switch op.kind {
			case 0: // value op: short pointer chain through zvals
				a1 := hotPool + (op.arg & (64<<10 - 1) &^ 15)
				if op.arg%19 == 0 {
					// A minority of zvals reach the cold shared heap.
					a1 = f.valueHeap + (op.arg & heapMask &^ 15)
				}
				v := e.Load(a1, 16, last, true)
				a2 := hotPool + ((op.arg * 2654435761) & (64<<10 - 1) &^ 15)
				v = e.Load(a2, 16, v, true) // zval -> payload chase
				v = e.ALUChain(3, v)
				if op.arg%3 == 0 {
					e.Store(a1, 16, v, trace.NoVal)
				}
				last = v
			case 1: // string op: copy a template fragment to the response
				t := f.templates.At(op.arg % f.templates.Len)
				frag := 128 + op.arg%512
				for b := uint64(0); b < frag; b += 64 {
					v := e.Load(t+b, 64, trace.NoVal, false)
					e.Store(respBuf+(respOff+b)%(64<<10), 64, v, trace.NoVal)
				}
				respOff += frag
			case 2: // session op
				v := e.Load(session, 16, last, true)
				v = e.ALUChain(4, v)
				e.Store(session+64, 16, v, trace.NoVal)
				last = v
			case 3: // backend query: small request, medium reply
				f.kern.Send(e, backend, respBuf, 96)
				f.kern.Recv(e, backend, respBuf+(respOff%(32<<10)), 1024)
			case 4: // script-level control flow
				taken := op.arg%5 < 2
				e.Branch(taken, last)
				if taken {
					pc += int(op.arg % 7)
				}
			}
			workloads.GenericWork(e, 24, stack, 2)
		})
		pc++
	}
	e.InFunc(f.fnTmpl, func() { workloads.GenericWork(e, 500, stack, 3) })
}
