// Package traditional implements the comparison benchmarks the paper
// characterizes alongside CloudSuite (Section 3.3): desktop (SPEC
// CINT2006), parallel (PARSEC 2.1), enterprise web (SPECweb09), and
// database server (TPC-C, TPC-E, Web Backend) workloads.
//
// The SPEC and PARSEC entries are proxy kernels: small programs with
// the structural properties that place each suite where the paper's
// figures put it — tiny instruction working sets, high ILP for the
// cpu-bound group, abundant and independent memory-level parallelism
// for the memory-bound group. The database workloads are built on a
// real B+tree engine with lock-mediated sharing. Fidelity notes per
// workload are in DESIGN.md.
//
// Like the scale-out workloads, every proxy checkpoints its live state:
// a proxy thread keeps everything its steps mutate in a serializable
// thread value, and the workload serializes its heap cursor and OS
// model, so a warm image restores by a pure load.
package traditional

import (
	"cloudsuite/internal/addrspace"
	"cloudsuite/internal/oskern"
	"cloudsuite/internal/rng"
	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/trace"
	"cloudsuite/internal/workloads"
)

// kernelWorkload adapts per-thread step functions to the Workload
// interface.
type kernelWorkload struct {
	entropy float64
	// main, when set, is the top-level function frame the thread loop
	// runs in (emissions between explicit InFunc calls belong to it).
	main *trace.Func
	// heap is the proxy's data heap; kern, when set, its OS model
	// (SPECweb09 and the database proxies). They are the only shared
	// state that moves: code, arrays and B+trees are immutable after
	// construction.
	heap *addrspace.Heap
	kern *oskern.Kernel
	// prog sets up one thread and returns its step function.
	// Construction runs at Start time in thread order, so shared-heap
	// allocation order is deterministic in (n, seed).
	prog func(t *thread, tid int) stepFunc
}

// stepFunc emits one step of a proxy thread. Everything it mutates
// lives in t; the closure captures only construction-time values
// (arrays, base addresses, stacks, buffers).
type stepFunc func(t *thread, e *trace.Emitter)

// thread is one proxy thread: its step function plus every value the
// steps mutate. Each proxy uses the fields it needs.
type thread struct {
	main *trace.Func //simlint:ok checkpointcov construction-time code layout
	step stepFunc    //simlint:ok checkpointcov construction-time program
	rnd  *rng.Rand
	conn *oskern.Conn // nil for proxies that serve no network traffic
	n    uint64       // completed steps: units, rows, requests, transactions or queries
	cur  uint64       // sweep offset or pointer-chase cursor
	pass uint64       // completed sweeps
	v    trace.Val    // value carried from one step into the next
}

// Init implements trace.Initer: it pushes the workload's top-level
// frame before the first step.
func (t *thread) Init(e *trace.Emitter) {
	if t.main != nil {
		e.Call(t.main)
	}
}

// Step implements trace.Program. Proxy threads never finish.
func (t *thread) Step(e *trace.Emitter) bool {
	t.step(t, e)
	return true
}

// SaveState serializes the thread's mutable state.
func (t *thread) SaveState(w *checkpoint.Writer) {
	w.Tag("traditional.thread")
	t.rnd.SaveState(w)
	if t.conn != nil {
		t.conn.SaveState(w)
	}
	w.U64(t.n)
	w.U64(t.cur)
	w.U64(t.pass)
	w.I64(int64(t.v))
}

// LoadState restores state written by SaveState onto a thread built by
// the same workload.
func (t *thread) LoadState(rd *checkpoint.Reader) {
	rd.Expect("traditional.thread")
	t.rnd.LoadState(rd)
	if t.conn != nil {
		t.conn.LoadState(rd)
	}
	t.n = rd.U64()
	t.cur = rd.U64()
	t.pass = rd.U64()
	t.v = trace.Val(rd.I64())
}

// Start implements workloads.Workload.
func (k *kernelWorkload) Start(n int, seed int64) []*trace.StepGen {
	gens := make([]*trace.StepGen, n)
	for i := 0; i < n; i++ {
		cfg := workloads.EmitterConfigFor(seed+int64(i)*6151, k.entropy)
		t := &thread{main: k.main, rnd: rng.New(seed + int64(i))}
		t.step = k.prog(t, i)
		gens[i] = trace.NewStepGen(cfg, t)
	}
	return gens
}

// SaveShared implements workloads.Workload: the heap cursor and, when
// the proxy has one, the OS model's cursors.
func (k *kernelWorkload) SaveShared(w *checkpoint.Writer) {
	w.Tag("traditional.shared")
	k.heap.SaveState(w)
	if k.kern != nil {
		k.kern.SaveState(w)
	}
}

// LoadShared implements workloads.Workload.
func (k *kernelWorkload) LoadShared(rd *checkpoint.Reader) {
	rd.Expect("traditional.shared")
	k.heap.LoadState(rd)
	if k.kern != nil {
		k.kern.LoadState(rd)
	}
}

// ---------------------------------------------------------------------
// SPEC CINT2006 proxies. The paper splits the suite into cpu-intensive
// and memory-intensive halves and reports group averages with min/max
// range bars (Figure 3).
// ---------------------------------------------------------------------

// NewSPECintBitops models the cpu-bound, high-ILP end of SPECint
// (crafty/h264-like): bit manipulation over small lookup tables with
// abundant independent work and a tiny instruction footprint.
func NewSPECintBitops() workloads.Workload {
	heap := addrspace.NewUserHeap()
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	fnMain := code.Func("bitops_kernel", 900)
	return &kernelWorkload{
		entropy: 0.03, main: fnMain, heap: heap,
		prog: func(_ *thread, tid int) stepFunc {
			tables := addrspace.NewArray(heap, 4096, 8) // 32KB, L1-resident, per copy
			return func(t *thread, e *trace.Emitter) {
				// Independent ALU bursts with occasional table lookups.
				for it := 0; it < 64; it++ {
					e.ALUIndep(24)
					v := e.Load(tables.At(uint64(t.rnd.Intn(4096))), 8, trace.NoVal, false)
					e.ALU(v, trace.NoVal)
					e.ALUIndep(12)
					e.Branch(t.rnd.Intn(8) == 0, v)
				}
			}
		},
	}
}

// NewSPECintCompile models the gcc-like middle of the cpu group: a
// larger code footprint, pointer-light data structures, branchy logic.
func NewSPECintCompile() workloads.Workload {
	heap := addrspace.NewUserHeap()
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	bank := workloads.NewCodeBank(code, "compile_passes", 48, 700)
	return &kernelWorkload{
		entropy: 0.10, main: code.Func("compile_main", 300), heap: heap,
		prog: func(_ *thread, tid int) stepFunc {
			ir := addrspace.NewArray(heap, 32<<10, 48) // 1.5MB of IR nodes per copy
			stack := workloads.StackOf(tid)
			return func(t *thread, e *trace.Emitter) {
				bank.Exec(e, t.n*2654435761, 10, 3400, stack, 2)
				// Walk a chain of IR nodes with short dependence chains.
				idx := uint64(t.rnd.Intn(32 << 10))
				var v trace.Val = trace.NoVal
				for n := 0; n < 16; n++ {
					v = e.Load(ir.At(idx), 16, v, true)
					v = e.ALUChain(2, v)
					idx = (idx*1103515245 + 12345) % (32 << 10)
					e.Branch(n%5 == 0, v)
				}
				t.n++
			}
		},
	}
}

// NewSPECintDP models the hmmer-like dynamic-programming member of the
// cpu group: dense sequential array sweeps with high ILP.
func NewSPECintDP() workloads.Workload {
	heap := addrspace.NewUserHeap()
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	fn := code.Func("viterbi_kernel", 600)
	return &kernelWorkload{
		entropy: 0.02, main: fn, heap: heap,
		prog: func(*thread, int) stepFunc {
			row := addrspace.NewArray(heap, 3, 256<<10) // per-copy DP rows
			return func(t *thread, e *trace.Emitter) {
				// One row sweep per step.
				src, dst := row.At(t.n%3), row.At((t.n+1)%3)
				for off := uint64(0); off < 256<<10; off += 64 {
					a := e.Load(src+off, 64, trace.NoVal, false)
					b := e.ALUChain(2, a)
					c := e.ALU(a, trace.NoVal)
					e.Store(dst+off, 64, b, c)
					e.ALUIndep(4)
				}
				t.n++
			}
		},
	}
}

// NewSPECintMCF models 429.mcf: the memory-intensive min-cost-flow
// pointer chaser whose multi-megabyte reused working set makes it the
// paper's example of an LLC-sensitive application (Figure 4).
func NewSPECintMCF() workloads.Workload {
	heap := addrspace.NewUserHeap()
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	fnScan := code.Func("arc_scan", 500)
	fnPivot := code.Func("pivot_update", 400)
	const nArcs = 96 << 10 // 96K arcs x 64B = 6MB per copy: 24MB over 4 copies
	const nNodes = 24 << 10
	return &kernelWorkload{
		entropy: 0.12, heap: heap,
		prog: func(*thread, int) stepFunc {
			arcs := addrspace.NewArray(heap, nArcs, 64)
			nodes := addrspace.NewArray(heap, nNodes, 64)
			return func(t *thread, e *trace.Emitter) {
				// Price-out pass: sequential over arcs, random node
				// dereferences; arc iterations are independent (MLP).
				e.InFunc(fnScan, func() {
					for a := 0; a < 512; a++ {
						arc := uint64(t.rnd.Intn(nArcs))
						av := e.Load(arcs.At(arc), 64, trace.NoVal, false)
						tail := e.Load(nodes.At((arc*2654435761)%nNodes), 8, av, true)
						head := e.Load(nodes.At((arc*40503)%nNodes), 8, av, true)
						c := e.ALU(tail, head)
						e.Branch(a%6 == 0, c)
					}
				})
				e.InFunc(fnPivot, func() {
					// Basis update: dependent walk up the spanning tree.
					n := uint64(t.rnd.Intn(nNodes))
					var v trace.Val = trace.NoVal
					for d := 0; d < 24; d++ {
						v = e.Load(nodes.At(n), 8, v, true)
						n = (n*48271 + 1) % nNodes
						e.Store(nodes.At(n), 8, v, trace.NoVal)
					}
				})
			}
		},
	}
}

// NewSPECintEvents models omnetpp-like discrete-event simulation:
// dependent heap and object-graph chases with modest parallelism.
func NewSPECintEvents() workloads.Workload {
	heap := addrspace.NewUserHeap()
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	fn := code.Func("event_loop", 800)
	const nObjs = 160 << 10 // ~7.5MB object graph per copy
	return &kernelWorkload{
		entropy: 0.15, main: fn, heap: heap,
		prog: func(t *thread, _ int) stepFunc {
			objs := addrspace.NewArray(heap, nObjs, 48)
			t.cur = uint64(t.rnd.Intn(nObjs))
			t.v = trace.NoVal
			return func(t *thread, e *trace.Emitter) {
				for it := 0; it < 128; it++ {
					// Pop event: heap root chase, then module graph walk.
					t.v = e.Load(objs.At(t.cur), 16, t.v, true)
					t.v = e.ALUChain(4, t.v)
					t.cur = (t.cur*6364136223846793005 + 1442695040888963407) % nObjs
					t.v = e.Load(objs.At(t.cur), 16, t.v, true)
					e.Store(objs.At(t.cur), 8, t.v, trace.NoVal)
					e.Branch(t.cur%3 == 0, t.v)
				}
			}
		},
	}
}

// NewSPECintStream models libquantum-like streaming: long unit-stride
// sweeps over a large array with trivial compute — prefetch-friendly
// and bandwidth-hungry.
func NewSPECintStream() workloads.Workload {
	heap := addrspace.NewUserHeap()
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	fn := code.Func("gate_sweep", 300)
	const regBytes = 16 << 20
	const chunk = 4096 * 64 // one step covers 4096 lines of the sweep
	return &kernelWorkload{
		entropy: 0.01, main: fn, heap: heap,
		prog: func(*thread, int) stepFunc {
			reg := heap.AllocLines(regBytes)
			return func(t *thread, e *trace.Emitter) {
				for end := t.cur + chunk; t.cur < end; t.cur += 64 {
					off := t.cur
					v := e.Load(reg+off%regBytes, 64, trace.NoVal, false)
					v = e.ALU(v, trace.NoVal)
					e.Store(reg+off%regBytes, 64, v, trace.NoVal)
				}
			}
		},
	}
}

// ---------------------------------------------------------------------
// PARSEC 2.1 proxies.
// ---------------------------------------------------------------------

// NewPARSECBlackscholes models the cpu-bound option-pricing kernel:
// floating-point dense compute over a small per-thread slice.
func NewPARSECBlackscholes() workloads.Workload {
	heap := addrspace.NewUserHeap()
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	fn := code.Func("bs_kernel", 700)
	opts := addrspace.NewArray(heap, 64<<10, 64) // 4MB of options
	return &kernelWorkload{
		entropy: 0.01, main: fn, heap: heap,
		prog: func(_ *thread, tid int) stepFunc {
			// Each thread owns a contiguous slice of the options array
			// (the benchmark's static partitioning: no write sharing).
			base := uint64(tid) * (opts.Len / 8)
			return func(_ *thread, e *trace.Emitter) {
				for i := uint64(0); i < 2048; i++ {
					o := e.Load(opts.At((base+i)%opts.Len), 64, trace.NoVal, false)
					// CNDF evaluation: a few dependent FP chains, but
					// independent across options.
					a := e.FPChain(3, o)
					b := e.FPChain(3, o)
					c := e.FP(a, b)
					e.Store(opts.At((base+i)%opts.Len), 8, c, trace.NoVal)
					e.ALUIndep(6)
				}
			}
		},
	}
}

// NewPARSECSwaptions models swaptions: Monte-Carlo simulation with
// heavy independent FP work on L1-resident state.
func NewPARSECSwaptions() workloads.Workload {
	heap := addrspace.NewUserHeap()
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	fn := code.Func("hjm_path", 900)
	state := addrspace.NewArray(heap, 4096, 64) // per-thread sim state slices
	return &kernelWorkload{
		entropy: 0.02, main: fn, heap: heap,
		prog: func(_ *thread, tid int) stepFunc {
			base := uint64(tid) * 512
			return func(_ *thread, e *trace.Emitter) {
				var acc trace.Val = trace.NoVal
				for s := uint64(0); s < 256; s++ {
					v := e.Load(state.At((base+s)%state.Len), 64, trace.NoVal, false)
					p := e.FP(v, trace.NoVal)
					q := e.FP(v, trace.NoVal)
					acc = e.FP(p, q)
					e.ALUIndep(4)
				}
				e.Store(state.At(base), 8, acc, trace.NoVal)
			}
		},
	}
}

// NewPARSECCanneal models the memory-bound canneal kernel: random
// element swaps across a multi-hundred-megabyte netlist, with abundant
// independent loads (the high-MLP end of Figure 3's range bars).
func NewPARSECCanneal() workloads.Workload {
	heap := addrspace.NewUserHeap()
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	fn := code.Func("anneal_step", 650)
	const nElems = 3 << 20 // 3M x 32B = 96MB netlist
	elems := addrspace.NewArray(heap, nElems, 32)
	return &kernelWorkload{
		entropy: 0.10, main: fn, heap: heap,
		prog: func(_ *thread, tid int) stepFunc {
			return func(t *thread, e *trace.Emitter) {
				r := t.rnd
				for it := 0; it < 32; it++ {
					// Pick two random elements and their neighbours: a burst
					// of independent loads, then the cost computation and a
					// biased accept decision.
					var cost trace.Val = trace.NoVal
					for k := 0; k < 4; k++ {
						v := e.Load(elems.At(uint64(r.Intn(nElems))), 32, trace.NoVal, false)
						cost = e.FP(cost, v)
					}
					cost = e.FPChain(4, cost)
					workloads.GenericWork(e, 120, elems.At(uint64(tid)*64), 2)
					take := r.Float64() < 0.85
					e.Branch(take, cost)
					if take {
						e.Store(elems.At(uint64(r.Intn(nElems))), 8, cost, trace.NoVal)
						e.Store(elems.At(uint64(r.Intn(nElems))), 8, cost, trace.NoVal)
					}
					e.ALUIndep(8)
				}
			}
		},
	}
}

// NewPARSECStreamcluster models streamcluster: streaming FP distance
// computations over large point arrays — sequential, prefetchable,
// bandwidth-intensive.
func NewPARSECStreamcluster() workloads.Workload {
	heap := addrspace.NewUserHeap()
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	fn := code.Func("pgain", 800)
	const ptsBytes = 64 << 20
	const chunk = 4096 * 64 // one step covers 4096 lines of the sweep
	pts := heap.AllocLines(ptsBytes)
	centers := addrspace.NewArray(heap, 128, 512)
	return &kernelWorkload{
		entropy: 0.02, main: fn, heap: heap,
		prog: func(*thread, int) stepFunc {
			return func(t *thread, e *trace.Emitter) {
				for end := t.cur + chunk; t.cur < end; t.cur += 64 {
					off := t.cur
					p := e.Load(pts+off%ptsBytes, 64, trace.NoVal, false)
					ctr := e.Load(centers.At(t.pass%centers.Len), 64, trace.NoVal, false)
					d := e.FP(p, ctr)
					d = e.FPChain(2, d)
					e.Branch(off%512 == 0, d)
				}
				if t.cur%ptsBytes == 0 {
					t.pass++
				}
			}
		},
	}
}

// ---------------------------------------------------------------------
// Traditional server workloads.
// ---------------------------------------------------------------------

// NewSPECweb models SPECweb09 e-banking: a traditional web server
// dominated by static file serving and a small set of dynamic scripts,
// with heavy OS involvement (Section 4: "the traditional web workload
// is dominated by serving static files", more OS time than Web
// Frontend).
func NewSPECweb() workloads.Workload {
	heap := addrspace.NewUserHeap()
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	kern := oskern.New(oskern.Config{NICs: 2, PageCacheMB: 64, ExtraCodeKB: 96})
	bank := workloads.NewCodeBank(code, "httpd_php", 90, 800)
	fnParse := code.Func("http_parse", 600)
	fnBank := code.Func("ebanking_script", 2200)
	sessions := addrspace.NewArray(heap, 8<<10, 512)
	return &kernelWorkload{
		entropy: 0.08, main: code.Func("event_loop_main", 300), heap: heap, kern: kern,
		prog: func(t *thread, tid int) stepFunc {
			t.conn = kern.OpenConnOn(tid)
			stack := workloads.StackOf(tid)
			buf := heap.AllocLines(128 << 10)
			return func(t *thread, e *trace.Emitter) {
				r, conn := t.rnd, t.conn
				kern.Poll(e, conn)
				kern.Recv(e, conn, buf, 400)
				e.InFunc(fnParse, func() { workloads.GenericWork(e, 260, stack, 3) })
				if r.Intn(10) < 5 {
					// Static file: read through the page cache and send.
					size := 1<<10 + r.Intn(7<<10)
					bank.Exec(e, r.Uint64(), 6, 1200, stack, 3)
					kern.FileRead(e, uint64(r.Intn(2048)), uint64(r.Intn(1<<20)), buf, size)
					kern.Send(e, conn, buf, size)
				} else {
					// Small dynamic script touching the session.
					e.InFunc(fnBank, func() {
						s := sessions.At(uint64(r.Intn(8 << 10)))
						v := e.Load(s, 16, trace.NoVal, true)
						workloads.GenericWork(e, 900, s, 2)
						e.Store(s+64, 16, v, trace.NoVal)
					})
					bank.Exec(e, r.Uint64(), 10, 1600, stack, 3)
					kern.Send(e, conn, buf, 8<<10)
				}
				t.n++
				if t.n%64 == 0 {
					kern.SchedTick(e, tid)
				}
			}
		},
	}
}

// dbEngine carries the shared state of one OLTP database model.
type dbEngine struct {
	kern     *oskern.Kernel
	bank     *workloads.CodeBank
	fnParse  *trace.Func
	fnPlan   *trace.Func
	fnLock   *trace.Func
	fnLog    *trace.Func
	fnCommit *trace.Func

	items     *bptree
	stock     *bptree
	customers *bptree
	districts addrspace.Array // hot, contended rows
	locks     addrspace.Array // lock words (read-write shared)
	hotMeta   addrspace.Array // hot shared metadata (LAST_TRADE-like)
	log       uint64
}

func newDBEngine(heap *addrspace.Heap, code *trace.CodeLayout, rows uint64, rowBytes uint64, extraOSKB int) *dbEngine {
	d := &dbEngine{
		kern: oskern.New(oskern.Config{NICs: 2, PageCacheMB: 32, ExtraCodeKB: extraOSKB}),
		bank: workloads.NewCodeBank(code, "dbms", 200, 1000),
	}
	d.fnParse = code.Func("sql_parse", 1100)
	d.fnPlan = code.Func("query_plan", 900)
	d.fnLock = code.Func("lock_manager", 520)
	d.fnLog = code.Func("wal_append", 380)
	d.fnCommit = code.Func("commit", 460)
	d.items = newBPTree(heap, rows/4, 96)
	d.stock = newBPTree(heap, rows, rowBytes)
	d.customers = newBPTree(heap, rows/2, 640)
	d.districts = addrspace.NewArray(heap, 64, 128)
	d.locks = addrspace.NewArray(heap, 512, 64)
	d.hotMeta = addrspace.NewArray(heap, 192, 64)
	d.log = heap.AllocLines(16 << 20)
	return d
}

// acquire emits a lock acquisition on a shared lock word, occasionally
// escalating into the kernel futex path (contention).
func (d *dbEngine) acquire(e *trace.Emitter, lockIdx uint64, r *rng.Rand, contention float64) trace.Val {
	var v trace.Val
	e.InFunc(d.fnLock, func() {
		addr := d.locks.At(lockIdx % d.locks.Len)
		v = e.Load(addr, 8, trace.NoVal, false)
		e.Store(addr, 8, v, trace.NoVal) // CAS
		e.ALUChain(4, v)
		if r.Float64() < contention {
			d.kern.Futex(e, addr)
		}
	})
	return v
}

// NewTPCC models TPC-C on a commercial DBMS (Section 3.3: 40
// warehouses, 32 zero-think-time clients): short transactions of
// dependent B+tree probes against hot, contended districts and a large
// stock table, with intensive row-level write sharing — the workload
// the paper singles out for spending over 80% of cycles stalled on
// dependent memory accesses and for the highest read-write sharing.
func NewTPCC() workloads.Workload {
	heap := addrspace.NewUserHeap()
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	d := newDBEngine(heap, code, 512<<10, 192, 192) // 512K stock rows (~96MB)
	return &kernelWorkload{
		entropy: 0.10, main: code.Func("worker_loop", 400), heap: heap, kern: d.kern,
		prog: func(t *thread, tid int) stepFunc {
			t.conn = d.kern.OpenConnOn(tid)
			stack := workloads.StackOf(tid)
			buf := heap.AllocLines(8 << 10)
			return func(t *thread, e *trace.Emitter) {
				r, conn := t.rnd, t.conn
				d.kern.Recv(e, conn, buf, 256)
				e.InFunc(d.fnParse, func() { workloads.GenericWork(e, 420, stack, 2) })
				d.bank.Exec(e, t.n*2654435761+uint64(tid), 26, 5200, stack, 2)

				// New-order: lock the district (hot, contended), probe
				// customer, then a handful of items with stock updates.
				dist := uint64(r.Intn(64))
				lv := d.acquire(e, dist, r, 0.45)
				dv := e.Load(d.districts.At(dist), 64, lv, true)
				e.Store(d.districts.At(dist), 8, dv, trace.NoVal) // next-o-id++
				ov := e.Load(d.hotMeta.At(dist%192), 8, dv, false)
				e.Store(d.hotMeta.At(dist%192), 8, ov, trace.NoVal)

				rowAddrC, cv := d.customers.probe(e, uint64(r.Int63()), dv)
				cv = d.customers.readRow(e, rowAddrC, 192, cv)
				items := 4 + r.Intn(5)
				v := cv
				for i := 0; i < items; i++ {
					var rowAddr uint64
					rowAddr, v = d.items.probe(e, uint64(r.Int63()), v)
					v = d.items.readRow(e, rowAddr, 64, v)
					rowAddr, v = d.stock.probe(e, uint64(r.Int63()), v)
					d.stock.writeRow(e, rowAddr, 64, v)
				}
				// WAL append and commit.
				e.InFunc(d.fnLog, func() {
					pos := (t.n*512 + uint64(tid)*64) % (16 << 20)
					for off := uint64(0); off < 512; off += 64 {
						e.Store(d.log+(pos+off)%(16<<20), 64, v, trace.NoVal)
					}
				})
				e.InFunc(d.fnCommit, func() { workloads.GenericWork(e, 220, stack, 2) })
				d.kern.Send(e, conn, buf, 512)
				t.n++
				if t.n%80 == 0 {
					d.kern.SchedTick(e, tid)
				}
			}
		},
	}
}

// NewTPCE models TPC-E (Section 3.3: 5000 customers, 52GB database):
// more complex schemas and queries than TPC-C — more compute between
// probes, read-heavier mix, less lock contention. The paper finds
// scale-out workloads most similar to this class.
func NewTPCE() workloads.Workload {
	heap := addrspace.NewUserHeap()
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	d := newDBEngine(heap, code, 640<<10, 256, 256) // wider rows (~160MB)
	return &kernelWorkload{
		entropy: 0.08, main: code.Func("worker_loop", 400), heap: heap, kern: d.kern,
		prog: func(t *thread, tid int) stepFunc {
			t.conn = d.kern.OpenConnOn(tid)
			stack := workloads.StackOf(tid)
			buf := heap.AllocLines(8 << 10)
			return func(t *thread, e *trace.Emitter) {
				r, conn := t.rnd, t.conn
				d.kern.Recv(e, conn, buf, 384)
				e.InFunc(d.fnParse, func() { workloads.GenericWork(e, 600, stack, 2) })
				e.InFunc(d.fnPlan, func() { workloads.GenericWork(e, 700, stack, 2) })
				d.bank.Exec(e, t.n*40503+uint64(tid), 26, 3600, stack, 2)

				write := r.Intn(10) < 2
				if write {
					d.acquire(e, uint64(r.Intn(512)), r, 0.10)
				}
				// LAST_TRADE-style hot table: every transaction reads the
				// current quotes; the market-feed side updates them. This
				// is the actively-shared structure behind TPC-E's
				// read-write sharing (Section 4.4).
				for i := 0; i < 3; i++ {
					q := e.Load(d.hotMeta.At(uint64(r.Intn(96))), 8, trace.NoVal, false)
					e.ALUChain(3, q)
					if r.Intn(2) == 0 {
						e.Store(d.hotMeta.At(uint64(r.Intn(96))), 8, q, trace.NoVal)
					}
				}
				probes := 6 + r.Intn(6)
				var v trace.Val = trace.NoVal
				for i := 0; i < probes; i++ {
					var rowAddr uint64
					rowAddr, v = d.stock.probe(e, uint64(r.Int63()), v)
					v = d.stock.readRow(e, rowAddr, 256, v)
					// Financial computation between probes (FP-heavy).
					v = e.FPChain(6, v)
					workloads.GenericWork(e, 180, stack, 2)
					if write && i == 0 {
						d.stock.writeRow(e, rowAddr, 128, v)
					}
				}
				e.InFunc(d.fnCommit, func() { workloads.GenericWork(e, 260, stack, 2) })
				d.kern.Send(e, conn, buf, 2<<10)
				t.n++
				if t.n%80 == 0 {
					d.kern.SchedTick(e, tid)
				}
			}
		},
	}
}

// NewWebBackend models the Web Backend workload: the MySQL database
// behind the Web Frontend benchmark (Section 3.3: MySQL 5.5.9 with a
// 2GB buffer pool) — OLTP with a web-query mix: read-dominated point
// queries, some scans, moderate write sharing.
func NewWebBackend() workloads.Workload {
	heap := addrspace.NewUserHeap()
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	d := newDBEngine(heap, code, 448<<10, 160, 128)
	return &kernelWorkload{
		entropy: 0.09, main: code.Func("worker_loop", 400), heap: heap, kern: d.kern,
		prog: func(t *thread, tid int) stepFunc {
			t.conn = d.kern.OpenConnOn(tid)
			stack := workloads.StackOf(tid)
			buf := heap.AllocLines(8 << 10)
			return func(t *thread, e *trace.Emitter) {
				r, conn := t.rnd, t.conn
				d.kern.Recv(e, conn, buf, 256)
				e.InFunc(d.fnParse, func() { workloads.GenericWork(e, 500, stack, 2) })
				d.bank.Exec(e, t.n*69621+uint64(tid), 18, 2200, stack, 2)

				// InnoDB-style shared metadata: auto-increment counters and
				// table statistics touched on every query.
				mv := e.Load(d.hotMeta.At(uint64(r.Intn(32))), 8, trace.NoVal, false)
				if r.Intn(4) == 0 {
					e.Store(d.hotMeta.At(uint64(r.Intn(32))), 8, mv, trace.NoVal)
				}
				switch r.Intn(10) {
				case 0, 1: // write: update a row under lock, bump counters
					d.acquire(e, uint64(r.Intn(512)), r, 0.15)
					e.Store(d.hotMeta.At(uint64(r.Intn(64))), 8, mv, trace.NoVal)
					rowAddr, v := d.customers.probe(e, uint64(r.Int63()), trace.NoVal)
					d.customers.writeRow(e, rowAddr, 192, v)
					e.InFunc(d.fnLog, func() {
						pos := (t.n*256 + uint64(tid)*64) % (16 << 20)
						for off := uint64(0); off < 256; off += 64 {
							e.Store(d.log+(pos+off)%(16<<20), 64, v, trace.NoVal)
						}
					})
				case 2: // short range scan
					rowAddr, v := d.stock.probe(e, uint64(r.Int63()), trace.NoVal)
					for sr := uint64(0); sr < 24; sr++ {
						v = d.stock.readRow(e, rowAddr+(sr*160)%(448<<10*160), 160, v)
					}
				default: // point query
					rowAddr, v := d.customers.probe(e, uint64(r.Int63()), trace.NoVal)
					d.customers.readRow(e, rowAddr, 640, v)
				}
				e.InFunc(d.fnCommit, func() { workloads.GenericWork(e, 180, stack, 2) })
				d.kern.Send(e, conn, buf, 1<<10)
				t.n++
				if t.n%80 == 0 {
					d.kern.SchedTick(e, tid)
				}
			}
		},
	}
}
