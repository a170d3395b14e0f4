// Package dataserving models the Data Serving workload: a Cassandra-like
// in-memory NoSQL store driven by a YCSB-style client (Section 3.2 of
// the paper: Cassandra 0.7.3 with a 15GB YCSB dataset, Zipfian request
// distribution, 95:5 read/write mix).
//
// The store is a real log-structured design: a skiplist memtable absorbs
// writes; reads probe the memtable, then per-run bloom filters, a sparse
// index, and finally the record payload in one of several sorted runs.
// A garbage-collection quantum periodically marks shared record headers,
// reproducing the parallel-collector sharing the paper observes for the
// Java-based workloads (Section 4.4). All network activity goes through
// the OS model.
package dataserving

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
	// Records is the number of stored records.
	Records uint64
	// RecordBytes is the payload size (YCSB default: 1KB).
	RecordBytes uint64
	// ReadFrac is the read share of the request mix (YCSB 95:5).
	ReadFrac float64
	// Runs is the number of sorted on-"disk" runs (SSTables).
	Runs int
	// FrameworkInsts is the per-request framework (JVM/Cassandra
	// messaging) instruction budget.
	FrameworkInsts int
}

// DefaultConfig returns the scaled-down default dataset: 128K x 1KB
// records (128MB, >10x the 12MB LLC so the data working set exceeds any
// cache, as in the paper).
func DefaultConfig() Config {
	return Config{
		Records: 128 << 10, RecordBytes: 1024, ReadFrac: 0.95, Runs: 4,
		FrameworkInsts: 5600,
	}
}

type run struct {
	lo, hi uint64 // key range [lo,hi)
	keys   addrspace.Array
	recs   addrspace.Array
	bloom  addrspace.Array
	index  addrspace.Array // sparse index: every 64th key
}

type slNode struct {
	key  uint64
	addr uint64
	next []*slNode
}

// Store is the Data Serving workload instance.
type Store struct {
	cfg  Config
	kern *oskern.Kernel
	heap *addrspace.Heap
	bank *workloads.CodeBank

	fnDispatch  *trace.Func
	fnMemtable  *trace.Func
	fnBloom     *trace.Func
	fnIndex     *trace.Func
	fnRead      *trace.Func
	fnChecksum  *trace.Func
	fnSerialize *trace.Func
	fnInsert    *trace.Func
	fnCommitLog *trace.Func
	fnGC        *trace.Func

	runs    []run
	headers addrspace.Array // shared record headers marked by GC

	memHead  *slNode
	memLevel int
	memCount int

	logAddr uint64
	logCur  uint64
	gcCur   uint64
}

// New builds the store and its dataset.
func New(cfg Config) *Store {
	if cfg.Records == 0 {
		cfg = DefaultConfig()
	}
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	s := &Store{cfg: cfg, kern: oskern.New(oskern.DefaultConfig()), heap: addrspace.NewUserHeap()}
	// The JVM + Cassandra stack: a wide framework footprint.
	s.bank = workloads.NewCodeBank(code, "cassandra", 150, 900)
	s.fnDispatch = code.Func("request_dispatch", 700)
	s.fnMemtable = code.Func("memtable_search", 420)
	s.fnBloom = code.Func("bloom_check", 180)
	s.fnIndex = code.Func("index_search", 360)
	s.fnRead = code.Func("record_read", 300)
	s.fnChecksum = code.Func("record_checksum", 150)
	s.fnSerialize = code.Func("serialize_response", 800)
	s.fnInsert = code.Func("memtable_insert", 520)
	s.fnCommitLog = code.Func("commitlog_append", 260)
	s.fnGC = code.Func("gc_mark_quantum", 600)

	per := cfg.Records / uint64(cfg.Runs)
	s.runs = make([]run, cfg.Runs)
	for i := range s.runs {
		s.runs[i] = run{
			lo:    uint64(i) * per,
			hi:    uint64(i+1) * per,
			keys:  addrspace.NewArray(s.heap, per, 8),
			recs:  addrspace.NewArray(s.heap, per, cfg.RecordBytes),
			bloom: addrspace.NewArray(s.heap, (per*10+511)/512, 64),
			index: addrspace.NewArray(s.heap, (per+63)/64, 16),
		}
	}
	s.headers = addrspace.NewArray(s.heap, cfg.Records, 16)
	s.logAddr = s.heap.AllocLines(8 << 20)
	s.memHead = &slNode{next: make([]*slNode, 16), addr: s.heap.AllocLines(160)}
	s.memLevel = 1
	return s
}

// Start implements workloads.Workload.
func (s *Store) Start(n int, seed int64) []*trace.StepGen {
	gens := make([]*trace.StepGen, n)
	for i := 0; i < n; i++ {
		cfg := workloads.EmitterConfigFor(seed+int64(i)*7919, 0.10)
		gens[i] = trace.NewStepGen(cfg, s.newThread(i, seed+int64(i)))
	}
	return gens
}

// SaveShared serializes the store's shared mutable state: the kernel and
// heap cursors, the log/GC cursors, and the memtable. The skiplist is
// dumped as its level-0 sequence with per-node heights; since every
// higher level is a subsequence of level 0 in the same order, replaying
// the dump through tail pointers rebuilds the exact structure.
func (s *Store) SaveShared(w *checkpoint.Writer) {
	w.Tag("dataserving.shared")
	s.kern.SaveState(w)
	s.heap.SaveState(w)
	w.U64(s.logCur)
	w.U64(s.gcCur)
	w.U32(uint32(s.memLevel))
	w.U32(uint32(s.memCount))
	n := 0
	for node := s.memHead.next[0]; node != nil; node = node.next[0] {
		n++
	}
	w.U32(uint32(n))
	for node := s.memHead.next[0]; node != nil; node = node.next[0] {
		w.U64(node.key)
		w.U64(node.addr)
		w.U8(uint8(len(node.next)))
	}
}

// LoadShared restores state written by SaveShared onto a freshly
// constructed store.
func (s *Store) LoadShared(rd *checkpoint.Reader) {
	rd.Expect("dataserving.shared")
	s.kern.LoadState(rd)
	s.heap.LoadState(rd)
	s.logCur = rd.U64()
	s.gcCur = rd.U64()
	memLevel := int(rd.U32())
	memCount := int(rd.U32())
	n := int(rd.U32())
	if rd.Err() != nil {
		return
	}
	if memLevel < 1 || memLevel > 16 || n > (4096+1) {
		rd.Failf("dataserving: implausible memtable shape (level %d, %d nodes)", memLevel, n)
		return
	}
	s.memHead.next = make([]*slNode, 16)
	var tails [16]*slNode
	for i := range tails {
		tails[i] = s.memHead
	}
	for i := 0; i < n; i++ {
		key, addr := rd.U64(), rd.U64()
		h := int(rd.U8())
		if rd.Err() != nil {
			return
		}
		if h < 1 || h > 16 {
			rd.Failf("dataserving: node height %d out of range", h)
			return
		}
		nn := &slNode{key: key, addr: addr, next: make([]*slNode, h)}
		for l := 0; l < h; l++ {
			tails[l].next[l] = nn
			tails[l] = nn
		}
	}
	s.memLevel = memLevel
	s.memCount = memCount
}

// thread is one server thread's resumable request loop: each Step emits
// one request. All mutable draw state lives in the rng; the kernel-side
// cursors live in conn; everything else is construction-time layout.
type thread struct {
	s       *Store          //simlint:ok checkpointcov shared store, checkpointed via SaveShared
	tid     int             //simlint:ok checkpointcov construction-time identity
	rnd     *rng.Rand       // request mix + insert heights
	zipf    *workloads.Zipf //simlint:ok checkpointcov immutable params; draw state lives in rnd
	conn    *oskern.Conn
	stack   uint64 //simlint:ok checkpointcov construction-time address
	reqBuf  uint64 //simlint:ok checkpointcov construction-time address
	respBuf uint64 //simlint:ok checkpointcov construction-time address
	reqs    uint64
}

// newThread allocates one server thread's connection and buffers. Called
// from Start in thread order, so the allocation sequence is deterministic
// in (n, seed).
func (s *Store) newThread(tid int, seed int64) *thread {
	r := rng.New(seed)
	return &thread{
		s: s, tid: tid, rnd: r,
		zipf:    workloads.NewZipf(r, 0.99, s.cfg.Records),
		conn:    s.kern.OpenConnOn(tid),
		stack:   workloads.StackOf(tid),
		reqBuf:  s.heap.AllocLines(4096),
		respBuf: s.heap.AllocLines(4096),
	}
}

// Step emits one request.
func (t *thread) Step(e *trace.Emitter) bool {
	s := t.s
	key := t.zipf.Next() % s.cfg.Records
	s.kern.Recv(e, t.conn, t.reqBuf, 128)

	e.InFunc(s.fnDispatch, func() {
		workloads.GenericWork(e, 260, t.stack, 3)
	})
	s.bank.Exec(e, key*0x9e3779b9+uint64(t.tid), 22, s.cfg.FrameworkInsts, t.stack, 3)

	if t.rnd.Float64() < s.cfg.ReadFrac {
		s.read(e, key, t.respBuf, t.stack)
		s.kern.Send(e, t.conn, t.respBuf, int(s.cfg.RecordBytes))
	} else {
		s.write(e, key, t.rnd, t.stack)
		s.kern.Send(e, t.conn, t.respBuf, 64)
	}

	t.reqs++
	if t.reqs%48 == 0 {
		s.gcQuantum(e)
	}
	if t.reqs%200 == 0 {
		s.kern.SchedTick(e, t.tid)
	}
	return true
}

// SaveState serializes the thread's resumable state.
func (t *thread) SaveState(w *checkpoint.Writer) {
	w.Tag("dataserving.thread")
	t.rnd.SaveState(w)
	t.conn.SaveState(w)
	w.U64(t.reqs)
}

// LoadState restores state written by SaveState.
func (t *thread) LoadState(rd *checkpoint.Reader) {
	rd.Expect("dataserving.thread")
	t.rnd.LoadState(rd)
	t.conn.LoadState(rd)
	t.reqs = rd.U64()
}

// read emits the full read path for key.
func (s *Store) read(e *trace.Emitter, key uint64, respBuf, stack uint64) {
	// Memtable probe: pointer-chase down the skiplist, one dependent
	// load per link followed and one compare per level.
	e.InFunc(s.fnMemtable, func() {
		node := s.memHead
		v := e.Load(node.addr, 8, trace.NoVal, false)
		for lvl := s.memLevel - 1; lvl >= 0; lvl-- {
			for node.next[lvl] != nil && node.next[lvl].key < key {
				node = node.next[lvl]
				v = e.Load(node.addr+uint64(lvl)*8, 8, v, true)
			}
			v = e.ALU(v, trace.NoVal)
		}
	})

	// Bloom filters: runs are checked one after another and each check
	// consumes the previous verdict (control-dependent sequence).
	owner := -1
	var bloomDep trace.Val = trace.NoVal
	for i := range s.runs {
		r := &s.runs[i]
		e.InFunc(s.fnBloom, func() {
			h := key*0x9e3779b97f4a7c15 + uint64(i)
			probes := 2
			if key >= r.lo && key < r.hi {
				owner = i
				probes = 4 // all probes pass for the owning run
			}
			for p := 0; p < probes; p++ {
				h ^= h >> 33
				h *= 0xff51afd7ed558ccd
				bloomDep = e.Load(r.bloom.At(h%r.bloom.Len), 8, bloomDep, true)
				bloomDep = e.ALUChain(2, bloomDep)
			}
		})
	}
	if owner < 0 {
		return
	}
	r := &s.runs[owner]
	rel := key - r.lo

	// Sparse index: binary search over the index entries.
	e.InFunc(s.fnIndex, func() {
		lo, hi := uint64(0), r.index.Len
		var v trace.Val = trace.NoVal
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			v = e.Load(r.index.At(mid), 16, v, true)
			v = e.ALUChain(3, v)
			if mid*64 <= rel {
				lo = mid
			} else {
				hi = mid
			}
		}
	})

	// Key scan within the indexed block, then the record payload.
	e.InFunc(s.fnRead, func() {
		base := rel &^ 63
		var v trace.Val = trace.NoVal
		for k := base; k <= rel; k += 8 {
			v = e.Load(r.keys.At(k), 8, v, false)
		}
		hdr := e.Load(s.headers.At(key), 8, v, true)
		e.ALUChain(2, hdr)
	})
	// First touch of the payload: column deserialization is a dependent
	// walk — each column's length field determines where the next one
	// starts — so the cold loads carry a dependence chain instead of
	// exposing memory-level parallelism (the stall behaviour Figure 1
	// attributes to the Java data stores).
	e.InFunc(s.fnChecksum, func() {
		rec := r.recs.At(rel)
		var sum trace.Val = trace.NoVal
		for off := uint64(0); off < s.cfg.RecordBytes; off += 64 {
			sum = e.Load(rec+off, 64, sum, true)
			sum = e.FP(sum, trace.NoVal)
		}
	})
	// Serialization: framework-heavy response construction (the record
	// is cache-resident after the first-touch walk above).
	e.InFunc(s.fnSerialize, func() {
		for off := uint64(0); off < s.cfg.RecordBytes; off += 64 {
			v := e.Load(r.recs.At(rel)+off, 64, trace.NoVal, false)
			e.Store(respBuf+off%4096, 64, v, trace.NoVal)
			e.ALU(v, trace.NoVal)
		}
		workloads.GenericWork(e, 900, stack, 3)
	})
}

// write emits the write path: a skiplist insert plus a commit-log
// append.
func (s *Store) write(e *trace.Emitter, key uint64, rnd *rng.Rand, stack uint64) {
	// Real skiplist insert: walk to the predecessors at every level,
	// then link a node of random height after them, storing its forward
	// pointers and the predecessors'.
	e.InFunc(s.fnInsert, func() {
		var update [16]*slNode
		node := s.memHead
		v := e.Load(node.addr, 8, trace.NoVal, false)
		for lvl := s.memLevel - 1; lvl >= 0; lvl-- {
			for node.next[lvl] != nil && node.next[lvl].key < key {
				node = node.next[lvl]
				v = e.Load(node.addr+uint64(lvl)*8, 8, v, true)
			}
			update[lvl] = node
		}
		h := 1
		for h < 16 && rnd.Intn(2) == 0 {
			h++
		}
		for l := s.memLevel; l < h; l++ {
			update[l] = s.memHead
		}
		s.memLevel = max(s.memLevel, h)
		nn := &slNode{key: key, addr: s.heap.AllocLines(160), next: make([]*slNode, h)}
		for l := 0; l < h; l++ {
			nn.next[l] = update[l].next[l]
			update[l].next[l] = nn
			e.Store(nn.addr+uint64(l)*8, 8, v, trace.NoVal)
			e.Store(update[l].addr+uint64(l)*8, 8, trace.NoVal, trace.NoVal)
		}
		s.memCount++
		// Bound the memtable like a flush would: recycle by dropping
		// (model only; the sorted runs remain the read target).
		if s.memCount > 4096 {
			s.memHead.next = make([]*slNode, 16)
			s.memLevel = 1
			s.memCount = 0
		}
	})
	e.InFunc(s.fnCommitLog, func() {
		s.logCur += s.cfg.RecordBytes
		pos := s.logCur % (8 << 20)
		for off := uint64(0); off < s.cfg.RecordBytes; off += 64 {
			e.Store(s.logAddr+(pos+off)%(8<<20), 64, trace.NoVal, trace.NoVal)
		}
		workloads.GenericWork(e, 60, stack, 2)
	})
}

// gcQuantum emits one parallel-collector mark quantum: it walks a chunk
// of the shared header array and writes mark bits, inducing the
// cross-core read-write sharing the paper attributes to the garbage
// collector.
func (s *Store) gcQuantum(e *trace.Emitter) {
	e.InFunc(s.fnGC, func() {
		const chunk = 64
		s.gcCur += chunk
		start := s.gcCur % s.cfg.Records
		var v trace.Val = trace.NoVal
		for i := uint64(0); i < chunk; i++ {
			idx := (start + i) % s.cfg.Records
			v = e.Load(s.headers.At(idx), 8, trace.NoVal, false)
			if i%4 == 0 {
				e.Store(s.headers.At(idx), 8, v, trace.NoVal)
			}
		}
	})
}
