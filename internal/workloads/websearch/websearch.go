// Package websearch models the Web Search workload: an index serving
// node (ISN) of a distributed search engine (Section 3.2: Nutch
// 1.2/Lucene 3.0.1 with a 2GB index over crawled content, sized to stay
// memory-resident; clients tuned for maximum request rate under a 0.5s
// 90th-percentile latency target).
//
// The node owns an inverted index: a vocabulary hash table pointing at
// delta-encoded posting lists. A query draws Zipfian terms, walks each
// term's postings with skip-pointer-accelerated sequential scans,
// intersects them, scores candidates with a BM25-style floating-point
// kernel, maintains a top-k heap, and serializes the best documents.
// Requests are handled by a single thread each and never communicate,
// exactly as the paper describes ISNs. A JVM garbage-collection quantum
// provides the small application-level sharing the paper attributes to
// the parallel collector.
package websearch

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
	// Terms is the vocabulary size.
	Terms uint64
	// Docs is the number of indexed documents.
	Docs uint64
	// PostingsBytes is the total posting-list storage.
	PostingsBytes uint64
	// TermsPerQuery is the mean query length.
	TermsPerQuery int
	// TopK is the result-heap size.
	TopK int
	// FrameworkInsts is the per-query Lucene/JVM overhead.
	FrameworkInsts int
}

// DefaultConfig scales the 2GB index to 64MB of postings over 256K
// documents.
func DefaultConfig() Config {
	return Config{
		Terms: 256 << 10, Docs: 256 << 10, PostingsBytes: 64 << 20,
		TermsPerQuery: 3, TopK: 10, FrameworkInsts: 5200,
	}
}

// Node is the Web Search workload instance.
type Node struct {
	cfg  Config
	kern *oskern.Kernel
	heap *addrspace.Heap
	bank *workloads.CodeBank

	fnParse   *trace.Func
	fnLookup  *trace.Func
	fnScan    *trace.Func
	fnScore   *trace.Func
	fnHeap    *trace.Func
	fnDocMeta *trace.Func
	fnSerial  *trace.Func
	fnGC      *trace.Func

	vocab    addrspace.Array // term dictionary (hash table)
	postings uint64          // flat postings region
	postOff  []uint64        // per-term offset
	postLen  []uint64        // per-term length in docs
	docMeta  addrspace.Array // per-doc metadata
	norms    addrspace.Array // per-doc length norms (scored sequentially)
	headers  addrspace.Array // object headers for the GC quantum
	gcCur    uint64
}

// New builds the index.
func New(cfg Config) *Node {
	if cfg.Terms == 0 {
		cfg = DefaultConfig()
	}
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	n := &Node{cfg: cfg, kern: oskern.New(oskern.DefaultConfig()), heap: addrspace.NewUserHeap()}
	n.bank = workloads.NewCodeBank(code, "lucene", 160, 900)
	n.fnParse = code.Func("query_parse", 550)
	n.fnLookup = code.Func("term_lookup", 320)
	n.fnScan = code.Func("postings_scan", 700)
	n.fnScore = code.Func("bm25_score", 420)
	n.fnHeap = code.Func("topk_heap", 300)
	n.fnDocMeta = code.Func("doc_fetch", 380)
	n.fnSerial = code.Func("result_serialize", 760)
	n.fnGC = code.Func("gc_mark_quantum", 600)

	n.vocab = addrspace.NewArray(n.heap, cfg.Terms, 32)
	n.postings = n.heap.AllocLines(cfg.PostingsBytes)
	n.docMeta = addrspace.NewArray(n.heap, cfg.Docs, 64)
	n.norms = addrspace.NewArray(n.heap, cfg.Docs, 4)
	n.headers = addrspace.NewArray(n.heap, cfg.Docs, 16)

	// Zipfian posting-list lengths: few huge lists, many short ones,
	// packed consecutively like a real segment file.
	n.postOff = make([]uint64, cfg.Terms)
	n.postLen = make([]uint64, cfg.Terms)
	r := rng.New(7)
	off := uint64(0)
	budget := cfg.PostingsBytes
	for t := uint64(0); t < cfg.Terms; t++ {
		// Rank-based length: list length ~ C / rank.
		l := cfg.PostingsBytes / 24 / (t + 16)
		if l < 8 {
			l = 8 + uint64(r.Intn(8))
		}
		bytes := l * 4
		if bytes > budget {
			bytes = budget
			l = bytes / 4
		}
		n.postOff[t] = off
		n.postLen[t] = l
		off += bytes
		budget -= bytes
		if budget == 0 {
			// Remaining terms reuse earlier lists (like shared segments).
			for u := t + 1; u < cfg.Terms; u++ {
				src := u % (t + 1)
				n.postOff[u] = n.postOff[src]
				n.postLen[u] = n.postLen[src]
			}
			break
		}
	}
	return n
}

// Start implements workloads.Workload.
func (n *Node) Start(threads int, seed int64) []*trace.StepGen {
	gens := make([]*trace.StepGen, threads)
	for i := 0; i < threads; i++ {
		cfg := workloads.EmitterConfigFor(seed+int64(i)*15731, 0.06)
		gens[i] = trace.NewStepGen(cfg, n.newThread(i, seed+int64(i)))
	}
	return gens
}

// SaveShared serializes the node's shared mutable state. The index
// itself is immutable after construction; only the kernel, the heap
// cursor and the GC cursor move.
func (n *Node) SaveShared(w *checkpoint.Writer) {
	w.Tag("websearch.shared")
	n.kern.SaveState(w)
	n.heap.SaveState(w)
	w.U64(n.gcCur)
}

// LoadShared restores state written by SaveShared.
func (n *Node) LoadShared(rd *checkpoint.Reader) {
	rd.Expect("websearch.shared")
	n.kern.LoadState(rd)
	n.heap.LoadState(rd)
	n.gcCur = rd.U64()
}

// qthread is one index-serving thread; each Step emits one query.
type qthread struct {
	n        *Node           //simlint:ok checkpointcov shared node, checkpointed via SaveShared
	tid      int             //simlint:ok checkpointcov construction-time identity
	rnd      *rng.Rand       // query lengths + term draws
	zipfTerm *workloads.Zipf //simlint:ok checkpointcov immutable params; draw state lives in rnd
	conn     *oskern.Conn
	stack    uint64 //simlint:ok checkpointcov construction-time address
	reqBuf   uint64 //simlint:ok checkpointcov construction-time address
	respBuf  uint64 //simlint:ok checkpointcov construction-time address
	heapAddr uint64 //simlint:ok checkpointcov construction-time address
	queries  uint64
}

func (n *Node) newThread(tid int, seed int64) *qthread {
	r := rng.New(seed)
	return &qthread{
		n: n, tid: tid, rnd: r,
		zipfTerm: workloads.NewZipf(r, 1.01, n.cfg.Terms),
		conn:     n.kern.OpenConnOn(tid),
		stack:    workloads.StackOf(tid),
		reqBuf:   n.heap.AllocLines(4096),
		respBuf:  n.heap.AllocLines(16 << 10),
		heapAddr: n.heap.AllocLines(uint64(n.cfg.TopK) * 16),
	}
}

// SaveState serializes the thread's resumable state.
func (t *qthread) SaveState(w *checkpoint.Writer) {
	w.Tag("websearch.thread")
	t.rnd.SaveState(w)
	t.conn.SaveState(w)
	w.U64(t.queries)
}

// LoadState restores state written by SaveState.
func (t *qthread) LoadState(rd *checkpoint.Reader) {
	rd.Expect("websearch.thread")
	t.rnd.LoadState(rd)
	t.conn.LoadState(rd)
	t.queries = rd.U64()
}

// Step emits one query.
func (th *qthread) Step(e *trace.Emitter) bool {
	n, tid := th.n, th.tid
	rnd, zipfTerm, conn := th.rnd, th.zipfTerm, th.conn
	stack, reqBuf, respBuf, heapAddr := th.stack, th.reqBuf, th.respBuf, th.heapAddr
	queries := int(th.queries)

	{
		n.kern.Recv(e, conn, reqBuf, 256)
		e.InFunc(n.fnParse, func() { workloads.GenericWork(e, 220, stack, 3) })
		n.bank.Exec(e, uint64(queries)*0x9e3779b9+uint64(tid), 20, n.cfg.FrameworkInsts, stack, 3)

		nTerms := 1 + rnd.Intn(n.cfg.TermsPerQuery*2-1)
		var shortest uint64 = 1 << 62
		terms := make([]uint64, nTerms)
		for t := range terms {
			terms[t] = zipfTerm.Next() % n.cfg.Terms
			e.InFunc(n.fnLookup, func() {
				h := e.Load(n.vocab.At(terms[t]), 32, trace.NoVal, false)
				e.ALUChain(4, h)
			})
			if n.postLen[terms[t]] < shortest {
				shortest = n.postLen[terms[t]]
			}
		}

		// Intersect: drive from the shortest list; skip through the
		// others. Scans are sequential with skips (semi-sequential), the
		// scoring is FP-heavy, candidates are mutually independent.
		candidates := int(shortest)
		if candidates > 64 {
			candidates = 64
		}
		var score trace.Val = trace.NoVal
		e.InFunc(n.fnScan, func() {
			for c := 0; c < candidates; c++ {
				var docv trace.Val = trace.NoVal
				for _, t := range terms {
					// Postings advance sequentially (delta-decoded 4-byte
					// entries); skip pointers jump ahead occasionally.
					pos := (uint64(c) * 4) % (n.postLen[t] * 4)
					if c%16 == 15 {
						pos = ((uint64(c) * 256) % (n.postLen[t] * 4)) &^ 3
					}
					docv = e.Load(n.postings+n.postOff[t]+pos, 4, trace.NoVal, false)
					docv = e.ALUChain(4, docv) // delta decode + compare
				}
				match := c%3 == 0
				e.Branch(match, docv)
				if !match {
					continue
				}
				doc := (uint64(c)*2654435761 + terms[0]) % n.cfg.Docs
				e.InFunc(n.fnScore, func() {
					nv := e.Load(n.norms.At(doc), 4, docv, false)
					s := e.FP(nv, docv)
					s = e.FPChain(6, s)
					score = e.FP(score, s)
					workloads.GenericWork(e, 30, heapAddr, 3)
				})
				if c%4 == 0 {
					e.InFunc(n.fnHeap, func() {
						h := e.Load(heapAddr, 16, score, false)
						e.Store(heapAddr+uint64(c%n.cfg.TopK)*16, 16, h, trace.NoVal)
						e.ALUChain(3, h)
					})
				}
			}
		})

		// Fetch metadata of the winners and serialize.
		for k := 0; k < n.cfg.TopK/2; k++ {
			doc := (uint64(queries)*31 + uint64(k)*2654435761) % n.cfg.Docs
			e.InFunc(n.fnDocMeta, func() {
				m := e.Load(n.docMeta.At(doc), 64, trace.NoVal, true)
				e.ALUChain(3, m)
				h := e.Load(n.headers.At(doc), 8, m, true)
				e.ALU(h, trace.NoVal)
			})
		}
		e.InFunc(n.fnSerial, func() {
			for b := uint64(0); b < 4<<10; b += 64 {
				e.Store(respBuf+b, 64, trace.NoVal, trace.NoVal)
			}
			workloads.GenericWork(e, 420, stack, 3)
		})
		n.kern.Send(e, conn, respBuf, 4<<10)
	}

	th.queries++
	if th.queries%48 == 0 {
		n.gcQuantum(e)
	}
	if th.queries%200 == 0 {
		n.kern.SchedTick(e, tid)
	}
	return true
}

// gcQuantum marks a chunk of shared object headers (parallel collector).
func (n *Node) gcQuantum(e *trace.Emitter) {
	e.InFunc(n.fnGC, func() {
		const chunk = 64
		n.gcCur += chunk
		start := n.gcCur % n.cfg.Docs
		for i := uint64(0); i < chunk; i++ {
			idx := (start + i) % n.cfg.Docs
			v := e.Load(n.headers.At(idx), 8, trace.NoVal, false)
			if i%4 == 0 {
				e.Store(n.headers.At(idx), 8, v, trace.NoVal)
			}
		}
	})
}
