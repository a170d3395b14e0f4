// Package mapreduce models the MapReduce workload: one node of a Hadoop
// cluster running Mahout's naive-Bayes text classification over
// Wikipedia-like documents (Section 3.2: Hadoop 0.20.2, Mahout 0.4,
// 4.5GB of pages, one map task per core with a 2GB heap).
//
// Each thread is a map task: it reads its input split through the page
// cache, tokenises the text with long sequential scans (the access
// pattern that makes MapReduce the one scale-out workload that benefits
// from the hardware prefetchers, Figure 5), looks terms up in a
// per-task hash table of model weights, accumulates class scores, and
// periodically spills sorted intermediate output through the file
// system. Map tasks share nothing, matching the paper's observation
// that all tasks are architecturally independent.
package mapreduce

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
	// SplitBytes is the per-task input split size.
	SplitBytes uint64
	// VocabTerms is the model vocabulary (weights table entries).
	VocabTerms uint64
	// Labels is the number of classification labels (country tags).
	Labels int
	// DocBytes is the mean document length.
	DocBytes int
	// FrameworkInsts is the per-document Hadoop/JVM overhead.
	FrameworkInsts int
}

// DefaultConfig scales the 4.5GB dataset down to a 48MB split per task
// with a 1M-term model (~24MB of weights per task).
func DefaultConfig() Config {
	return Config{
		SplitBytes: 48 << 20, VocabTerms: 512 << 10, Labels: 64,
		DocBytes: 1200, FrameworkInsts: 2600,
	}
}

// Job is the MapReduce workload instance.
type Job struct {
	cfg  Config
	kern *oskern.Kernel
	heap *addrspace.Heap
	bank *workloads.CodeBank

	fnRecordRead *trace.Func
	fnTokenize   *trace.Func
	fnLookup     *trace.Func
	fnScore      *trace.Func
	fnEmit       *trace.Func
	fnSpill      *trace.Func
	fnCombine    *trace.Func
}

// New builds the job.
func New(cfg Config) *Job {
	if cfg.SplitBytes == 0 {
		cfg = DefaultConfig()
	}
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	j := &Job{cfg: cfg, kern: oskern.New(oskern.DefaultConfig()), heap: addrspace.NewUserHeap()}
	j.bank = workloads.NewCodeBank(code, "hadoop", 140, 850)
	j.fnRecordRead = code.Func("record_reader", 500)
	j.fnTokenize = code.Func("tokenize", 640)
	j.fnLookup = code.Func("weight_lookup", 300)
	j.fnScore = code.Func("bayes_score", 380)
	j.fnEmit = code.Func("emit_kv", 260)
	j.fnSpill = code.Func("sort_spill", 700)
	j.fnCombine = code.Func("combiner", 520)
	return j
}

// Start implements workloads.Workload. Each thread is one map task with
// private input buffer, weights table, and spill buffer.
func (j *Job) Start(n int, seed int64) []*trace.StepGen {
	gens := make([]*trace.StepGen, n)
	for i := 0; i < n; i++ {
		cfg := workloads.EmitterConfigFor(seed+int64(i)*104729, 0.08)
		gens[i] = trace.NewStepGen(cfg, j.newTask(i, seed+int64(i)))
	}
	return gens
}

// SaveShared serializes the job's shared mutable state. Map tasks share
// nothing; only the kernel and heap cursors move.
func (j *Job) SaveShared(w *checkpoint.Writer) {
	w.Tag("mapreduce.shared")
	j.kern.SaveState(w)
	j.heap.SaveState(w)
}

// LoadShared restores state written by SaveShared.
func (j *Job) LoadShared(rd *checkpoint.Reader) {
	rd.Expect("mapreduce.shared")
	j.kern.LoadState(rd)
	j.heap.LoadState(rd)
}

type task struct {
	input   uint64          //simlint:ok checkpointcov streaming input buffer (split-sized), construction-time address
	weights addrspace.Array //simlint:ok checkpointcov construction-time allocation geometry
	counts  addrspace.Array //simlint:ok checkpointcov construction-time allocation geometry
	scores  addrspace.Array //simlint:ok checkpointcov construction-time allocation geometry
	spill   uint64          //simlint:ok checkpointcov construction-time address

	j     *Job            //simlint:ok checkpointcov shared job, checkpointed via SaveShared
	tid   int             //simlint:ok checkpointcov construction-time identity
	rnd   *rng.Rand       // document lengths
	zipf  *workloads.Zipf //simlint:ok checkpointcov immutable params; draw state lives in rnd
	stack uint64          //simlint:ok checkpointcov construction-time address

	off      uint64
	spillPos uint64
	docs     uint64
}

func (j *Job) newTask(tid int, seed int64) *task {
	r := rng.New(seed)
	return &task{
		input:   j.heap.AllocLines(j.cfg.SplitBytes),
		weights: addrspace.NewArray(j.heap, j.cfg.VocabTerms, 24),
		counts:  addrspace.NewArray(j.heap, j.cfg.VocabTerms/4, 16),
		scores:  addrspace.NewArray(j.heap, uint64(j.cfg.Labels), 8),
		spill:   j.heap.AllocLines(4 << 20),
		j:       j, tid: tid, rnd: r,
		zipf:  workloads.NewZipf(r, 1.05, j.cfg.VocabTerms), // term frequencies
		stack: workloads.StackOf(tid),
	}
}

// SaveState serializes the task's resumable state.
func (t *task) SaveState(w *checkpoint.Writer) {
	w.Tag("mapreduce.task")
	t.rnd.SaveState(w)
	w.U64(t.off)
	w.U64(t.spillPos)
	w.U64(t.docs)
}

// LoadState restores state written by SaveState.
func (t *task) LoadState(rd *checkpoint.Reader) {
	rd.Expect("mapreduce.task")
	t.rnd.LoadState(rd)
	t.off = rd.U64()
	t.spillPos = rd.U64()
	t.docs = rd.U64()
}

// Step processes one document.
func (t *task) Step(e *trace.Emitter) bool {
	j, tid, rnd, zipf, stack := t.j, t.tid, t.rnd, t.zipf, t.stack
	off, spillPos, docs := t.off, t.spillPos, int(t.docs)

	{
		docBytes := j.cfg.DocBytes/2 + rnd.Intn(j.cfg.DocBytes)
		if off+uint64(docBytes) >= j.cfg.SplitBytes {
			off = 0
		}
		// Read the next document from the split through the page cache.
		e.InFunc(j.fnRecordRead, func() {
			workloads.GenericWork(e, 120, stack, 3)
		})
		j.kern.FileRead(e, uint64(tid), off, t.input+off, docBytes)
		j.bank.Exec(e, uint64(docs)*2654435761+uint64(tid), 16, j.cfg.FrameworkInsts, stack, 3)

		// Tokenise: a long sequential scan over the document text.
		nTokens := docBytes / 40
		e.InFunc(j.fnTokenize, func() {
			var v trace.Val = trace.NoVal
			for b := uint64(0); b < uint64(docBytes); b += 64 {
				ld := e.Load(t.input+off+b, 64, trace.NoVal, false)
				// Character scanning, UTF-8 decode, token boundary checks.
				v = e.ALUChain(8, ld)
				e.ALUIndep(10)
				v = e.ALU(v, ld)
				e.Branch(b%128 == 0, v)
			}
		})

		// Per token: weight lookup (random access over the model) and
		// Bayes accumulation (FP).
		e.InFunc(j.fnScore, func() {
			var acc trace.Val = trace.NoVal
			for k := 0; k < nTokens; k++ {
				term := zipf.Next() % j.cfg.VocabTerms
				e.InFunc(j.fnLookup, func() {
					w := e.Load(t.weights.At(term), 8, trace.NoVal, false)
					h := e.Load(t.counts.At(term%t.counts.Len), 8, trace.NoVal, false)
					e.Store(t.counts.At(term%t.counts.Len), 8, h, trace.NoVal)
					acc = e.FP(acc, w)
					workloads.GenericWork(e, 280, t.spill, 3)
				})
				if k%8 == 0 {
					lbl := uint64(k) % uint64(j.cfg.Labels)
					sv := e.Load(t.scores.At(lbl), 8, acc, false)
					e.Store(t.scores.At(lbl), 8, sv, trace.NoVal)
				}
			}
		})

		// Emit the classification result.
		e.InFunc(j.fnEmit, func() {
			var best trace.Val = trace.NoVal
			for l := 0; l < j.cfg.Labels; l++ {
				sv := e.Load(t.scores.At(uint64(l)), 8, trace.NoVal, false)
				best = e.FP(best, sv)
			}
			e.Store(t.spill+spillPos%(4<<20), 64, best, trace.NoVal)
		})
		spillPos += 64

		docs++
		off += uint64(docBytes)

		// Periodic sort-and-spill of the intermediate buffer.
		if docs%64 == 0 {
			e.InFunc(j.fnSpill, func() {
				// Merge-style pass: sequential reads and writes over the
				// spill buffer (prefetcher-friendly).
				var v trace.Val = trace.NoVal
				for b := uint64(0); b < 1<<18; b += 64 {
					ld := e.Load(t.spill+b, 64, trace.NoVal, false)
					v = e.ALUChain(2, ld)
					e.Store(t.spill+(b+2<<20)%(4<<20), 64, v, trace.NoVal)
				}
			})
			e.InFunc(j.fnCombine, func() {
				workloads.GenericWork(e, 600, stack, 2)
			})
			j.kern.FileRead(e, uint64(tid)+100, spillPos, t.spill, 4096)
			j.kern.SchedTick(e, tid)
		}
	}

	t.off, t.spillPos, t.docs = off, spillPos, uint64(docs)
	return true
}
