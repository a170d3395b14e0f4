// customworkload shows how to implement a new workload against the
// framework and characterize it like the paper characterizes
// CloudSuite. The example builds a small in-memory message queue
// (produce/consume over sharded ring buffers with a network front-end)
// and prints its micro-architectural profile next to Web Search's.
//
//	go run ./examples/customworkload
package main

import (
	"fmt"
	"log"

	"cloudsuite"
	"cloudsuite/internal/addrspace"
	"cloudsuite/internal/oskern"
	"cloudsuite/internal/rng"
	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/trace"
	"cloudsuite/internal/workloads"
)

// queueWorkload is a minimal scale-out-style service: producers append
// messages to sharded in-memory rings, consumers drain them, and every
// request arrives and is acknowledged over the simulated network.
type queueWorkload struct {
	kern   *oskern.Kernel
	heap   *addrspace.Heap
	bank   *workloads.CodeBank
	fnProd *trace.Func
	fnCons *trace.Func
	rings  []addrspace.Array // sharded message rings
	cursor []uint64
}

func newQueueWorkload() *queueWorkload {
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	q := &queueWorkload{
		kern: oskern.New(oskern.DefaultConfig()),
		heap: addrspace.NewUserHeap(),
		bank: workloads.NewCodeBank(code, "broker", 80, 700),
	}
	q.fnProd = code.Func("produce", 500)
	q.fnCons = code.Func("consume", 450)
	// 16 shards x 4MB of messages: the data working set exceeds the LLC.
	for i := 0; i < 16; i++ {
		q.rings = append(q.rings, addrspace.NewArray(q.heap, 16<<10, 256))
		q.cursor = append(q.cursor, 0)
	}
	return q
}

func (q *queueWorkload) Name() string           { return "Message Queue" }
func (q *queueWorkload) Class() workloads.Class { return workloads.ScaleOut }
func (q *queueWorkload) Start(n int, seed int64) []*trace.StepGen {
	gens := make([]*trace.StepGen, n)
	for i := 0; i < n; i++ {
		cfg := workloads.EmitterConfigFor(seed+int64(i)*997, 0.08)
		gens[i] = trace.NewStepGen(cfg, q.newThread(i, seed+int64(i)))
	}
	return gens
}

// SaveShared/LoadShared checkpoint the shared state: with these (plus
// the thread SaveState below) a warm image restores by a pure load
// instead of re-running the warmup instruction stream.
func (q *queueWorkload) SaveShared(w *checkpoint.Writer) {
	w.Tag("mq.shared")
	q.kern.SaveState(w)
	q.heap.SaveState(w)
	w.U32(uint32(len(q.cursor)))
	for _, c := range q.cursor {
		w.U64(c)
	}
}

func (q *queueWorkload) LoadShared(rd *checkpoint.Reader) {
	rd.Expect("mq.shared")
	q.kern.LoadState(rd)
	q.heap.LoadState(rd)
	if n := rd.U32(); int(n) != len(q.cursor) {
		rd.Failf("mq: %d shards in image, have %d", n, len(q.cursor))
	}
	cur := make([]uint64, len(q.cursor))
	for i := range cur {
		cur[i] = rd.U64()
	}
	if rd.Err() != nil {
		return
	}
	q.cursor = cur
}

// qthread is one worker's resumable state: everything the request loop
// carries across steps.
type qthread struct {
	q     *queueWorkload //simlint:ok checkpointcov back-pointer to the shared workload, wired at construction
	tid   int            //simlint:ok checkpointcov thread identity, fixed at construction
	rnd   *rng.Rand
	conn  *oskern.Conn
	stack uint64 //simlint:ok checkpointcov derived from tid
	buf   uint64 //simlint:ok checkpointcov construction-time allocation
	reqs  uint64
}

func (q *queueWorkload) newThread(tid int, seed int64) *qthread {
	return &qthread{
		q:     q,
		tid:   tid,
		rnd:   rng.New(seed),
		conn:  q.kern.OpenConnOn(tid),
		stack: workloads.StackOf(tid),
		buf:   q.heap.AllocLines(4096),
	}
}

func (t *qthread) SaveState(w *checkpoint.Writer) {
	w.Tag("mq.thread")
	t.rnd.SaveState(w)
	t.conn.SaveState(w)
	w.U64(t.reqs)
}

func (t *qthread) LoadState(rd *checkpoint.Reader) {
	rd.Expect("mq.thread")
	t.rnd.LoadState(rd)
	t.conn.LoadState(rd)
	t.reqs = rd.U64()
}

// Step serves one queue request.
func (t *qthread) Step(e *trace.Emitter) bool {
	q := t.q
	q.kern.Recv(e, t.conn, t.buf, 256)
	q.bank.Exec(e, t.reqs*2654435761+uint64(t.tid), 14, 2200, t.stack, 3)
	shard := t.rnd.Intn(len(q.rings))
	ring := q.rings[shard]
	slot := q.cursor[shard] % ring.Len
	if t.rnd.Intn(2) == 0 { // produce
		e.InFunc(q.fnProd, func() {
			for off := uint64(0); off < 256; off += 64 {
				v := e.Load(t.buf+off%4096, 64, trace.NoVal, false)
				e.Store(ring.At(slot)+off, 64, v, trace.NoVal)
			}
			q.cursor[shard]++
		})
	} else { // consume
		e.InFunc(q.fnCons, func() {
			var v trace.Val = trace.NoVal
			for off := uint64(0); off < 256; off += 64 {
				v = e.Load(ring.At(slot)+off, 64, v, false)
				e.Store(t.buf+off%4096, 64, v, trace.NoVal)
			}
		})
	}
	q.kern.Send(e, t.conn, t.buf, 256)
	t.reqs++
	if t.reqs%256 == 0 {
		q.kern.SchedTick(e, t.tid)
	}
	return true
}

func profile(name string, m *cloudsuite.Measurement) {
	fmt.Printf("%-16s IPC %.2f  MLP %.2f  stall %4.0f%%  L1-I MPKI %5.1f  OS %4.1f%%  BW %4.1f%%\n",
		name, m.IPC(), m.MLP(), 100*m.StallFrac(), m.L1IMPKIUser(),
		100*float64(m.CommitOS)/float64(m.Commits()), 100*m.DRAMUtilization())
}

func main() {
	opts := cloudsuite.DefaultOptions()
	opts.WarmupInsts = 250_000
	opts.MeasureInsts = 60_000

	// Measure the custom workload through the same methodology.
	mq, err := cloudsuite.Measure(newQueueWorkload(), opts)
	if err != nil {
		log.Fatal(err)
	}
	// And a CloudSuite member for comparison.
	ws, _ := cloudsuite.FindBench("Web Search")
	ref, err := cloudsuite.MeasureBench(ws, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("custom workload characterized with the paper's methodology:")
	profile(mq.BenchName, mq)
	profile(ref.BenchName, ref)
}
