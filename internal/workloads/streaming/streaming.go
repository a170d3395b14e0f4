// Package streaming models the Media Streaming workload: a Darwin
// Streaming Server-like media server feeding many concurrent clients
// (Section 3.2: Darwin 6.0.3 serving videos of varying duration under a
// Faban client driver, low bit-rate streams to stress the CPU rather
// than the network).
//
// Each server thread round-robins over hundreds of client sessions.
// Per tick it advances the client's cursor through its media file,
// packetises the next chunk into RTP packets, and sends each packet
// through the OS network model. The salient properties the paper
// observes all emerge here: the media library far exceeds the LLC and
// is streamed without reuse (no LLC benefit, highest off-chip bandwidth
// of the suite), hundreds of interleaved streams defeat the L2 stream
// prefetchers (prefetches pollute the L2, Figure 5), and the global
// sent-packet counters produce application-level read-write sharing
// (Section 4.4 calls these out explicitly).
package streaming

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
	// LibraryBytes is the total size of the in-memory media library.
	LibraryBytes uint64
	// Files is the number of distinct media files.
	Files int
	// ClientsPerThread is the number of concurrent sessions per server
	// thread.
	ClientsPerThread int
	// ChunkBytes is the media read per client tick (several packets).
	ChunkBytes int
	// FrameworkInsts is the per-tick server overhead.
	FrameworkInsts int
}

// DefaultConfig returns a 96MB library (8x LLC) of 48 files with 400
// clients per thread.
func DefaultConfig() Config {
	return Config{
		LibraryBytes: 96 << 20, Files: 48, ClientsPerThread: 400,
		ChunkBytes: 4 * 1460, FrameworkInsts: 1500,
	}
}

// Server is the Media Streaming workload instance.
type Server struct {
	cfg  Config
	kern *oskern.Kernel
	heap *addrspace.Heap
	bank *workloads.CodeBank

	fnTick      *trace.Func
	fnPacketize *trace.Func
	fnRTPHeader *trace.Func
	fnRateCtl   *trace.Func

	library   uint64 // base of the media region
	fileBase  []uint64
	fileSize  []uint64
	statsAddr uint64 // global packet counters (shared, read-write)
	sessSeq   uint64
}

// New builds the server and its media library.
func New(cfg Config) *Server {
	if cfg.LibraryBytes == 0 {
		cfg = DefaultConfig()
	}
	code := trace.NewCodeLayout(addrspace.UserCodeBase, addrspace.UserCodeSize)
	s := &Server{cfg: cfg, kern: oskern.New(oskern.DefaultConfig()), heap: addrspace.NewUserHeap()}
	s.bank = workloads.NewCodeBank(code, "darwin", 110, 800)
	s.fnTick = code.Func("session_tick", 600)
	s.fnPacketize = code.Func("packetize", 450)
	s.fnRTPHeader = code.Func("rtp_header", 200)
	s.fnRateCtl = code.Func("rate_control", 350)

	s.library = s.heap.AllocLines(cfg.LibraryBytes)
	per := cfg.LibraryBytes / uint64(cfg.Files)
	for i := 0; i < cfg.Files; i++ {
		s.fileBase = append(s.fileBase, s.library+uint64(i)*per)
		s.fileSize = append(s.fileSize, per)
	}
	s.statsAddr = s.heap.AllocLines(256)
	return s
}

// Start implements workloads.Workload.
func (s *Server) Start(n int, seed int64) []*trace.StepGen {
	gens := make([]*trace.StepGen, n)
	for i := 0; i < n; i++ {
		cfg := workloads.EmitterConfigFor(seed+int64(i)*31337, 0.07)
		gens[i] = trace.NewStepGen(cfg, s.newThread(i, seed+int64(i)))
	}
	return gens
}

// SaveShared serializes the server's shared mutable state: the kernel
// and heap cursors and the global session/packet sequence.
func (s *Server) SaveShared(w *checkpoint.Writer) {
	w.Tag("streaming.shared")
	s.kern.SaveState(w)
	s.heap.SaveState(w)
	w.U64(s.sessSeq)
}

// LoadShared restores state written by SaveShared.
func (s *Server) LoadShared(rd *checkpoint.Reader) {
	rd.Expect("streaming.shared")
	s.kern.LoadState(rd)
	s.heap.LoadState(rd)
	s.sessSeq = rd.U64()
}

type session struct {
	file   int
	offset uint64
	state  uint64 //simlint:ok checkpointcov session struct address, construction-time allocation
	conn   *oskern.Conn
}

// SaveState serializes the session's cursor through its media file.
func (ss *session) SaveState(w *checkpoint.Writer) {
	w.U32(uint32(ss.file))
	w.U64(ss.offset)
	ss.conn.SaveState(w)
}

// LoadState restores state written by SaveState.
func (ss *session) LoadState(rd *checkpoint.Reader) {
	ss.file = int(rd.U32())
	ss.offset = rd.U64()
	ss.conn.LoadState(rd)
}

// sthread is one server thread round-robining over its client sessions;
// each Step is one session tick.
type sthread struct {
	s        *Server   //simlint:ok checkpointcov shared server, checkpointed via SaveShared
	tid      int       //simlint:ok checkpointcov construction-time identity
	rnd      *rng.Rand // session placement + reseeks
	stack    uint64    //simlint:ok checkpointcov construction-time address
	pktBuf   uint64    //simlint:ok checkpointcov construction-time address
	sessions []session
	cur      int
}

func (s *Server) newThread(tid int, seed int64) *sthread {
	r := rng.New(seed)
	th := &sthread{
		s: s, tid: tid, rnd: r,
		stack:  workloads.StackOf(tid),
		pktBuf: s.heap.AllocLines(16 << 10),
	}
	th.sessions = make([]session, s.cfg.ClientsPerThread)
	for i := range th.sessions {
		th.sessions[i] = session{
			file:   r.Intn(len(s.fileBase)),
			offset: uint64(r.Int63n(int64(s.fileSize[0]))) &^ 63,
			state:  s.heap.AllocLines(512),
			conn:   s.kern.OpenConnOn(tid),
		}
	}
	return th
}

// SaveState serializes the thread's resumable state.
func (th *sthread) SaveState(w *checkpoint.Writer) {
	w.Tag("streaming.thread")
	th.rnd.SaveState(w)
	w.U32(uint32(th.cur))
	w.U32(uint32(len(th.sessions)))
	for i := range th.sessions {
		th.sessions[i].SaveState(w)
	}
}

// LoadState restores state written by SaveState.
func (th *sthread) LoadState(rd *checkpoint.Reader) {
	rd.Expect("streaming.thread")
	th.rnd.LoadState(rd)
	th.cur = int(rd.U32())
	n := int(rd.U32())
	if rd.Err() != nil {
		return
	}
	if n != len(th.sessions) {
		rd.Failf("streaming: snapshot has %d sessions, thread has %d", n, len(th.sessions))
		return
	}
	for i := range th.sessions {
		th.sessions[i].LoadState(rd)
	}
}

// Step emits one session tick.
func (th *sthread) Step(e *trace.Emitter) bool {
	s, tid, rnd := th.s, th.tid, th.rnd
	stack, pktBuf := th.stack, th.pktBuf
	sessions := th.sessions

	{
		sess := &sessions[th.cur]
		cur := (th.cur + 1) % len(sessions)
		th.cur = cur

		e.InFunc(s.fnTick, func() {
			st := e.Load(sess.state, 8, trace.NoVal, false)
			workloads.GenericWork(e, 140, sess.state, 3)
			e.Store(sess.state+16, 8, st, trace.NoVal)
		})
		s.bank.Exec(e, sess.state*2654435761+uint64(cur), 14, s.cfg.FrameworkInsts, stack, 3)

		// Rate control decides the burst; occasionally a client seeks or
		// a new client replaces a finished one.
		e.InFunc(s.fnRateCtl, func() {
			v := e.Load(sess.state+64, 8, trace.NoVal, false)
			e.FPChain(6, v)
		})
		if rnd.Intn(512) == 0 {
			sess.file = rnd.Intn(len(s.fileBase))
			sess.offset = uint64(rnd.Int63n(int64(s.fileSize[sess.file]))) &^ 63
		}

		// Packetise the next chunk: stream the media bytes (no reuse),
		// prepend RTP headers, and send each packet via the kernel.
		// Hinted container files interleave hint, audio and video tracks,
		// so one packet's samples come from several short runs at
		// different file offsets — the jumpy pattern that defeats the L2
		// stream prefetchers and turns their fetches into pollution
		// (Figure 5 shows Media Streaming improving when they are off).
		nPkts := (s.cfg.ChunkBytes + 1459) / 1460
		for p := 0; p < nPkts; p++ {
			base := s.fileBase[sess.file] + sess.offset
			fileSpan := s.fileSize[sess.file]
			e.InFunc(s.fnPacketize, func() {
				var hdr trace.Val = trace.NoVal
				written := uint64(0)
				// Hint-track read guides the gather.
				hintOff := (sess.offset / 4) &^ 63
				hdr = e.Load(base+hintOff%fileSpan, 64, hdr, true)
				hdr = e.ALUChain(4, hdr)
				// Samples are gathered one line at a time with in-page
				// jumps over the other tracks' data: too short for the
				// stream detector to lock on, and the adjacent-line
				// buddy is usually another track's data — hardware
				// prefetches around this pattern only pollute the L2
				// (Figure 5 shows streaming improving when they're off).
				// The demux walks two tracks concurrently (audio and
				// video): within each track the next sample's location
				// comes from the previous sample's length field, so two
				// serial chains run side by side (MLP ~2, matching the
				// measured server's modest parallelism).
				chains := [2]trace.Val{hdr, hdr}
				for run := uint64(0); run < 22; run++ {
					runBase := base + (sess.offset+run*5*64)%(fileSpan-256)
					runBase &^= 63
					c := run % 2
					ld := e.Load(runBase, 64, chains[c], true)
					chains[c] = e.ALUChain(3, ld)
					e.Store(pktBuf+64+written%1460, 64, ld, trace.NoVal)
					written += 64
				}
			})
			e.InFunc(s.fnRTPHeader, func() {
				v := e.Load(sess.state+128, 8, trace.NoVal, false)
				v = e.ALUChain(10, v)
				workloads.GenericWork(e, 700, sess.state, 3)
				e.Store(pktBuf, 64, v, trace.NoVal)
				// Global packet counters: the shared-object bottleneck the
				// paper describes (per-thread statistics would avoid it).
				if p == 0 && s.sessSeq%4 == 0 {
					g := e.Load(s.statsAddr, 8, trace.NoVal, false)
					e.Store(s.statsAddr, 8, g, trace.NoVal)
				}
			})
			s.kern.Send(e, sess.conn, pktBuf, 1460)
			// Advance past the whole interleaved region this packet's
			// samples came from (the other tracks' bytes are not
			// revisited by this session).
			sess.offset += 22 * 5 * 64
			if sess.offset+1460 >= s.fileSize[sess.file] {
				sess.offset = 0
			}
		}

		s.sessSeq++
		if s.sessSeq%256 == 0 {
			s.kern.SchedTick(e, tid)
		}
	}
	return true
}
