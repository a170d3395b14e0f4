package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cloudsuite/internal/sim/dram"
)

func testSystemConfig(sockets, cores int) SystemConfig {
	cfg := DefaultSystemConfig()
	cfg.Sockets = sockets
	cfg.CoresPerSocket = cores
	// Small caches keep tests fast and force interesting evictions.
	cfg.L1I = Config{SizeBytes: 1 << 10, Assoc: 2, LatencyCycles: 4}
	cfg.L1D = Config{SizeBytes: 1 << 10, Assoc: 2, LatencyCycles: 4}
	cfg.L2 = Config{SizeBytes: 4 << 10, Assoc: 4, LatencyCycles: 11}
	cfg.LLC = Config{SizeBytes: 64 << 10, Assoc: 8, LatencyCycles: 29}
	cfg.DRAM = dram.Config{Channels: 2, AccessCycles: 100, TransferCycles: 10}
	return cfg
}

func TestDataHitLatencies(t *testing.T) {
	s := NewSystem(testSystemConfig(1, 2))
	addr := uint64(0x1000_0000)
	r := s.AccessData(0, addr, false, false, 0)
	if !r.OffCore || !r.L1Miss {
		t.Fatalf("cold access must go off-core: %+v", r)
	}
	r2 := s.AccessData(0, addr, false, false, 1000)
	if r2.L1Miss || r2.OffCore {
		t.Fatalf("second access must hit L1: %+v", r2)
	}
	if got := r2.Done - 1000; got != int64(s.cfg.L1D.LatencyCycles) {
		t.Errorf("L1 hit latency = %d, want %d", got, s.cfg.L1D.LatencyCycles)
	}
}

func TestInstrFetchMissCounters(t *testing.T) {
	s := NewSystem(testSystemConfig(1, 1))
	pc := uint64(0x40_0000)
	fr := s.FetchInstr(0, pc, 0, false)
	if !fr.L1Miss || !fr.OffCore {
		t.Fatalf("cold fetch must miss everywhere: %+v", fr)
	}
	c := s.Ctr(0)
	if c.L1IMissUser != 1 || c.L2IMissUser != 1 {
		t.Errorf("miss counters: L1I=%d L2I=%d, want 1/1", c.L1IMissUser, c.L2IMissUser)
	}
	fr2 := s.FetchInstr(0, pc, 10, false)
	if fr2.L1Miss {
		t.Fatalf("warm fetch must hit L1-I: %+v", fr2)
	}
	// Kernel fetches attribute to OS counters.
	s.FetchInstr(0, pc+4096*16, 20, true)
	if c.L1IMissOS != 1 {
		t.Errorf("kernel fetch miss not attributed to OS: %d", c.L1IMissOS)
	}
}

func TestWriteThenRemoteReadCountsSharedRW(t *testing.T) {
	s := NewSystem(testSystemConfig(1, 2))
	addr := uint64(0x2000_0000)
	// Core 0 writes the line (becomes Modified owner).
	s.AccessData(0, addr, true, false, 0)
	// Core 1 reads it: its L2 misses, the LLC directory shows core 0 as
	// the modified owner -> read-write sharing event.
	s.AccessData(1, addr, false, false, 100)
	c1 := s.Ctr(1)
	if c1.SharedRWHitUser != 1 {
		t.Fatalf("SharedRWHitUser = %d, want 1", c1.SharedRWHitUser)
	}
	// A third read by core 1 hits its own L1 now; no new event.
	s.AccessData(1, addr, false, false, 200)
	if c1.SharedRWHitUser != 1 {
		t.Fatalf("extra sharing event counted: %d", c1.SharedRWHitUser)
	}
}

func TestReadOnlySharingIsNotCounted(t *testing.T) {
	s := NewSystem(testSystemConfig(1, 2))
	addr := uint64(0x2000_0000)
	s.AccessData(0, addr, false, false, 0)   // core 0 reads
	s.AccessData(1, addr, false, false, 100) // core 1 reads
	if got := s.Ctr(1).SharedRWHitUser; got != 0 {
		t.Fatalf("read-only sharing counted as read-write: %d", got)
	}
}

func TestWriteInvalidatesOtherCore(t *testing.T) {
	s := NewSystem(testSystemConfig(1, 2))
	addr := uint64(0x3000_0000)
	s.AccessData(0, addr, false, false, 0) // core 0 caches the line
	s.AccessData(1, addr, true, false, 50) // core 1 writes it
	// Core 0's next read must miss L1 (its copy was invalidated).
	r := s.AccessData(0, addr, false, false, 100)
	if !r.L1Miss {
		t.Fatal("core 0 copy should have been invalidated by core 1's write")
	}
	if got := s.Ctr(0).SharedRWHitUser; got != 1 {
		t.Fatalf("core 0 re-read of modified line: SharedRWHitUser = %d, want 1", got)
	}
}

func TestRemoteSocketHit(t *testing.T) {
	cfg := testSystemConfig(2, 1)
	// Prefetchers off: the test pins the demand-path accounting (the
	// prefetch paths count their own remote hits, tested separately).
	cfg.AdjacentLine, cfg.HWPrefetcher, cfg.DCUStreamer = false, false, false
	s := NewSystem(cfg)
	addr := uint64(0x4000_0000)
	s.AccessData(0, addr, true, false, 0) // socket 0 writes
	// Core 1 lives on socket 1: its LLC misses, snoop finds socket 0.
	s.AccessData(1, addr, false, false, 100)
	c1 := s.Ctr(1)
	if c1.RemoteSocketHit != 1 {
		t.Fatalf("RemoteSocketHit = %d, want 1", c1.RemoteSocketHit)
	}
	if c1.SharedRWHitUser != 1 {
		t.Fatalf("remote modified read must count sharing: %d", c1.SharedRWHitUser)
	}
}

func TestInclusionBackInvalidation(t *testing.T) {
	cfg := testSystemConfig(1, 1)
	cfg.LLC = Config{SizeBytes: 8 * 64, Assoc: 2, LatencyCycles: 29} // 4 sets
	cfg.AdjacentLine, cfg.HWPrefetcher, cfg.DCUStreamer = false, false, false
	s := NewSystem(cfg)
	// Fill one LLC set with two lines, then force an eviction with a third.
	sets := uint64(cfg.LLC.Sets())
	base := uint64(0x5000_0000) >> LineShift
	base -= base % sets // align to set 0
	a0, a1, a2 := base<<LineShift, (base+sets)<<LineShift, (base+2*sets)<<LineShift
	s.AccessData(0, a0, false, false, 0)
	s.AccessData(0, a1, false, false, 10)
	s.AccessData(0, a2, false, false, 20) // evicts a0 from LLC
	// a0 must also have left the private caches (inclusion).
	r := s.AccessData(0, a0, false, false, 100)
	if !r.OffCore {
		t.Fatal("inclusion violated: evicted LLC line still in private cache")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg := testSystemConfig(1, 1)
	cfg.LLC = Config{SizeBytes: 8 * 64, Assoc: 2, LatencyCycles: 29}
	cfg.AdjacentLine, cfg.HWPrefetcher, cfg.DCUStreamer = false, false, false
	s := NewSystem(cfg)
	sets := uint64(cfg.LLC.Sets())
	base := uint64(0x5000_0000) >> LineShift
	base -= base % sets
	a0, a1, a2 := base<<LineShift, (base+sets)<<LineShift, (base+2*sets)<<LineShift
	s.AccessData(0, a0, true, false, 0) // dirty
	s.AccessData(0, a1, false, false, 10)
	s.AccessData(0, a2, false, false, 20) // evicts dirty a0
	if got := s.Ctr(0).OffchipWriteback; got != LineBytes {
		t.Fatalf("OffchipWriteback = %d, want %d", got, LineBytes)
	}
	// Three line fills and the one writeback each occupy a channel.
	if got, want := s.DRAMBusyCycles(), uint64(4*cfg.DRAM.TransferCycles); got != want {
		t.Fatalf("DRAM busy cycles = %d, want %d (three reads, one writeback)", got, want)
	}
}

func TestAdjacentLinePrefetch(t *testing.T) {
	cfg := testSystemConfig(1, 1)
	cfg.AdjacentLine = true
	cfg.HWPrefetcher, cfg.DCUStreamer = false, false
	s := NewSystem(cfg)
	addr := uint64(0x6000_0000) // line-pair aligned
	s.AccessData(0, addr, false, false, 0)
	// The buddy line should now be an L2 hit (prefetched).
	r := s.AccessData(0, addr^LineBytes, false, false, 100)
	if r.OffCore {
		t.Fatal("adjacent line was not prefetched into L2")
	}
	if got := s.Ctr(0).PrefIssued; got == 0 {
		t.Fatal("no prefetch recorded")
	}
	if got := s.Ctr(0).PrefUseful; got != 1 {
		t.Fatalf("PrefUseful = %d, want 1", got)
	}
}

func TestStridePrefetcherCatchesStreams(t *testing.T) {
	cfg := testSystemConfig(1, 1)
	cfg.AdjacentLine, cfg.DCUStreamer = false, false
	cfg.HWPrefetcher = true
	s := NewSystem(cfg)
	base := uint64(0x7000_0000)
	offcore := 0
	for i := uint64(0); i < 30; i++ {
		r := s.AccessData(0, base+i*LineBytes, false, false, int64(i*50))
		if r.OffCore {
			offcore++
		}
	}
	// With a working stream prefetcher most of the 30 sequential lines
	// should be covered after the ramp-up.
	if offcore > 12 {
		t.Fatalf("stream prefetcher ineffective: %d/30 accesses went off-core", offcore)
	}
}

func TestPrefetchersCanBeDisabled(t *testing.T) {
	cfg := testSystemConfig(1, 1)
	cfg.AdjacentLine, cfg.HWPrefetcher, cfg.DCUStreamer = false, false, false
	s := NewSystem(cfg)
	base := uint64(0x7000_0000)
	for i := uint64(0); i < 30; i++ {
		s.AccessData(0, base+i*LineBytes, false, false, int64(i*50))
	}
	if got := s.Ctr(0).PrefIssued; got != 0 {
		t.Fatalf("prefetches issued while disabled: %d", got)
	}
}

// noPrefetchConfig returns a multi-socket test config with every
// prefetcher disabled, so tests observe demand traffic alone.
func noPrefetchConfig(sockets, cores int) SystemConfig {
	cfg := testSystemConfig(sockets, cores)
	cfg.AdjacentLine, cfg.HWPrefetcher, cfg.DCUStreamer = false, false, false
	cfg.IPrefetch = IPrefNone
	return cfg
}

// Remote instruction fetches must keep the instruction flag on the
// local LLC fill, exactly like the off-chip path.
func TestRemoteInstrFetchKeepsInstrFlag(t *testing.T) {
	s := NewSystem(noPrefetchConfig(2, 1))
	s.EnableInvariantChecks(1)
	pc := uint64(0x40_0000)
	s.FetchInstr(0, pc, 0, false) // socket 0 caches the line
	fr := s.FetchInstr(1, pc, 100, false)
	if !fr.OffCore {
		t.Fatalf("remote fetch should miss the core: %+v", fr)
	}
	if got := s.Ctr(1).RemoteSocketHit; got != 1 {
		t.Fatalf("RemoteSocketHit = %d, want 1", got)
	}
	l := s.llcs[1].peek(pc >> LineShift)
	if l == nil {
		t.Fatal("remote instruction fetch did not fill the local LLC")
	}
	if l.flags&flagInstr == 0 {
		t.Fatal("remote instruction fill dropped flagInstr")
	}
}

// A read serviced by a remote Modified line must demote the owner's
// private copies: the owner's next store has to re-claim exclusivity
// through the directory, invalidating the reader and producing the
// read-write sharing events the Figure-6 methodology counts.
func TestRemoteDowngradeDemotesOwnerPrivates(t *testing.T) {
	s := NewSystem(noPrefetchConfig(2, 1))
	s.EnableInvariantChecks(1)
	addr := uint64(0x2000_0000)
	line := addr >> LineShift
	s.AccessData(0, addr, true, false, 0)    // core 0 (socket 0) owns Modified
	s.AccessData(1, addr, false, false, 100) // core 1 (socket 1) reads: downgrade
	if l := s.cores[0].l1d.peek(line); l == nil || l.flags&flagExcl != 0 {
		t.Fatal("owner's L1-D copy kept write permission across a remote read")
	}
	// The owner writes again: without its stale flagExcl it must go
	// through the directory and invalidate the remote reader.
	s.AccessData(0, addr, true, false, 200)
	if s.llcs[1].Contains(line) {
		t.Fatal("re-claimed write left a stale copy in the remote LLC")
	}
	r := s.AccessData(1, addr, false, false, 300)
	if !r.OffCore {
		t.Fatal("reader's stale private copy survived the owner's write")
	}
	if got := s.Ctr(1).SharedRWHitUser; got != 2 {
		t.Fatalf("SharedRWHitUser = %d, want 2 (one per read of a remotely-modified line)", got)
	}
}

// Instruction prefetches must snoop the other sockets: fetching the
// line straight from memory would leave an incoherent duplicate of a
// remotely-modified line.
func TestPrefetchInstrSnoopsRemoteSocket(t *testing.T) {
	s := NewSystem(noPrefetchConfig(2, 1))
	s.EnableInvariantChecks(1)
	addr := uint64(0x2000_0000)
	line := addr >> LineShift
	s.AccessData(0, addr, true, false, 0) // socket 0 holds the line Modified
	s.prefetchInstr(1, line, false, 100)
	if got := s.Ctr(1).RemoteSocketHit; got != 1 {
		t.Fatalf("instruction prefetch RemoteSocketHit = %d, want 1", got)
	}
	if rl := s.llcs[0].peek(line); rl == nil || rl.owner >= 0 {
		t.Fatal("remote owner not downgraded by instruction prefetch")
	}
	if !s.llcs[1].Contains(line) {
		t.Fatal("instruction prefetch did not fill the local LLC")
	}
	if c := s.Ctr(1); c.DRAMReadLocal+c.DRAMReadRemote != 0 {
		t.Fatal("prefetch serviced remotely must not also read DRAM")
	}
	// Only socket 0's write miss reached a memory controller.
	if got := s.DRAMBusyCycles(); got != uint64(testSystemConfig(2, 1).DRAM.TransferCycles) {
		t.Fatalf("DRAM busy cycles = %d, want one transfer", got)
	}
}

// TestStreamPrefetchOfMissingLineFillsOnce: on an L1-I miss, a stream
// I-prefetcher whose successor list names the missing line itself
// prefetches that line into the L1-I ahead of the demand fill, so the
// demand fill must find it there (fillL1I probes first) instead of
// filling a second way with the same line.
func TestStreamPrefetchOfMissingLineFillsOnce(t *testing.T) {
	cfg := testSystemConfig(1, 1)
	cfg.IPrefetch = IPrefStream
	s := NewSystem(cfg)
	x := uint64(0x4000_0000) >> LineShift
	// The sixth miss records x's window: x -> [x+1, x, x+2, x+3]. The
	// successors lie in other L1-I sets, so x's set keeps a free way.
	for _, l := range []uint64{x, x + 1, x, x + 2, x + 3, x + 4} {
		s.cores[0].streamI.OnMiss(l)
	}
	if r := s.FetchInstr(0, x<<LineShift, 0, false); !r.L1Miss {
		t.Fatal("the first fetch of the line hit the L1-I")
	}
	if s.Ctr(0).PrefIssued == 0 {
		t.Fatal("the miss issued no stream prefetch")
	}
	ways := 0
	for _, l := range s.cores[0].l1i.lines {
		if l.tag == x+1 {
			ways++
		}
	}
	if ways != 1 {
		t.Fatalf("the L1-I holds the fetched line in %d ways, want 1", ways)
	}
}

// L2 prefetches serviced by the other socket count as remote hits,
// like every other remotely-serviced request.
func TestPrefetchL2RemoteHitAccounting(t *testing.T) {
	s := NewSystem(noPrefetchConfig(2, 1))
	s.EnableInvariantChecks(1)
	addr := uint64(0x2000_0000)
	line := addr >> LineShift
	s.AccessData(0, addr, false, false, 0)
	s.prefetchL2(1, line, false, 100)
	if got := s.Ctr(1).RemoteSocketHit; got != 1 {
		t.Fatalf("L2 prefetch RemoteSocketHit = %d, want 1", got)
	}
	if !s.cores[1].l2.Contains(line) {
		t.Fatal("prefetch did not fill the requesting L2")
	}
}

// A write that hits the local LLC must still invalidate copies the
// other socket picked up earlier: exclusivity is chip-wide, not
// socket-wide.
func TestCrossSocketWriteHitInvalidatesRemoteCopies(t *testing.T) {
	s := NewSystem(noPrefetchConfig(2, 2))
	s.EnableInvariantChecks(1)
	addr := uint64(0x3000_0000)
	line := addr >> LineShift
	s.AccessData(0, addr, false, false, 0)   // socket 0 reads
	s.AccessData(2, addr, false, false, 100) // socket 1 reads (both LLCs share)
	if !s.llcs[0].Contains(line) || !s.llcs[1].Contains(line) {
		t.Fatal("read sharing should replicate the line in both LLCs")
	}
	s.AccessData(0, addr, true, false, 200) // local LLC hit, write
	if s.llcs[1].Contains(line) {
		t.Fatal("write hit in the local LLC left a stale remote copy")
	}
	r := s.AccessData(2, addr, false, false, 300)
	if !r.OffCore {
		t.Fatal("remote reader still had a private copy after the write")
	}
	if got := s.Ctr(2).SharedRWHitUser; got != 1 {
		t.Fatalf("re-read of the written line: SharedRWHitUser = %d, want 1", got)
	}
}

// Cross-socket write misses invalidate the remote holder entirely.
func TestCrossSocketWriteMissInvalidates(t *testing.T) {
	s := NewSystem(noPrefetchConfig(2, 1))
	s.EnableInvariantChecks(1)
	addr := uint64(0x3000_0000)
	line := addr >> LineShift
	s.AccessData(0, addr, true, false, 0)  // socket 0 Modified
	s.AccessData(1, addr, true, false, 50) // socket 1 write miss: steal
	if s.llcs[0].Contains(line) {
		t.Fatal("remote write did not invalidate the previous socket's copy")
	}
	if l := s.llcs[1].peek(line); l == nil || l.owner != 1 {
		t.Fatal("stealing write did not take ownership in its own LLC")
	}
	if got := s.Ctr(1).SharedRWHitUser; got != 1 {
		t.Fatalf("write steal of a modified line: SharedRWHitUser = %d, want 1", got)
	}
}

// Each socket owns a memory controller; lines interleave across them
// by page, and cross-socket fetches pay the QPI latency on top of the
// DRAM access.
func TestPerSocketDRAMRouting(t *testing.T) {
	cfg := noPrefetchConfig(2, 1)
	cfg.RemoteMemCycles = 70
	s := NewSystem(cfg)
	// One full page per socket: page 0 is socket 0's, page 1 socket 1's.
	page0 := uint64(0)
	page1 := uint64(4096)
	rl := s.AccessData(0, page0, false, false, 0)
	rr := s.AccessData(0, page1, false, false, 0)
	// One transfer on each socket's controller.
	if b0, b1 := s.mems[0].BusyCycles(), s.mems[1].BusyCycles(); b0 != b1 || b0 != uint64(cfg.DRAM.TransferCycles) {
		t.Fatalf("busy cycles routed %d/%d, want one transfer each", b0, b1)
	}
	if got := rr.Done - rl.Done; got != 70 {
		t.Fatalf("remote DRAM penalty = %d cycles, want 70", got)
	}
	c := s.Ctr(0)
	if c.DRAMReadLocal != 1 || c.DRAMReadRemote != 1 {
		t.Fatalf("local/remote read counts = %d/%d, want 1/1", c.DRAMReadLocal, c.DRAMReadRemote)
	}
}

// Property: the directory never reports an owner that is not also a
// sharer, and repeated random traffic never corrupts hit/miss accounting
// (hits+misses == accesses).
func TestQuickSystemAccounting(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSystem(testSystemConfig(2, 2))
		s.EnableInvariantChecks(3)
		for i := 0; i < 3000; i++ {
			core := rng.Intn(4)
			addr := uint64(0x1000_0000) + uint64(rng.Intn(4096))*LineBytes
			s.AccessData(core, addr, rng.Intn(4) == 0, rng.Intn(8) == 0, int64(i*10))
		}
		var access, hit, miss uint64
		for c := 0; c < 4; c++ {
			ctr := s.Ctr(c)
			access += ctr.LLCAccess
			hit += ctr.LLCHit
			miss += ctr.LLCMiss
		}
		return access == hit+miss
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionedLLCInstructionLatency(t *testing.T) {
	cfg := testSystemConfig(1, 1)
	cfg.LLCInstrLatencyCycles = 9
	s := NewSystem(cfg)
	pc := uint64(0x40_0000)
	s.FetchInstr(0, pc, 0, false) // fill LLC (and private caches)
	// Evict from the private caches only by invalidating them directly.
	s.cores[0].l1i.invalidate(pc >> LineShift)
	s.cores[0].l2.invalidate(pc >> LineShift)
	fr := s.FetchInstr(0, pc, 1000, false)
	if got := fr.Done - 1000; got != 9 {
		t.Fatalf("instruction LLC hit latency = %d, want replicated 9", got)
	}
	// Data accesses keep the uniform latency.
	addr := uint64(0x5000_0000)
	s.AccessData(0, addr, false, false, 2000)
	s.cores[0].l1d.invalidate(addr >> LineShift)
	s.cores[0].l2.invalidate(addr >> LineShift)
	r := s.AccessData(0, addr, false, false, 3000)
	if got := r.Done - 3000; got != int64(cfg.LLC.LatencyCycles) {
		t.Fatalf("data LLC hit latency = %d, want %d", got, cfg.LLC.LatencyCycles)
	}
}

// Property: inclusion — any line present in a private cache must also
// be present in its socket's LLC, under arbitrary mixed traffic.
func TestQuickInclusionInvariant(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSystem(testSystemConfig(1, 2))
		for i := 0; i < 4000; i++ {
			core := rng.Intn(2)
			addr := uint64(0x1000_0000) + uint64(rng.Intn(2048))*LineBytes
			if rng.Intn(3) == 0 {
				s.FetchInstr(core, addr, int64(i*10), rng.Intn(6) == 0)
			} else {
				s.AccessData(core, addr, rng.Intn(4) == 0, rng.Intn(8) == 0, int64(i*10))
			}
		}
		for c := 0; c < 2; c++ {
			cc := &s.cores[c]
			for _, pc := range []*Cache{cc.l1i, cc.l1d, cc.l2} {
				for li := range pc.lines {
					if !pc.lines[li].valid() {
						continue
					}
					la := pc.lines[li].tag - 1
					if !s.llcs[0].Contains(la) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: the LLC directory's owner, when set, is always listed as a
// sharer of the line.
func TestQuickOwnerIsSharer(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSystem(testSystemConfig(1, 4))
		for i := 0; i < 4000; i++ {
			core := rng.Intn(4)
			addr := uint64(0x2000_0000) + uint64(rng.Intn(1024))*LineBytes
			s.AccessData(core, addr, rng.Intn(2) == 0, false, int64(i*10))
		}
		for li := range s.llcs[0].lines {
			l := &s.llcs[0].lines[li]
			if !l.valid() || l.owner < 0 {
				continue
			}
			if !s.llcs[0].sharers(li).contains(int(l.owner)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// On a 3+ socket machine a dirty copy can coexist with clean replicas
// on other sockets; the sharing test must consider every remote holder,
// not just the first socket probed.
func TestThreeSocketSharingSeesDirtyReplica(t *testing.T) {
	s := NewSystem(noPrefetchConfig(3, 1))
	s.EnableInvariantChecks(1)
	addr := uint64(0x2000_0000)
	// Socket 1 writes, then reads back so the dirty (unowned after the
	// downgrade below) copy lives in LLC 1; socket 0 picks up a clean
	// replica.
	s.AccessData(1, addr, true, false, 0)
	s.AccessData(0, addr, false, false, 100) // downgrade: LLC1 dirty, LLC0 clean
	if got := s.Ctr(0).SharedRWHitUser; got != 1 {
		t.Fatalf("first remote read: SharedRWHitUser = %d, want 1", got)
	}
	// Socket 2 reads: the snoop finds the clean replica in LLC 0 first,
	// but the line is still dirty in LLC 1 — a sharing event.
	s.AccessData(2, addr, false, false, 200)
	if got := s.Ctr(2).SharedRWHitUser; got != 1 {
		t.Fatalf("read with clean+dirty replicas: SharedRWHitUser = %d, want 1", got)
	}
	if got := s.Ctr(2).RemoteSocketHit; got != 1 {
		t.Fatalf("RemoteSocketHit = %d, want 1 per access", got)
	}
}

// A prefetch that hits the local LLC on a line another core holds
// Modified is a read like any other: it must downgrade the owner, or
// the owner's retained write permission and the prefetched copy go
// incoherent and the subsequent sharing events are lost.
func TestPrefetchLocalHitDowngradesOwner(t *testing.T) {
	s := NewSystem(noPrefetchConfig(1, 2))
	s.EnableInvariantChecks(1)
	addr := uint64(0x2000_0000)
	line := addr >> LineShift
	s.AccessData(0, addr, true, false, 0) // core 0 owns Modified
	s.prefetchL2(1, line, false, 100)     // core 1 prefetches the line
	if l := s.llcs[0].peek(line); l == nil || l.owner >= 0 {
		t.Fatal("prefetch hit did not downgrade the Modified owner")
	}
	// The owner's next store goes through the directory and invalidates
	// the prefetched copy; core 1's re-read records the sharing event.
	s.AccessData(0, addr, true, false, 200)
	if s.cores[1].l2.Contains(line) {
		t.Fatal("owner's re-claimed write left a stale prefetched copy")
	}
	s.AccessData(1, addr, false, false, 300)
	if got := s.Ctr(1).SharedRWHitUser; got != 1 {
		t.Fatalf("SharedRWHitUser = %d, want 1", got)
	}
}

// An instruction fetch of a line another core holds Modified downgrades
// the owner (coherence) without counting a data-sharing event.
func TestInstrFetchDowngradesOwnerWithoutSharingCount(t *testing.T) {
	s := NewSystem(noPrefetchConfig(1, 2))
	s.EnableInvariantChecks(1)
	addr := uint64(0x2000_0000)
	line := addr >> LineShift
	s.AccessData(0, addr, true, false, 0) // core 0 owns Modified
	s.FetchInstr(1, addr, 100, false)     // core 1 fetches it as code
	if l := s.llcs[0].peek(line); l == nil || l.owner >= 0 {
		t.Fatal("instruction fetch did not downgrade the Modified owner")
	}
	if got := s.Ctr(1).SharedRWHitUser + s.Ctr(1).SharedRWHitOS; got != 0 {
		t.Fatalf("instruction fetch counted as data sharing: %d", got)
	}
}

// Write-after-remote-read ping-pong must count sharing on the write-hit
// path (claimOwnership) like it does on the write-miss snoop path: the
// dirty remote copy identifies the line as remotely modified even after
// the owner was downgraded.
func TestWriteHitAfterRemoteReadCountsSharing(t *testing.T) {
	s := NewSystem(noPrefetchConfig(2, 1))
	s.EnableInvariantChecks(1)
	addr := uint64(0x2000_0000)
	s.AccessData(0, addr, true, false, 0)    // core 0 (socket 0) owns Modified
	s.AccessData(1, addr, false, false, 100) // core 1 reads: downgrade, LLC0 dirty
	if got := s.Ctr(1).SharedRWHitUser; got != 1 {
		t.Fatalf("remote read: SharedRWHitUser = %d, want 1", got)
	}
	// Core 1 writes its (clean, still-private) copy: the L1-D hit claims
	// ownership and invalidates socket 0's dirty copy — a sharing event.
	s.AccessData(1, addr, true, false, 200)
	if got := s.Ctr(1).SharedRWHitUser; got != 2 {
		t.Fatalf("write hit on remotely-modified line: SharedRWHitUser = %d, want 2", got)
	}
	if s.llcs[0].Contains(addr >> LineShift) {
		t.Fatal("write hit left the stale dirty copy in the remote LLC")
	}
}

// TestSharerWordEdges tracks sharers on both sides of each 64-bit word
// boundary of a multi-word directory, then checks that a write claims
// the line from every other sharer and that an LLC eviction
// back-invalidates every private copy.
func TestSharerWordEdges(t *testing.T) {
	for _, tc := range []struct {
		cores int
		edge  []int
	}{
		{65, []int{63, 64}},
		{129, []int{127, 128}},
		{256, []int{0, 191, 192, 255}},
	} {
		cfg := noPrefetchConfig(1, tc.cores)
		s := NewSystem(cfg)
		s.EnableInvariantChecks(1)
		llc := s.llcs[0]
		const line = 0x4000
		addr := uint64(line) << LineShift
		for _, c := range tc.edge {
			s.AccessData(c, addr, false, false, 0)
		}
		w := llc.probe(line, false)
		if sh := llc.sharers(w); sh.count() != len(tc.edge) {
			t.Fatalf("%d cores: sharers %v, want cores %v", tc.cores, sh.w, tc.edge)
		}
		for _, c := range tc.edge {
			if !llc.sharers(w).contains(c) {
				t.Fatalf("%d cores: core %d missing from sharers", tc.cores, c)
			}
		}

		// The highest edge core writes: every other copy goes.
		writer := tc.edge[len(tc.edge)-1]
		s.AccessData(writer, addr, true, false, 10)
		if !llc.sharers(w).only(writer) || llc.lines[w].owner != int16(writer) {
			t.Fatalf("%d cores: write by core %d left sharers %v owner %d",
				tc.cores, writer, llc.sharers(w).w, llc.lines[w].owner)
		}
		for _, c := range tc.edge[:len(tc.edge)-1] {
			if s.cores[c].l1d.Contains(line) || s.cores[c].l2.Contains(line) {
				t.Fatalf("%d cores: core %d kept a copy after core %d's write", tc.cores, c, writer)
			}
		}

		// Every edge core reads it back, then another core floods the
		// line's LLC set: the eviction must reach every private copy.
		for _, c := range tc.edge {
			s.AccessData(c, addr, false, false, 20)
		}
		sets := uint64(cfg.LLC.Sets())
		for k := uint64(1); k <= uint64(cfg.LLC.Assoc); k++ {
			s.AccessData(1, (line+k*sets)<<LineShift, false, false, 30)
		}
		if llc.Contains(line) {
			t.Fatalf("%d cores: flooding the set did not evict the line", tc.cores)
		}
		for _, c := range tc.edge {
			if s.cores[c].l1d.Contains(line) || s.cores[c].l2.Contains(line) {
				t.Fatalf("%d cores: core %d kept a copy after the LLC evicted the line", tc.cores, c)
			}
		}
	}
}
