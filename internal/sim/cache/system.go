package cache

import (
	"fmt"

	"cloudsuite/internal/sim/counters"
	"cloudsuite/internal/sim/dram"
	"cloudsuite/internal/sim/prefetch"
	"cloudsuite/internal/sim/topo"
)

// SystemConfig describes the full memory system of the simulated
// machine: per-core private caches, one shared LLC per socket, the
// socket interconnect, the prefetcher enable bits, and the DRAM
// controller.
type SystemConfig struct {
	// Sockets x CoresPerSocket is the machine's core grid. The LLC
	// directory tracks private copies in a per-line sharer vector wide
	// enough for MaxCores cores; Validate rejects grids beyond it.
	Sockets        int
	CoresPerSocket int

	L1I Config
	L1D Config
	L2  Config
	LLC Config

	// Prefetcher enables, named after the BIOS knobs of the measured
	// machine (Figure 5 toggles these).
	AdjacentLine bool
	HWPrefetcher bool
	DCUStreamer  bool

	// IPrefetch selects the instruction prefetcher (Section 4.1's
	// implications experiment): IPrefNone, IPrefNextLine (the
	// conventional front-end), or IPrefStream (a temporal-stream
	// instruction prefetcher).
	IPrefetch IPrefMode

	// LLCInstrLatencyCycles, when non-zero, is the latency of LLC
	// instruction accesses, modelling the partitioned organisation the
	// paper's Section 4.1 implications describe: instruction blocks
	// replicated in LLC slices close to the requesting cores (in the
	// spirit of Reactive NUCA), so instruction fetches avoid the full
	// uniform LLC latency. Data accesses are unaffected.
	LLCInstrLatencyCycles int

	// RemoteHitCycles is the latency of servicing a miss from a
	// one-hop remote socket's cache (interconnect hop + remote LLC).
	RemoteHitCycles int

	// RemoteMemCycles is the extra latency of a line fetch serviced by
	// a one-hop remote socket's memory controller (the interconnect hop
	// to remote DRAM). Each socket owns its own controller; physical
	// pages are interleaved across sockets at 4KB granularity.
	RemoteMemCycles int

	// Interconnect selects the point-to-point socket topology. The
	// zero value is topo.FullMesh — every remote socket one hop away —
	// which on one- and two-socket machines is exactly the original
	// QPI model.
	Interconnect topo.Kind

	// HopCycles is the extra latency per interconnect hop beyond the
	// first on a multi-hop route (forwarding through an intermediate
	// socket: link traversal plus router). The first hop is already
	// priced into RemoteHitCycles / RemoteMemCycles, so this only
	// matters past two sockets on non-mesh topologies.
	HopCycles int

	// DRAM configures one socket's memory controller. A multi-socket
	// system instantiates one controller per socket, so aggregate
	// channel count and bandwidth scale with the socket count, as on
	// the measured machine.
	DRAM dram.Config
}

// IPrefMode selects the instruction-prefetch model.
type IPrefMode int

// Instruction prefetcher choices.
const (
	// IPrefNextLine is the conventional sequential prefetcher present
	// in the measured machine.
	IPrefNextLine IPrefMode = iota
	// IPrefNone disables instruction prefetching.
	IPrefNone
	// IPrefStream replays recorded instruction-miss streams, the kind
	// of predictor the paper argues scale-out workloads need.
	IPrefStream
)

// TotalCores returns the number of cores in the system.
func (c SystemConfig) TotalCores() int { return c.Sockets * c.CoresPerSocket }

// Validate checks that the core grid and interconnect describe a
// machine the directory can track. It replaces the old blanket
// "32-core limit" rejection with real topology validation.
func (c SystemConfig) Validate() error {
	if c.Sockets <= 0 {
		return fmt.Errorf("cache: %d sockets; a machine needs at least one", c.Sockets)
	}
	if c.CoresPerSocket <= 0 {
		return fmt.Errorf("cache: %d cores per socket; a socket needs at least one core", c.CoresPerSocket)
	}
	if n := c.TotalCores(); n > MaxCores {
		return fmt.Errorf("cache: %d cores (%d sockets x %d) exceed the %d-core directory sharer vector",
			n, c.Sockets, c.CoresPerSocket, MaxCores)
	}
	if !c.Interconnect.Valid() {
		return fmt.Errorf("cache: unknown interconnect %s", c.Interconnect)
	}
	if c.HopCycles < 0 {
		return fmt.Errorf("cache: negative HopCycles %d", c.HopCycles)
	}
	return nil
}

// DefaultSystemConfig returns the Table-1 memory system: one socket
// exposed with six cores (experiments enable four), 32KB L1s, 256KB L2,
// 12MB LLC, all prefetchers on, three DDR3 channels.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		Sockets:         1,
		CoresPerSocket:  6,
		L1I:             Config{SizeBytes: 32 << 10, Assoc: 4, LatencyCycles: 4},
		L1D:             Config{SizeBytes: 32 << 10, Assoc: 8, LatencyCycles: 4},
		L2:              Config{SizeBytes: 256 << 10, Assoc: 8, LatencyCycles: 11},
		LLC:             Config{SizeBytes: 12 << 20, Assoc: 16, LatencyCycles: 29},
		AdjacentLine:    true,
		HWPrefetcher:    true,
		DCUStreamer:     true,
		RemoteHitCycles: 110,
		RemoteMemCycles: 90,
		// An extra forwarding hop re-pays roughly the link share of the
		// 110-cycle remote hit (110 = 29 LLC + ~80 link and snoop).
		HopCycles: 70,
		DRAM:      dram.DefaultConfig(),
	}
}

type coreCaches struct {
	l1i     *Cache
	l1d     *Cache
	l2      *Cache
	stride  *prefetch.Stride
	dcu     prefetch.DCU
	nextI   prefetch.NextLineI
	streamI *prefetch.StreamI
}

// System is the memory system instance. It is driven single-threaded by
// the simulator's cycle loop.
type System struct {
	cfg   SystemConfig
	cores []coreCaches
	llcs  []*Cache
	mems  []*dram.Controller // one controller per socket
	ctrs  []*counters.Counters
	//simlint:ok checkpointcov precomputed from cfg's topology at construction, identical for equal configs
	hops [][]int // pairwise socket hop distances (Interconnect)

	// checkEvery, when positive, runs CheckInvariants after every n-th
	// access (see invariants.go).
	checkEvery int //simlint:ok checkpointcov observer configuration armed per run, never part of warm state
	accesses   uint64
}

// NewSystem builds the memory system.
func NewSystem(cfg SystemConfig) *System {
	n := cfg.TotalCores()
	s := &System{cfg: cfg}
	s.mems = make([]*dram.Controller, cfg.Sockets)
	for i := range s.mems {
		s.mems[i] = dram.New(cfg.DRAM)
	}
	s.cores = make([]coreCaches, n)
	s.ctrs = make([]*counters.Counters, n)
	for i := range s.cores {
		s.cores[i] = coreCaches{
			l1i:    New(cfg.L1I),
			l1d:    New(cfg.L1D),
			l2:     New(cfg.L2),
			stride: prefetch.NewStride(16),
		}
		if cfg.IPrefetch == IPrefStream {
			s.cores[i].streamI = prefetch.NewStreamI(8192)
		}
		s.ctrs[i] = &counters.Counters{DRAMChannels: uint64(s.DRAMTotalChannels())}
	}
	s.llcs = make([]*Cache, cfg.Sockets)
	for i := range s.llcs {
		s.llcs[i] = newDirectory(cfg.LLC, n)
	}
	s.hops = make([][]int, cfg.Sockets)
	for a := range s.hops {
		s.hops[a] = make([]int, cfg.Sockets)
		for b := range s.hops[a] {
			s.hops[a][b] = topo.Hops(cfg.Interconnect, a, b, cfg.Sockets)
		}
	}
	return s
}

// hopPenalty converts a hop distance into the extra cycles beyond the
// one-hop latencies already priced into the remote costs.
func (s *System) hopPenalty(hops int) int64 {
	if hops <= 1 {
		return 0
	}
	return int64(hops-1) * int64(s.cfg.HopCycles)
}

// Config returns the system configuration.
func (s *System) Config() SystemConfig { return s.cfg }

// Ctr returns the counter block events triggered by core are charged to.
func (s *System) Ctr(core int) *counters.Counters { return s.ctrs[core] }

// DRAM exposes socket 0's memory controller (the whole machine's on a
// single-socket system).
func (s *System) DRAM() *dram.Controller { return s.mems[0] }

// DRAMOf exposes one socket's memory controller.
func (s *System) DRAMOf(socket int) *dram.Controller { return s.mems[socket] }

// DRAMTotalChannels counts memory channels across all sockets.
func (s *System) DRAMTotalChannels() int {
	return s.mems[0].Config().Channels * len(s.mems)
}

// DRAMBusyCycles sums channel busy cycles over every socket's
// controller.
func (s *System) DRAMBusyCycles() uint64 {
	var t uint64
	for _, m := range s.mems {
		t += m.BusyCycles()
	}
	return t
}

// DRAMSetSpanStart marks the beginning of a measurement window on every
// controller.
func (s *System) DRAMSetSpanStart(cycle int64) {
	for _, m := range s.mems {
		m.SetSpanStart(cycle)
	}
}

// DRAMResetQueues discards channel backlog on every controller.
func (s *System) DRAMResetQueues(cycle int64) {
	for _, m := range s.mems {
		m.ResetQueues(cycle)
	}
}

func (s *System) socketOf(core int) int { return core / s.cfg.CoresPerSocket }

func (s *System) llcOf(core int) *Cache { return s.llcs[s.socketOf(core)] }

// homeSocket maps a line to the socket whose memory controller owns it:
// physical pages (64 lines) interleave across sockets.
func (s *System) homeSocket(lineAddr uint64) int {
	return int((lineAddr >> 6) % uint64(len(s.mems)))
}

// memRead fetches a line from its home socket's memory controller,
// charging the interconnect route when the requesting core is on
// another socket: the first hop at RemoteMemCycles, each further hop
// at HopCycles.
func (s *System) memRead(core int, lineAddr uint64, now int64) int64 {
	home := s.homeSocket(lineAddr)
	done := s.mems[home].Read(lineAddr, now)
	if my := s.socketOf(core); home == my {
		s.ctrs[core].DRAMReadLocal++
	} else {
		s.ctrs[core].DRAMReadRemote++
		done += int64(s.cfg.RemoteMemCycles) + s.hopPenalty(s.hops[my][home])
	}
	return done
}

// memWrite posts a line writeback to its home socket's controller.
func (s *System) memWrite(lineAddr uint64, now int64) {
	s.mems[s.homeSocket(lineAddr)].Write(lineAddr, now)
}

// --- fill helpers -----------------------------------------------------

// fillLLC inserts lineAddr into core's socket LLC, handling inclusive
// back-invalidation and dirty writeback of the victim, and returns the
// filled way.
func (s *System) fillLLC(core int, lineAddr uint64, fl lineFlags, now int64) int {
	slot, victim, victimSharers := s.llcOf(core).insert(lineAddr, fl)
	if victim.valid() {
		s.evictLLCVictim(core, victim, victimSharers, now)
	}
	return slot
}

func (s *System) evictLLCVictim(core int, victim line, sharers sharerSet, now int64) {
	ctr := s.ctrs[core]
	victimAddr := victim.tag - 1
	dirty := victim.flags&flagDirty != 0
	// Inclusive hierarchy: remove all private copies; a modified private
	// copy makes the line dirty regardless of the LLC's own dirty bit.
	if s.invalidateSharers(sharers, -1, victimAddr) {
		dirty = true
	}
	if victim.owner >= 0 {
		dirty = true
	}
	if victim.flags&flagPrefetched != 0 {
		ctr.PrefEvicted++
	}
	if dirty {
		s.memWrite(victimAddr, now)
		ctr.OffchipWriteback += LineBytes
	}
}

// invalidateSharers removes lineAddr from the private caches of every
// core named in the sharer set except the given one (-1 = none),
// reporting whether any removed copy was dirty.
func (s *System) invalidateSharers(set sharerSet, except int, lineAddr uint64) (dirty bool) {
	for c := set.next(0); c >= 0; c = set.next(c + 1) {
		if c == except {
			continue
		}
		cc := &s.cores[c]
		if was, _ := cc.l1d.invalidate(lineAddr); was.flags&flagDirty != 0 {
			dirty = true
		}
		if was, _ := cc.l2.invalidate(lineAddr); was.flags&flagDirty != 0 {
			dirty = true
		}
		cc.l1i.invalidate(lineAddr)
	}
	return dirty
}

// fillL2 inserts into core's L2; a dirty victim is absorbed by the
// inclusive LLC (its dirty bit is set) or written back if the LLC has
// already dropped it.
func (s *System) fillL2(core int, lineAddr uint64, fl lineFlags, now int64) {
	cc := &s.cores[core]
	_, victim, _ := cc.l2.insert(lineAddr, fl)
	if victim.valid() && victim.flags&flagDirty != 0 {
		victimAddr := victim.tag - 1
		llc := s.llcOf(core)
		if w := llc.probe(victimAddr, false); w >= 0 {
			l := &llc.lines[w]
			l.flags |= flagDirty
			if l.owner == int16(core) {
				l.owner = -1
				// The L1-D (non-inclusive with the L2) may still hold
				// the line; demote its write permission along with the
				// lapsed ownership, or a later store would skip the
				// directory claim the owner-less line now requires.
				if dw := cc.l1d.probe(victimAddr, false); dw >= 0 {
					cc.l1d.lines[dw].flags &^= flagExcl | flagDirty
				}
			}
		} else {
			s.memWrite(victimAddr, now)
			s.ctrs[core].OffchipWriteback += LineBytes
		}
	}
}

// fillL1D inserts into core's L1D; dirty victims spill to the L2.
func (s *System) fillL1D(core int, lineAddr uint64, fl lineFlags, now int64) {
	cc := &s.cores[core]
	_, victim, _ := cc.l1d.insert(lineAddr, fl)
	if victim.valid() && victim.flags&flagDirty != 0 {
		s.fillL2(core, victim.tag-1, flagDirty, now)
	}
}

func (s *System) fillL1I(core int, lineAddr uint64) {
	// Instruction lines are never dirty; victims drop silently.
	s.cores[core].l1i.insert(lineAddr, flagInstr)
}

// --- coherence helpers --------------------------------------------------

// claimOwnership makes core the exclusive modified owner of lineAddr,
// held in way w of its socket's LLC, invalidating all other private
// copies — on its own socket and, because writing requires chip-wide
// exclusivity, any copy held by another socket's LLC (and that socket's
// private caches). It returns true when another core previously held
// the line Modified (a read-write sharing event).
func (s *System) claimOwnership(core int, lineAddr uint64, w int) (stolenFromOther bool) {
	llc := s.llcOf(core)
	llcLine := &llc.lines[w]
	prevOwner := llcLine.owner
	if s.invalidateSharers(llc.sharers(w), core, lineAddr) {
		llcLine.flags |= flagDirty
	}
	home := s.socketOf(core)
	for so := range s.llcs {
		if so == home {
			continue
		}
		victim, victimSharers := s.llcs[so].invalidate(lineAddr)
		if !victim.valid() {
			continue
		}
		s.invalidateSharers(victimSharers, -1, lineAddr)
		// A dirty remote copy (owned, or downgraded-but-dirty) means a
		// remote core modified the line most recently: count it like
		// the write-miss snoop path does, so the sharing metric is
		// independent of whether the writer's private copy survived.
		if victim.owner >= 0 || victim.flags&flagDirty != 0 {
			stolenFromOther = true
		}
	}
	llc.setSharers(w, onlySharer(core))
	llcLine.owner = int16(core)
	llcLine.flags |= flagDirty
	return stolenFromOther || (prevOwner >= 0 && prevOwner != int16(core))
}

// upgradeOwnership services a store that hit a private cache without
// write permission: the RFO (read-for-ownership) consults the LLC
// directory, so it counts as an LLC data reference like on real
// hardware, and claiming the line from a modified holder is a sharing
// event — the same accounting as a demand miss that finds remotely-
// modified data, so the Figure-6 metric does not depend on whether the
// writer's private copy survived.
func (s *System) upgradeOwnership(core int, lineAddr uint64, kernel bool) {
	w := s.llcOf(core).probe(lineAddr, false)
	if w < 0 {
		return
	}
	ctr := s.ctrs[core]
	ctr.LLCAccess++
	ctr.LLCDataRefs++
	ctr.LLCHit++
	if kernel {
		ctr.LLCDataRefsOS++
		ctr.LLCHitOS++
	} else {
		ctr.LLCHitUser++
	}
	if s.claimOwnership(core, lineAddr, w) {
		s.countSharedRW(core, kernel)
	}
}

// countSharedRW records one read-write sharing event by core (the
// Figure-6 probe), attributed to the requesting mode.
func (s *System) countSharedRW(core int, kernel bool) {
	if kernel {
		s.ctrs[core].SharedRWHitOS++
	} else {
		s.ctrs[core].SharedRWHitUser++
	}
}

// downgradeOwner services a read to a line another core holds Modified:
// the owner's private copies lose write permission (their dirty data is
// absorbed by the LLC line) and the directory entry drops the owner, so
// the owner's next store must re-claim exclusivity through the
// directory — the event the read-write sharing counters observe.
func (s *System) downgradeOwner(lineAddr uint64, llcLine *line) {
	if o := llcLine.owner; o >= 0 {
		oc := &s.cores[o]
		if w := oc.l1d.probe(lineAddr, false); w >= 0 {
			oc.l1d.lines[w].flags &^= flagExcl | flagDirty
		}
		if w := oc.l2.probe(lineAddr, false); w >= 0 {
			oc.l2.lines[w].flags &^= flagExcl | flagDirty
		}
	}
	llcLine.owner = -1
	llcLine.flags |= flagDirty
}

// --- instruction fetch ---------------------------------------------------

// FetchResult describes where an instruction fetch was serviced.
type FetchResult struct {
	// Done is the completion time.
	Done int64
	// L1Miss reports that the fetch missed the L1-I.
	L1Miss bool
	// OffCore reports that the fetch missed the L2 as well.
	OffCore bool
}

// FetchInstr fetches the line containing pc for core at time now.
func (s *System) FetchInstr(core int, pc uint64, now int64, kernel bool) FetchResult {
	if s.checkEvery > 0 {
		defer s.maybeCheck()
	}
	lineAddr := pc >> LineShift
	cc := &s.cores[core]
	ctr := s.ctrs[core]
	if kernel {
		ctr.FetchL1IAccessOS++
	} else {
		ctr.FetchL1IAccessUser++
	}
	if cc.l1i.probe(lineAddr, true) >= 0 {
		return FetchResult{Done: now}
	}
	if kernel {
		ctr.L1IMissOS++
	} else {
		ctr.L1IMissUser++
	}
	switch s.cfg.IPrefetch {
	case IPrefNextLine:
		for _, p := range cc.nextI.OnMiss(lineAddr) {
			s.prefetchInstr(core, p, kernel, now)
		}
	case IPrefStream:
		for _, p := range cc.streamI.OnMiss(lineAddr) {
			s.prefetchInstr(core, p, kernel, now)
		}
	}
	ctr.L2Access++
	if cc.l2.probe(lineAddr, true) >= 0 {
		ctr.L2Hit++
		s.fillL1I(core, lineAddr)
		return FetchResult{Done: now + int64(s.cfg.L2.LatencyCycles), L1Miss: true}
	}
	if kernel {
		ctr.L2IMissOS++
	} else {
		ctr.L2IMissUser++
	}
	done := s.accessShared(core, lineAddr, false, kernel, true, now)
	s.fillL2(core, lineAddr, flagInstr, now)
	s.fillL1I(core, lineAddr)
	return FetchResult{Done: done, L1Miss: true, OffCore: true}
}

// --- data access ---------------------------------------------------------

// DataResult describes a data access.
type DataResult struct {
	// Done is the completion time (load-to-use).
	Done int64
	// L1Miss reports a super-queue allocation (missed the L1-D).
	L1Miss bool
	// OffCore reports the request left the core (missed the L2).
	OffCore bool
}

// AccessData performs a load or store by core at time now.
func (s *System) AccessData(core int, addr uint64, write, kernel bool, now int64) DataResult {
	if s.checkEvery > 0 {
		defer s.maybeCheck()
	}
	lineAddr := addr >> LineShift
	cc := &s.cores[core]
	ctr := s.ctrs[core]
	ctr.L1DAccess++

	if w := cc.l1d.probe(lineAddr, true); w >= 0 {
		l := &cc.l1d.lines[w]
		if l.flags&flagPrefetched != 0 {
			ctr.PrefUseful++
			l.flags &^= flagPrefetched
		}
		if write {
			if l.flags&flagExcl == 0 {
				s.upgradeOwnership(core, lineAddr, kernel)
				l.flags |= flagExcl
			}
			l.flags |= flagDirty
		}
		return DataResult{Done: now + int64(s.cfg.L1D.LatencyCycles)}
	}
	ctr.L1DMiss++

	// The streamers track load misses (demand reads); write-allocate
	// traffic from the store buffer does not train them.
	if s.cfg.DCUStreamer && !write {
		if target := cc.dcu.Observe(lineAddr); target != 0 {
			s.prefetchL1(core, target, kernel, now)
		}
	}

	ctr.L2DAccess++
	ctr.L2Access++
	if s.cfg.HWPrefetcher && !write {
		for _, p := range cc.stride.Observe(lineAddr) {
			s.prefetchL2(core, p, kernel, now)
		}
	}
	if w := cc.l2.probe(lineAddr, true); w >= 0 {
		l := &cc.l2.lines[w]
		ctr.L2Hit++
		if l.flags&flagPrefetched != 0 {
			ctr.PrefUseful++
			l.flags &^= flagPrefetched
		}
		fl := lineFlags(0)
		if write {
			s.upgradeOwnership(core, lineAddr, kernel)
			fl = flagDirty | flagExcl
		}
		s.fillL1D(core, lineAddr, fl, now)
		return DataResult{Done: now + int64(s.cfg.L2.LatencyCycles), L1Miss: true}
	}
	ctr.L2DMiss++
	if s.cfg.AdjacentLine {
		s.prefetchL2(core, prefetch.AdjacentLine(lineAddr), kernel, now)
	}

	done := s.accessShared(core, lineAddr, write, kernel, false, now)
	fl := lineFlags(0)
	if write {
		fl = flagDirty | flagExcl
	}
	s.fillL2(core, lineAddr, fl&flagDirty, now)
	s.fillL1D(core, lineAddr, fl, now)
	return DataResult{Done: done, L1Miss: true, OffCore: true}
}

// accessShared services an L2 miss from the LLC, a remote socket, or
// DRAM, maintaining the directory. It returns the completion time.
func (s *System) accessShared(core int, lineAddr uint64, write, kernel, instr bool, now int64) int64 {
	ctr := s.ctrs[core]
	llc := s.llcOf(core)
	ctr.LLCAccess++
	if instr {
		ctr.LLCInstrRefs++
	} else {
		ctr.LLCDataRefs++
		if kernel {
			ctr.LLCDataRefsOS++
		}
	}

	if w := llc.probe(lineAddr, true); w >= 0 {
		l := &llc.lines[w]
		ctr.LLCHit++
		if kernel {
			ctr.LLCHitOS++
		} else {
			ctr.LLCHitUser++
		}
		llcLat := int64(s.cfg.LLC.LatencyCycles)
		if instr && s.cfg.LLCInstrLatencyCycles > 0 {
			llcLat = int64(s.cfg.LLCInstrLatencyCycles)
		}
		if l.flags&flagPrefetched != 0 {
			ctr.PrefUseful++
			l.flags &^= flagPrefetched
		}
		sharedRW := false
		if write && !instr {
			sharedRW = s.claimOwnership(core, lineAddr, w)
		} else if l.owner >= 0 && l.owner != int16(core) {
			// Any read — including an instruction fetch — of a line
			// another core holds Modified downgrades the owner; only
			// data references count as sharing events (Figure 6).
			sharedRW = !instr
			s.downgradeOwner(lineAddr, l)
		}
		if sharedRW {
			s.countSharedRW(core, kernel)
		}
		llc.addSharer(w, core)
		if write && !instr {
			l.owner = int16(core)
		}
		return now + llcLat
	}
	ctr.LLCMiss++
	if kernel {
		ctr.LLCMissOS++
	} else {
		ctr.LLCMissUser++
	}

	// Snoop the other sockets. The sharing test must consider every
	// remote holder — a dirty copy can coexist with clean replicas on
	// other sockets. A write gains chip-wide exclusivity by invalidating
	// every remote copy; a read downgrades the Modified owner, if any.
	// Latency scales with hop distance on the interconnect: a read is
	// serviced by the nearest holder, a write completes when the
	// farthest holder has acknowledged its invalidation.
	my := s.socketOf(core)
	remote, modified := false, false
	nearest, farthest := 0, 0
	for so := range s.llcs {
		if so == my {
			continue
		}
		rw := s.llcs[so].probe(lineAddr, false)
		if rw < 0 {
			continue
		}
		rl := &s.llcs[so].lines[rw]
		h := s.hops[my][so]
		if !remote || h < nearest {
			nearest = h
		}
		if h > farthest {
			farthest = h
		}
		remote = true
		if rl.owner >= 0 || rl.flags&flagDirty != 0 {
			modified = true
		}
		if write {
			// Invalidate the remote copy and all its private copies.
			_, victimSharers := s.llcs[so].drop(rw)
			s.invalidateSharers(victimSharers, -1, lineAddr)
		} else if rl.owner >= 0 {
			s.downgradeOwner(lineAddr, rl)
		}
	}
	if remote {
		ctr.RemoteSocketHit++
		if modified && !instr {
			s.countSharedRW(core, kernel)
		}
		s.installShared(core, lineAddr, write, instr, now)
		routeHops := nearest
		if write {
			routeHops = farthest
		}
		return now + int64(s.cfg.RemoteHitCycles) + s.hopPenalty(routeHops)
	}

	// Off-chip.
	done := s.memRead(core, lineAddr, now)
	if kernel {
		ctr.OffchipReadOS += LineBytes
	} else {
		ctr.OffchipReadUser += LineBytes
	}
	s.installShared(core, lineAddr, write, instr, now)
	llcDone := now + int64(s.cfg.LLC.LatencyCycles)
	if done < llcDone {
		done = llcDone
	}
	return done
}

// installShared fills an LLC miss, serviced by a remote socket or by
// DRAM, into core's socket LLC with core as its only sharer and, on a
// data write, its owner.
func (s *System) installShared(core int, lineAddr uint64, write, instr bool, now int64) {
	fl := lineFlags(0)
	if write {
		fl = flagDirty
	}
	if instr {
		fl |= flagInstr
	}
	w := s.fillLLC(core, lineAddr, fl, now)
	llc := s.llcOf(core)
	llc.setSharers(w, onlySharer(core))
	if write && !instr {
		llc.lines[w].owner = int16(core)
	}
}

// prefetchLLC obtains lineAddr in core's socket LLC for a prefetch: a
// local hit, a remote-socket copy, or an off-chip fetch, registering
// core as a sharer. Like the demand path, a prefetch is a read: a
// Modified owner (local or remote) is downgraded, or the owner's
// retained write permission and the prefetched copy would go
// incoherent — exactly the divergence that left the original
// hand-copied snoop loops dormant-and-broken.
func (s *System) prefetchLLC(core int, lineAddr uint64, fl lineFlags, kernel bool, now int64) {
	llc := s.llcOf(core)
	if w := llc.probe(lineAddr, true); w >= 0 {
		if l := &llc.lines[w]; l.owner >= 0 && l.owner != int16(core) {
			s.downgradeOwner(lineAddr, l)
		}
		llc.addSharer(w, core)
		return
	}
	for so := range s.llcs {
		if so == s.socketOf(core) {
			continue
		}
		if rw := s.llcs[so].probe(lineAddr, false); rw >= 0 {
			if rl := &s.llcs[so].lines[rw]; rl.owner >= 0 {
				s.downgradeOwner(lineAddr, rl)
			}
			s.ctrs[core].RemoteSocketHit++
			llc.addSharer(s.fillLLC(core, lineAddr, fl, now), core)
			return
		}
	}
	s.memRead(core, lineAddr, now)
	if kernel {
		s.ctrs[core].OffchipReadOS += LineBytes
	} else {
		s.ctrs[core].OffchipReadUser += LineBytes
	}
	llc.addSharer(s.fillLLC(core, lineAddr, fl, now), core)
}

// prefetchInstr fetches an instruction line into core's L1-I without
// blocking the demand fetch.
func (s *System) prefetchInstr(core int, lineAddr uint64, kernel bool, now int64) {
	cc := &s.cores[core]
	if cc.l1i.Contains(lineAddr) {
		return
	}
	s.ctrs[core].PrefIssued++
	if cc.l2.Contains(lineAddr) {
		s.fillL1I(core, lineAddr)
		return
	}
	s.prefetchLLC(core, lineAddr, flagInstr, kernel, now)
	s.fillL2(core, lineAddr, flagInstr, now)
	s.fillL1I(core, lineAddr)
}

// prefetchL2 fetches lineAddr into core's L2 (and LLC) without blocking
// the demand stream.
func (s *System) prefetchL2(core int, lineAddr uint64, kernel bool, now int64) {
	if s.cores[core].l2.Contains(lineAddr) {
		return
	}
	s.ctrs[core].PrefIssued++
	s.prefetchLLC(core, lineAddr, flagPrefetched, kernel, now)
	s.fillL2(core, lineAddr, flagPrefetched, now)
}

// prefetchL1 fetches lineAddr into core's L1-D (DCU streamer).
func (s *System) prefetchL1(core int, lineAddr uint64, kernel bool, now int64) {
	cc := &s.cores[core]
	if cc.l1d.Contains(lineAddr) {
		return
	}
	s.ctrs[core].PrefIssued++
	if cc.l2.Contains(lineAddr) {
		s.fillL1D(core, lineAddr, flagPrefetched, now)
		return
	}
	s.prefetchLLC(core, lineAddr, flagPrefetched, kernel, now)
	s.fillL1D(core, lineAddr, flagPrefetched, now)
}
