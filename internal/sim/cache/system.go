package cache

import (
	"fmt"

	"cloudsuite/internal/sim/counters"
	"cloudsuite/internal/sim/dram"
	"cloudsuite/internal/sim/prefetch"
)

// SystemConfig describes the full memory system of the simulated
// machine: per-core private caches, one shared LLC per socket, the
// cross-socket latencies, the prefetcher enable bits, and the DRAM
// controller. Every remote socket is one interconnect hop away, as on
// the measured machine's point-to-point QPI links.
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

// Validate checks that the core grid describes a machine the directory
// can track, and that every cache's associativity lies in 1..MaxAssoc.
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
	for _, cc := range []struct {
		name string
		cfg  Config
	}{{"L1I", c.L1I}, {"L1D", c.L1D}, {"L2", c.L2}, {"LLC", c.LLC}} {
		if a := cc.cfg.Assoc; a < 1 || uint64(a) > MaxAssoc {
			return fmt.Errorf("cache: %s associativity %d outside 1..%d", cc.name, a, uint64(MaxAssoc))
		}
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
		DRAM:            dram.DefaultConfig(),
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
	return s
}

// Ctr returns the counter block events triggered by core are charged to.
func (s *System) Ctr(core int) *counters.Counters { return s.ctrs[core] }

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
// charging the one interconnect hop (RemoteMemCycles) when the
// requesting core is on another socket.
func (s *System) memRead(core int, lineAddr uint64, now int64) int64 {
	home := s.homeSocket(lineAddr)
	done := s.mems[home].Read(lineAddr, now)
	if home == s.socketOf(core) {
		s.ctrs[core].DRAMReadLocal++
	} else {
		s.ctrs[core].DRAMReadRemote++
		done += int64(s.cfg.RemoteMemCycles)
	}
	return done
}

// memWrite posts a line writeback to its home socket's controller.
func (s *System) memWrite(lineAddr uint64, now int64) {
	s.mems[s.homeSocket(lineAddr)].Write(lineAddr, now)
}

// --- fill helpers -----------------------------------------------------

// The fill helpers below run only after the caller has seen lineAddr
// miss the cache they fill, with nothing in between that puts it
// there, so they fill without probing again. Two fills probe anyway
// (insert): the L1-D's dirty victim spills into an L2 that does not
// include the L1-D and may still hold the line, and an L1-I fill may
// follow an instruction prefetch of the same line.

// fillLLC fills lineAddr into core's socket LLC, handling inclusive
// back-invalidation and dirty writeback of the victim, and returns the
// filled way.
func (s *System) fillLLC(core int, lineAddr uint64, fl lineFlags, now int64) int {
	slot, victim, victimSharers := s.llcOf(core).fill(lineAddr, fl)
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

// fillL2 fills lineAddr into core's L2.
func (s *System) fillL2(core int, lineAddr uint64, fl lineFlags, now int64) {
	_, victim, _ := s.cores[core].l2.fill(lineAddr, fl)
	s.absorbL2Victim(core, victim, now)
}

// absorbL2Victim handles a line evicted from core's L2: a dirty victim
// is absorbed by the inclusive LLC (its dirty bit is set) or written
// back if the LLC has already dropped it.
func (s *System) absorbL2Victim(core int, victim line, now int64) {
	cc := &s.cores[core]
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

// fillL1D fills lineAddr into core's L1D; dirty victims spill to the L2.
func (s *System) fillL1D(core int, lineAddr uint64, fl lineFlags, now int64) {
	cc := &s.cores[core]
	_, victim, _ := cc.l1d.fill(lineAddr, fl)
	if victim.valid() && victim.flags&flagDirty != 0 {
		_, l2victim, _ := cc.l2.insert(victim.tag-1, flagDirty)
		s.absorbL2Victim(core, l2victim, now)
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
// exclusivity, every other socket's copy (snoop). It returns true when
// another core previously held the line Modified (a read-write sharing
// event); a dirty remote copy counts too, so the sharing metric is
// independent of whether the writer's private copy survived.
func (s *System) claimOwnership(core int, lineAddr uint64, w int) (stolenFromOther bool) {
	llc := s.llcOf(core)
	llcLine := &llc.lines[w]
	prevOwner := llcLine.owner
	if s.invalidateSharers(llc.sharers(w), core, lineAddr) {
		llcLine.flags |= flagDirty
	}
	_, remoteModified := s.snoop(core, lineAddr, true)
	llc.setSharers(w, onlySharer(core))
	llcLine.owner = int16(core)
	llcLine.flags |= flagDirty
	return remoteModified || (prevOwner >= 0 && prevOwner != int16(core))
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
	countLLC(s.ctrs[core], kernel, false, true)
	if s.claimOwnership(core, lineAddr, w) {
		s.countSharedRW(core, kernel)
	}
}

// countLLC charges one LLC reference — an instruction or a data one,
// user or kernel — and its hit or miss to ctr.
func countLLC(ctr *counters.Counters, kernel, instr, hit bool) {
	ctr.LLCAccess++
	if instr {
		ctr.LLCInstrRefs++
	} else {
		ctr.LLCDataRefs++
		if kernel {
			ctr.LLCDataRefsOS++
		}
	}
	switch {
	case hit && kernel:
		ctr.LLCHit++
		ctr.LLCHitOS++
	case hit:
		ctr.LLCHit++
		ctr.LLCHitUser++
	case kernel:
		ctr.LLCMiss++
		ctr.LLCMissOS++
	default:
		ctr.LLCMiss++
		ctr.LLCMissUser++
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

// accessShared services a demand L2 miss through obtain and does the
// demand-side accounting: the LLC reference and its outcome, the first
// use of a prefetched LLC line, and the Figure-6 sharing event (data
// references only). It returns the completion time.
func (s *System) accessShared(core int, lineAddr uint64, write, kernel, instr bool, now int64) int64 {
	fl := lineFlags(0)
	if instr {
		fl = flagInstr
	}
	w, hit, stolen, done := s.obtain(core, lineAddr, write, fl, kernel, now)
	ctr := s.ctrs[core]
	countLLC(ctr, kernel, instr, hit)
	if stolen && !instr {
		s.countSharedRW(core, kernel)
	}
	if l := &s.llcOf(core).lines[w]; hit && l.flags&flagPrefetched != 0 {
		ctr.PrefUseful++
		l.flags &^= flagPrefetched
	}
	return done
}

// --- directory protocol ----------------------------------------------------

// obtain is the one L2-miss directory protocol, for demand requests and
// prefetches alike: it registers core as a holder of lineAddr in its
// socket's LLC and, on a write, makes it the line's Modified owner. A
// local hit claims ownership (write) or downgrades a foreign owner
// (any read, fetches and prefetches included, or the owner's retained
// write permission and the new copy would go incoherent). A local miss
// snoops the other sockets, reads DRAM when none holds the line, and
// fills the LLC with fl (dirty on a write) and core as the only sharer.
//
// It returns the line's LLC way, whether the local LLC hit, whether the
// line was taken from a Modified holder (a read-write sharing event),
// and the completion time: the LLC latency on a hit, RemoteHitCycles
// on a remote hit (every remote socket is one hop away), the DRAM read
// otherwise.
func (s *System) obtain(core int, lineAddr uint64, write bool, fl lineFlags, kernel bool, now int64) (w int, hit, stolen bool, done int64) {
	llc := s.llcOf(core)
	if w = llc.probe(lineAddr, true); w >= 0 {
		if l := &llc.lines[w]; write {
			stolen = s.claimOwnership(core, lineAddr, w)
		} else if l.owner >= 0 && l.owner != int16(core) {
			s.downgradeOwner(lineAddr, l)
			stolen = true
		}
		llc.addSharer(w, core)
		lat := s.cfg.LLC.LatencyCycles
		if fl&flagInstr != 0 && s.cfg.LLCInstrLatencyCycles > 0 {
			lat = s.cfg.LLCInstrLatencyCycles
		}
		return w, true, stolen, now + int64(lat)
	}

	remote, stolen := s.snoop(core, lineAddr, write)
	if remote {
		s.ctrs[core].RemoteSocketHit++
		done = now + int64(s.cfg.RemoteHitCycles)
	} else {
		done = max(s.memRead(core, lineAddr, now), now+int64(s.cfg.LLC.LatencyCycles))
		if kernel {
			s.ctrs[core].OffchipReadOS += LineBytes
		} else {
			s.ctrs[core].OffchipReadUser += LineBytes
		}
	}
	if write {
		fl |= flagDirty
	}
	w = s.fillLLC(core, lineAddr, fl, now)
	llc.setSharers(w, onlySharer(core))
	if write {
		llc.lines[w].owner = int16(core)
	}
	return w, false, stolen, done
}

// snoop visits every other socket's LLC copy of lineAddr for core. A
// write invalidates each copy and its private copies, gaining chip-wide
// exclusivity; a read downgrades the Modified owner (by invariant 5 the
// only copy when there is one). It reports whether any copy was found,
// and whether any was modified — owned, or downgraded but dirty, which
// can coexist with clean replicas on other sockets.
func (s *System) snoop(core int, lineAddr uint64, write bool) (found, modified bool) {
	my := s.socketOf(core)
	for so, llc := range s.llcs {
		if so == my {
			continue
		}
		rw := llc.probe(lineAddr, false)
		if rw < 0 {
			continue
		}
		rl := &llc.lines[rw]
		found = true
		if rl.owner >= 0 || rl.flags&flagDirty != 0 {
			modified = true
		}
		if write {
			_, sharers := llc.drop(rw)
			s.invalidateSharers(sharers, -1, lineAddr)
		} else if rl.owner >= 0 {
			s.downgradeOwner(lineAddr, rl)
		}
	}
	return found, modified
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
	s.obtain(core, lineAddr, false, flagInstr, kernel, now)
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
	s.obtain(core, lineAddr, false, flagPrefetched, kernel, now)
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
	s.obtain(core, lineAddr, false, flagPrefetched, kernel, now)
	s.fillL1D(core, lineAddr, flagPrefetched, now)
}
