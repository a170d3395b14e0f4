// Package counters is the performance-monitoring layer of the simulator:
// the stand-in for the hardware performance counters (read through VTune
// in the paper) that the entire characterization methodology is built on.
//
// Counters are plain uint64 fields grouped in a Counters block. The
// simulator increments them inline; experiments snapshot blocks before
// and after the measurement window and work with deltas, mirroring how
// counter multiplexing tools operate. Derived metrics (IPC, MPKI, hit
// ratios, MLP, bandwidth utilisation) are methods so every experiment
// computes them the same way.
package counters

import (
	"fmt"

	"cloudsuite/internal/sim/checkpoint"
)

// Counters is one block of raw event counts. All counts are cumulative.
// The zero value is ready to use.
type Counters struct {
	// Cycles is the number of elapsed core clock cycles.
	Cycles uint64

	// CommitUser / CommitOS count committed instructions by mode.
	CommitUser uint64
	CommitOS   uint64

	// CommitCyclesUser/OS count cycles in which at least one instruction
	// committed, attributed to the mode of the oldest committing
	// instruction. StallCyclesUser/OS count cycles with no commit,
	// attributed to the mode of the instruction blocking the window head.
	CommitCyclesUser uint64
	CommitCyclesOS   uint64
	StallCyclesUser  uint64
	StallCyclesOS    uint64

	// MemCycles approximates cycles when commit could not proceed due to
	// long-latency memory activity: at least one off-core data request
	// outstanding, instruction-fetch stalled past the L1-I, or a TLB walk
	// in progress. This mirrors the paper's "Memory" bar (Section 3.1).
	MemCycles uint64

	// Memory-level parallelism, measured as super-queue (L1-D miss)
	// occupancy: MLPSum accumulates the number of outstanding L1-D misses
	// over the cycles when at least one is outstanding (MLPCycles).
	MLPSum    uint64
	MLPCycles uint64

	// Front-end.
	FetchL1IAccessUser uint64
	FetchL1IAccessOS   uint64
	L1IMissUser        uint64
	L1IMissOS          uint64
	L2IMissUser        uint64
	L2IMissOS          uint64
	ITLBMiss           uint64
	FetchStallCycles   uint64

	// Branches.
	Branches    uint64
	Mispredicts uint64

	// Data side.
	L1DAccess uint64
	L1DMiss   uint64
	L2DAccess uint64
	L2DMiss   uint64
	DTLBMiss  uint64
	STLBMiss  uint64

	// L2 unified view (instruction + data demand accesses).
	L2Access uint64
	L2Hit    uint64

	// LLC.
	LLCAccess     uint64
	LLCHit        uint64
	LLCDataRefs   uint64
	LLCInstrRefs  uint64
	LLCMiss       uint64
	LLCHitUser    uint64
	LLCHitOS      uint64
	LLCMissUser   uint64
	LLCMissOS     uint64
	LLCDataRefsOS uint64

	// Coherence: LLC data references that were serviced from a line in
	// Modified state owned by a different core ("read-write shared hit").
	SharedRWHitUser uint64
	SharedRWHitOS   uint64
	// RemoteSocketHit counts the subset serviced from the other socket.
	RemoteSocketHit uint64

	// Off-chip traffic in bytes, split by requesting mode, plus
	// writebacks (not attributable to a mode at eviction time).
	OffchipReadUser  uint64
	OffchipReadOS    uint64
	OffchipWriteback uint64

	// Prefetchers.
	PrefIssued   uint64
	PrefUseful   uint64
	PrefEvicted  uint64
	PrefDemanded uint64

	// DRAM channel busy cycles (summed over channels and sockets) and
	// cycle span, maintained by the memory controllers for bandwidth
	// utilisation. DRAMChannels counts channels across all sockets; it
	// is a machine constant, which Add and Sub keep.
	DRAMBusyCycles  uint64
	DRAMTotalCycles uint64
	DRAMChannels    uint64

	// NUMA: DRAM line reads serviced by the requesting core's own
	// socket's memory controller vs the other socket's (QPI hop).
	DRAMReadLocal  uint64
	DRAMReadRemote uint64
}

// SaveState serializes the counter block into a checkpoint. The block
// is encoded as one fixed-size struct, so adding a counter field
// changes the encoded size and stale snapshots fail to load instead of
// misattributing events (bump checkpoint.Version on such changes).
func (c *Counters) SaveState(w *checkpoint.Writer) {
	w.Tag("ctrs")
	w.Struct(c)
}

// LoadState restores a counter block saved by SaveState.
func (c *Counters) LoadState(r *checkpoint.Reader) {
	r.Expect("ctrs")
	r.Struct(c)
}

// Conservation checks the laws every core's block, and every sum or
// window delta of such blocks, obeys. It returns the first violated
// law, or nil.
//
// Cycle accounting: each cycle is either committing or stalled and
// either user or OS, so those four counts sum to Cycles; memory, MLP
// and fetch-stall cycles are subsets of Cycles.
//
// Hierarchy flow: each law below relates counters that the memory
// system increments within one call on one core's block, so it holds
// per core and per window, not only in aggregate. Every L1 miss is one
// L2 access; every LLC access is a hit or a miss, a data or an
// instruction reference, and user or OS; every DRAM line read is 64
// off-chip bytes; every LLC miss is serviced by a remote socket or by
// DRAM (prefetch fills add more of both). Two plausible laws do not
// hold and are deliberately absent: SharedRWHit <= LLCHit, because an
// LLC miss whose snoop finds a remotely modified line counts a sharing
// event, and PrefUseful <= PrefIssued, because a line prefetched during
// warming can be used inside the window.
func (c *Counters) Conservation() error {
	if sum := c.CommitCyclesUser + c.CommitCyclesOS + c.StallCyclesUser + c.StallCyclesOS; sum != c.Cycles {
		return fmt.Errorf("counters: commit+stall cycles %d != Cycles %d", sum, c.Cycles)
	}
	for _, f := range []struct {
		name string
		v    uint64
	}{{"MemCycles", c.MemCycles}, {"MLPCycles", c.MLPCycles}, {"FetchStallCycles", c.FetchStallCycles}} {
		if f.v > c.Cycles {
			return fmt.Errorf("counters: %s %d > Cycles %d", f.name, f.v, c.Cycles)
		}
	}
	for _, law := range []struct {
		name        string
		left, right uint64
	}{
		{"L2Access == L1IMissUser+L1IMissOS+L1DMiss", c.L2Access, c.L1IMissUser + c.L1IMissOS + c.L1DMiss},
		{"LLCHit+LLCMiss == LLCAccess", c.LLCHit + c.LLCMiss, c.LLCAccess},
		{"LLCHitUser+LLCHitOS == LLCHit", c.LLCHitUser + c.LLCHitOS, c.LLCHit},
		{"LLCMissUser+LLCMissOS == LLCMiss", c.LLCMissUser + c.LLCMissOS, c.LLCMiss},
		{"LLCDataRefs+LLCInstrRefs == LLCAccess", c.LLCDataRefs + c.LLCInstrRefs, c.LLCAccess},
		{"OffchipReadUser+OffchipReadOS == 64*(DRAMReadLocal+DRAMReadRemote)",
			c.OffchipReadUser + c.OffchipReadOS, 64 * (c.DRAMReadLocal + c.DRAMReadRemote)},
	} {
		if law.left != law.right {
			return fmt.Errorf("counters: %s violated: %d != %d", law.name, law.left, law.right)
		}
	}
	for _, law := range []struct {
		name          string
		small, bigger uint64
	}{
		{"LLCMiss <= RemoteSocketHit+DRAMReadLocal+DRAMReadRemote", c.LLCMiss, c.RemoteSocketHit + c.DRAMReadLocal + c.DRAMReadRemote},
		{"L2Hit <= L2Access", c.L2Hit, c.L2Access},
		{"L1DMiss <= L1DAccess", c.L1DMiss, c.L1DAccess},
		{"L2IMissUser+L2IMissOS <= L1IMissUser+L1IMissOS", c.L2IMissUser + c.L2IMissOS, c.L1IMissUser + c.L1IMissOS},
	} {
		if law.small > law.bigger {
			return fmt.Errorf("counters: %s violated: %d > %d", law.name, law.small, law.bigger)
		}
	}
	return nil
}

// Add accumulates other into c field-by-field.
func (c *Counters) Add(o *Counters) {
	c.Cycles += o.Cycles
	c.CommitUser += o.CommitUser
	c.CommitOS += o.CommitOS
	c.CommitCyclesUser += o.CommitCyclesUser
	c.CommitCyclesOS += o.CommitCyclesOS
	c.StallCyclesUser += o.StallCyclesUser
	c.StallCyclesOS += o.StallCyclesOS
	c.MemCycles += o.MemCycles
	c.MLPSum += o.MLPSum
	c.MLPCycles += o.MLPCycles
	c.FetchL1IAccessUser += o.FetchL1IAccessUser
	c.FetchL1IAccessOS += o.FetchL1IAccessOS
	c.L1IMissUser += o.L1IMissUser
	c.L1IMissOS += o.L1IMissOS
	c.L2IMissUser += o.L2IMissUser
	c.L2IMissOS += o.L2IMissOS
	c.ITLBMiss += o.ITLBMiss
	c.FetchStallCycles += o.FetchStallCycles
	c.Branches += o.Branches
	c.Mispredicts += o.Mispredicts
	c.L1DAccess += o.L1DAccess
	c.L1DMiss += o.L1DMiss
	c.L2DAccess += o.L2DAccess
	c.L2DMiss += o.L2DMiss
	c.DTLBMiss += o.DTLBMiss
	c.STLBMiss += o.STLBMiss
	c.L2Access += o.L2Access
	c.L2Hit += o.L2Hit
	c.LLCAccess += o.LLCAccess
	c.LLCHit += o.LLCHit
	c.LLCDataRefs += o.LLCDataRefs
	c.LLCInstrRefs += o.LLCInstrRefs
	c.LLCMiss += o.LLCMiss
	c.LLCHitUser += o.LLCHitUser
	c.LLCHitOS += o.LLCHitOS
	c.LLCMissUser += o.LLCMissUser
	c.LLCMissOS += o.LLCMissOS
	c.LLCDataRefsOS += o.LLCDataRefsOS
	c.SharedRWHitUser += o.SharedRWHitUser
	c.SharedRWHitOS += o.SharedRWHitOS
	c.RemoteSocketHit += o.RemoteSocketHit
	c.OffchipReadUser += o.OffchipReadUser
	c.OffchipReadOS += o.OffchipReadOS
	c.OffchipWriteback += o.OffchipWriteback
	c.PrefIssued += o.PrefIssued
	c.PrefUseful += o.PrefUseful
	c.PrefEvicted += o.PrefEvicted
	c.PrefDemanded += o.PrefDemanded
	c.DRAMBusyCycles += o.DRAMBusyCycles
	c.DRAMTotalCycles += o.DRAMTotalCycles
	// DRAMChannels is a configuration constant, not a count: a sum of
	// blocks from one machine keeps it.
	if c.DRAMChannels == 0 {
		c.DRAMChannels = o.DRAMChannels
	}
	c.DRAMReadLocal += o.DRAMReadLocal
	c.DRAMReadRemote += o.DRAMReadRemote
}

// Sub returns c - o field-by-field (the measurement-window delta).
func (c Counters) Sub(o *Counters) Counters {
	d := c
	d.Cycles -= o.Cycles
	d.CommitUser -= o.CommitUser
	d.CommitOS -= o.CommitOS
	d.CommitCyclesUser -= o.CommitCyclesUser
	d.CommitCyclesOS -= o.CommitCyclesOS
	d.StallCyclesUser -= o.StallCyclesUser
	d.StallCyclesOS -= o.StallCyclesOS
	d.MemCycles -= o.MemCycles
	d.MLPSum -= o.MLPSum
	d.MLPCycles -= o.MLPCycles
	d.FetchL1IAccessUser -= o.FetchL1IAccessUser
	d.FetchL1IAccessOS -= o.FetchL1IAccessOS
	d.L1IMissUser -= o.L1IMissUser
	d.L1IMissOS -= o.L1IMissOS
	d.L2IMissUser -= o.L2IMissUser
	d.L2IMissOS -= o.L2IMissOS
	d.ITLBMiss -= o.ITLBMiss
	d.FetchStallCycles -= o.FetchStallCycles
	d.Branches -= o.Branches
	d.Mispredicts -= o.Mispredicts
	d.L1DAccess -= o.L1DAccess
	d.L1DMiss -= o.L1DMiss
	d.L2DAccess -= o.L2DAccess
	d.L2DMiss -= o.L2DMiss
	d.DTLBMiss -= o.DTLBMiss
	d.STLBMiss -= o.STLBMiss
	d.L2Access -= o.L2Access
	d.L2Hit -= o.L2Hit
	d.LLCAccess -= o.LLCAccess
	d.LLCHit -= o.LLCHit
	d.LLCDataRefs -= o.LLCDataRefs
	d.LLCInstrRefs -= o.LLCInstrRefs
	d.LLCMiss -= o.LLCMiss
	d.LLCHitUser -= o.LLCHitUser
	d.LLCHitOS -= o.LLCHitOS
	d.LLCMissUser -= o.LLCMissUser
	d.LLCMissOS -= o.LLCMissOS
	d.LLCDataRefsOS -= o.LLCDataRefsOS
	d.SharedRWHitUser -= o.SharedRWHitUser
	d.SharedRWHitOS -= o.SharedRWHitOS
	d.RemoteSocketHit -= o.RemoteSocketHit
	d.OffchipReadUser -= o.OffchipReadUser
	d.OffchipReadOS -= o.OffchipReadOS
	d.OffchipWriteback -= o.OffchipWriteback
	d.PrefIssued -= o.PrefIssued
	d.PrefUseful -= o.PrefUseful
	d.PrefEvicted -= o.PrefEvicted
	d.PrefDemanded -= o.PrefDemanded
	d.DRAMBusyCycles -= o.DRAMBusyCycles
	d.DRAMTotalCycles -= o.DRAMTotalCycles
	// DRAMChannels is a configuration constant, not a delta.
	d.DRAMChannels = c.DRAMChannels
	d.DRAMReadLocal -= o.DRAMReadLocal
	d.DRAMReadRemote -= o.DRAMReadRemote
	return d
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Commits returns total committed instructions.
func (c *Counters) Commits() uint64 { return c.CommitUser + c.CommitOS }

// IPC returns committed instructions per cycle (all modes).
func (c *Counters) IPC() float64 { return ratio(c.Commits(), c.Cycles) }

// UserIPC returns user-mode instructions per cycle, the paper's
// throughput proxy for Figure 4.
func (c *Counters) UserIPC() float64 { return ratio(c.CommitUser, c.Cycles) }

// MLP returns the average number of outstanding L1-D misses over cycles
// with at least one outstanding (Figure 3, right). A workload that never
// misses has MLP 1 by convention (a single access at a time).
func (c *Counters) MLP() float64 {
	if c.MLPCycles == 0 {
		return 1
	}
	return ratio(c.MLPSum, c.MLPCycles)
}

// StallFrac returns the fraction of cycles with no commit.
func (c *Counters) StallFrac() float64 {
	return ratio(c.StallCyclesUser+c.StallCyclesOS, c.Cycles)
}

// MemCycleFrac returns the fraction of cycles covered by the Memory bar.
func (c *Counters) MemCycleFrac() float64 { return ratio(c.MemCycles, c.Cycles) }

// L1IMPKIUser returns user L1-I misses per kilo-instruction.
func (c *Counters) L1IMPKIUser() float64 {
	return 1000 * ratio(c.L1IMissUser, c.Commits())
}

// L1IMPKIOS returns OS L1-I misses per kilo-instruction.
func (c *Counters) L1IMPKIOS() float64 {
	return 1000 * ratio(c.L1IMissOS, c.Commits())
}

// L2IMPKIUser returns user L2 instruction misses per kilo-instruction.
func (c *Counters) L2IMPKIUser() float64 {
	return 1000 * ratio(c.L2IMissUser, c.Commits())
}

// L2IMPKIOS returns OS L2 instruction misses per kilo-instruction.
func (c *Counters) L2IMPKIOS() float64 {
	return 1000 * ratio(c.L2IMissOS, c.Commits())
}

// L2HitRatio returns demand hits over demand accesses at the L2.
func (c *Counters) L2HitRatio() float64 { return ratio(c.L2Hit, c.L2Access) }

// LLCHitRatio returns demand hits over accesses at the LLC.
func (c *Counters) LLCHitRatio() float64 { return ratio(c.LLCHit, c.LLCAccess) }

// SharedRWFracUser returns application read-write shared hits normalized
// to LLC data references (Figure 6).
func (c *Counters) SharedRWFracUser() float64 {
	return ratio(c.SharedRWHitUser, c.LLCDataRefs)
}

// SharedRWFracOS returns OS read-write shared hits normalized to LLC
// data references (Figure 6).
func (c *Counters) SharedRWFracOS() float64 {
	return ratio(c.SharedRWHitOS, c.LLCDataRefs)
}

// MispredictRate returns mispredicted branches over all branches.
func (c *Counters) MispredictRate() float64 { return ratio(c.Mispredicts, c.Branches) }

// DRAMUtilization returns busy-cycle share across all channels
// (Figure 7).
func (c *Counters) DRAMUtilization() float64 {
	if c.DRAMTotalCycles == 0 || c.DRAMChannels == 0 {
		return 0
	}
	return float64(c.DRAMBusyCycles) / (float64(c.DRAMTotalCycles) * float64(c.DRAMChannels))
}

// RemoteDRAMFrac returns the share of DRAM line reads serviced by a
// remote socket's memory controller (NUMA traffic crossing QPI).
func (c *Counters) RemoteDRAMFrac() float64 {
	return ratio(c.DRAMReadRemote, c.DRAMReadLocal+c.DRAMReadRemote)
}

// OffchipBytes returns total off-chip traffic in bytes.
func (c *Counters) OffchipBytes() uint64 {
	return c.OffchipReadUser + c.OffchipReadOS + c.OffchipWriteback
}
