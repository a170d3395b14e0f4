// Package tlb models the two-level TLB hierarchy of the Xeon X5670:
// small first-level instruction and data TLBs backed by a shared
// second-level TLB, with a fixed-cost page walk on a second-level miss.
// TLB-walk cycles feed the "Memory cycles" bar of Figure 1, following
// the paper's accounting (Section 3.1).
package tlb

import (
	"math/bits"

	"cloudsuite/internal/sim/checkpoint"
)

// Config sizes one TLB.
type Config struct {
	Entries int
	Assoc   int
}

// Result classifies a translation.
type Result uint8

// Translation outcomes.
const (
	HitL1 Result = iota
	HitL2
	Walk
)

// TLB is a set-associative translation buffer with LRU replacement.
type TLB struct {
	sets    int //simlint:ok checkpointcov construction-time geometry, checked by LoadState instead of restored
	assoc   int //simlint:ok checkpointcov construction-time geometry, checked by LoadState instead of restored
	tags    []uint64
	stamps  []uint64
	tick    uint64
	setMask uint64 //simlint:ok checkpointcov derived from sets at construction
}

// New returns an empty TLB.
func New(cfg Config) *TLB {
	if cfg.Assoc <= 0 {
		cfg.Assoc = 4
	}
	if cfg.Entries < cfg.Assoc {
		cfg.Entries = cfg.Assoc
	}
	sets := cfg.Entries / cfg.Assoc
	// Round sets down to a power of two for cheap indexing.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	return &TLB{
		sets:    sets,
		assoc:   cfg.Assoc,
		tags:    make([]uint64, sets*cfg.Assoc),
		stamps:  make([]uint64, sets*cfg.Assoc),
		setMask: uint64(sets - 1),
	}
}

// Lookup probes the TLB for the page containing addr (page number =
// addr>>12) and inserts it on miss. It reports whether the probe hit.
func (t *TLB) Lookup(addr uint64) bool {
	page := addr >> 12
	set := int(page&t.setMask) * t.assoc
	tags := t.tags[set : set+t.assoc]
	stamps := t.stamps[set : set+t.assoc]
	t.tick++
	for w, tag := range tags {
		if tag == page+1 { // +1 so a zero tag is never valid
			stamps[w] = t.tick
			return true
		}
	}
	v := oldest(stamps)
	tags[v] = page + 1
	stamps[v] = t.tick
	return false
}

// oldest returns the index of the first minimum of stamps. Empty
// entries hold stamp 0, so they fill first. The scan is branch-free:
// stamps sit in random order, so a compare-and-branch would mispredict;
// a borrow mask selects the older stamp and its index instead.
func oldest(stamps []uint64) int {
	victim, best := 0, stamps[0]
	for w := 1; w < len(stamps); w++ {
		_, older := bits.Sub64(stamps[w], best, 0)
		m := -older
		best ^= (best ^ stamps[w]) & m
		victim ^= (victim ^ w) & int(m)
	}
	return victim
}

// SaveState serializes the TLB's warm contents (tags, LRU stamps, and
// the LRU clock) into a checkpoint.
func (t *TLB) SaveState(w *checkpoint.Writer) {
	w.Tag("tlb")
	w.U64(t.tick)
	w.U64s(t.tags)
	w.U64s(t.stamps)
}

// LoadState restores state saved by SaveState into a TLB of identical
// geometry; a mismatch is reported through the reader, as is a stamp
// past the LRU clock, which would outrank every entry filled after the
// restore.
func (t *TLB) LoadState(r *checkpoint.Reader) {
	r.Expect("tlb")
	t.tick = r.U64()
	r.U64s(t.tags)
	r.U64s(t.stamps)
	if r.Err() != nil {
		return
	}
	for i, st := range t.stamps {
		if st > t.tick {
			r.Failf("tlb snapshot entry %d has LRU stamp %d past the clock %d", i, st, t.tick)
			return
		}
	}
}

// Hierarchy bundles the first-level I/D TLBs with the shared second
// level, mirroring the measured machine.
type Hierarchy struct {
	ITLB *TLB
	DTLB *TLB
	STLB *TLB
	// WalkCycles is the fixed page-walk cost on a second-level miss.
	WalkCycles int //simlint:ok checkpointcov construction-time latency configuration, identical for equal configs
	// L2Cycles is the added cost of a first-level miss that hits the STLB.
	L2Cycles int //simlint:ok checkpointcov construction-time latency configuration, identical for equal configs
}

// NewHierarchy returns a Westmere-like TLB hierarchy.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{
		ITLB:       New(Config{Entries: 128, Assoc: 4}),
		DTLB:       New(Config{Entries: 64, Assoc: 4}),
		STLB:       New(Config{Entries: 512, Assoc: 4}),
		WalkCycles: 30,
		L2Cycles:   7,
	}
}

// SaveState serializes all three TLBs of the hierarchy.
func (h *Hierarchy) SaveState(w *checkpoint.Writer) {
	h.ITLB.SaveState(w)
	h.DTLB.SaveState(w)
	h.STLB.SaveState(w)
}

// LoadState restores all three TLBs of the hierarchy.
func (h *Hierarchy) LoadState(r *checkpoint.Reader) {
	h.ITLB.LoadState(r)
	h.DTLB.LoadState(r)
	h.STLB.LoadState(r)
}

// TranslateI translates an instruction fetch and returns the added
// latency in cycles together with the outcome class.
func (h *Hierarchy) TranslateI(pc uint64) (int, Result) {
	if h.ITLB.Lookup(pc) {
		return 0, HitL1
	}
	if h.STLB.Lookup(pc) {
		return h.L2Cycles, HitL2
	}
	return h.L2Cycles + h.WalkCycles, Walk
}

// TranslateD translates a data access and returns the added latency in
// cycles together with the outcome class.
func (h *Hierarchy) TranslateD(addr uint64) (int, Result) {
	if h.DTLB.Lookup(addr) {
		return 0, HitL1
	}
	if h.STLB.Lookup(addr) {
		return h.L2Cycles, HitL2
	}
	return h.L2Cycles + h.WalkCycles, Walk
}
