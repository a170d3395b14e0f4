// Package cache implements the on-chip memory system of the simulated
// server: private L1 instruction/data caches and a private unified L2
// per core, backed by an inclusive shared last-level cache (LLC) per
// socket with directory-based coherence, hardware prefetchers, and an
// off-chip DRAM model.
//
// The organisation mirrors Table 1 of the paper: 32KB split L1 I/D with
// 4-cycle latency, 256KB per-core L2 with 6-cycle (additional) latency,
// and a 12MB shared LLC with 29-cycle latency, with adjacent-line, HW
// (stride) and DCU streamer prefetchers that can be individually
// disabled like the BIOS knobs used for Figure 5.
package cache

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// LineBytes is the cache line size.
const LineBytes = 64

// LineShift converts byte addresses to line addresses.
const LineShift = 6

// Config sizes one cache.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Assoc is the set associativity.
	Assoc int
	// LatencyCycles is the absolute load-to-use latency of a hit in this
	// cache (not incremental over the previous level).
	LatencyCycles int
}

// MaxAssoc is the largest associativity SystemConfig.Validate accepts:
// victim selection packs a way's index into 32 bits.
const MaxAssoc = math.MaxUint32

// Sets returns the number of sets implied by the configuration.
// Non-power-of-two set counts are allowed (the X5670's 12MB LLC has
// 12288 sets across its slices); indexing uses modulo.
func (c Config) Sets() int {
	s := c.SizeBytes / (LineBytes * c.Assoc)
	if s < 1 {
		s = 1
	}
	return s
}

type lineFlags uint8

const (
	flagDirty lineFlags = 1 << iota
	flagPrefetched
	flagInstr
	// flagExcl marks a private-cache line held with write permission, so
	// repeated stores skip the directory lookup.
	flagExcl
)

// line is one way's bookkeeping: 16 bytes. owner is used only in LLC
// instances; an LLC's sharer vectors live beside its ways in Cache.dir.
type line struct {
	tag   uint64 // line address + 1; 0 means invalid
	lru   uint32 // the cache clock at the last touch; 0 in invalid ways
	owner int16  // global core id holding the line Modified, or -1
	flags lineFlags
}

func (l *line) valid() bool { return l.tag != 0 }

// Cache is one set-associative cache with true-LRU replacement. An LLC
// instance also holds the socket's directory: one sharer vector per
// way, sized to the machine rather than to MaxCores.
type Cache struct {
	sets  int //simlint:ok checkpointcov construction-time geometry; LoadState checks the image's way count against len(lines)
	assoc int //simlint:ok checkpointcov construction-time geometry; LoadState checks the image's way count against len(lines)
	// dirCores is the number of cores the directory tracks (the
	// machine's TotalCores; 0 in private caches) and dirWords its
	// sharer-vector width, ceil(dirCores/64) words.
	dirCores int
	dirWords int
	lines    []line
	// dir holds way i's sharer vector at dir[i*dirWords:(i+1)*dirWords];
	// nil in private caches.
	dir []uint64
	// tick is the LRU clock; stamp advances it.
	tick uint32
}

// New returns an empty private cache, which holds no directory state.
func New(cfg Config) *Cache { return newDirectory(cfg, 0) }

// newDirectory returns an empty cache whose ways also carry the
// directory state of a machine of cores cores: an LLC.
func newDirectory(cfg Config, cores int) *Cache {
	sets := cfg.Sets()
	c := &Cache{sets: sets, assoc: cfg.Assoc, dirCores: cores, dirWords: (cores + 63) / 64}
	c.lines = make([]line, sets*cfg.Assoc)
	if c.dirWords > 0 {
		c.dir = make([]uint64, len(c.lines)*c.dirWords)
	}
	return c
}

func (c *Cache) setBase(lineAddr uint64) int {
	return int(lineAddr%uint64(c.sets)) * c.assoc
}

// probe returns the index of the way holding lineAddr, or -1. On hit
// the LRU stamp is refreshed when touch is true.
func (c *Cache) probe(lineAddr uint64, touch bool) int {
	base := c.setBase(lineAddr)
	tag := lineAddr + 1
	ways := c.lines[base : base+c.assoc]
	for i := range ways {
		if ways[i].tag == tag {
			if touch {
				ways[i].lru = c.stamp()
			}
			return base + i
		}
	}
	return -1
}

// Contains reports whether the cache holds lineAddr without touching LRU.
func (c *Cache) Contains(lineAddr uint64) bool { return c.probe(lineAddr, false) >= 0 }

// sharers returns way w's sharer vector (empty in private caches).
func (c *Cache) sharers(w int) sharerSet {
	var s sharerSet
	copy(s.w[:], c.dir[w*c.dirWords:(w+1)*c.dirWords])
	return s
}

// setSharers replaces way w's sharer vector. s must name only cores of
// the machine.
func (c *Cache) setSharers(w int, s sharerSet) {
	copy(c.dir[w*c.dirWords:(w+1)*c.dirWords], s.w[:])
}

// addSharer registers core as a holder of way w's line.
func (c *Cache) addSharer(w, core int) {
	c.dir[w*c.dirWords+core>>6] |= 1 << uint(core&63)
}

// insert places lineAddr into the cache unless it is already present,
// in which case it refreshes the way's stamp and adds fl to its flags.
// It returns the way holding the line and, as fill does, the victim.
// Callers that have just seen lineAddr miss use fill directly.
func (c *Cache) insert(lineAddr uint64, fl lineFlags) (slot int, victim line, victimSharers sharerSet) {
	if w := c.probe(lineAddr, true); w >= 0 {
		c.lines[w].flags |= fl
		return w, line{}, sharerSet{}
	}
	return c.fill(lineAddr, fl)
}

// fill places lineAddr, which the cache must not hold, into its set's
// victim way. It returns the filled way and the victim's state and
// sharers, so the caller can handle writebacks and back-invalidation;
// the victim is invalid when nothing was evicted.
func (c *Cache) fill(lineAddr uint64, fl lineFlags) (slot int, victim line, victimSharers sharerSet) {
	base := c.setBase(lineAddr)
	slot = base + c.victimWay(base)
	victim, victimSharers = c.drop(slot)
	c.lines[slot] = line{tag: lineAddr + 1, lru: c.stamp(), flags: fl, owner: -1}
	return slot, victim, victimSharers
}

// victimWay returns the way of the set at base that a fill replaces:
// the first minimum of (stamp, way). Invalid ways hold stamp 0 and
// valid ways 1..clock (invariant 7, which LoadState enforces), so this
// is the lowest-indexed invalid way when the set has one — a way freed
// by invalidate is refilled next — and otherwise the least recently
// used way, the lowest-indexed among tied stamps (TestVictimSelectionOrder,
// TestVictimWayMatchesReference).
//
// The scan is branch-free: stamps sit in random order within a set, so
// a compare-and-branch mispredicts on a large share of ways. Each way's
// key packs its stamp above its index, which fits the low 32 bits for
// any associativity up to MaxAssoc, and a borrow mask keeps the
// smaller key.
func (c *Cache) victimWay(base int) int {
	best := uint64(math.MaxUint64)
	for i, l := range c.lines[base : base+c.assoc] {
		d, less := bits.Sub64(victimKey(l.lru, i), best, 0)
		best += d & -less
	}
	return int(uint32(best))
}

// victimKey orders ways by stamp, then by index.
func victimKey(lru uint32, way int) uint64 { return uint64(lru)<<32 | uint64(way) }

// stamp advances the LRU clock and returns its new value, the stamp of
// the way being touched. When the clock would wrap, it first rebases.
// Stamps are compared only within a set, and a rebase keeps every
// set's order (tied stamps stay tied), so no victim choice changes.
func (c *Cache) stamp() uint32 {
	if c.tick == math.MaxUint32 {
		c.rebase()
	}
	c.tick++
	return c.tick
}

// rebase renumbers the stamps of every set's valid ways densely from 1,
// keeping their order, and sets the clock to the largest new stamp.
func (c *Cache) rebase() {
	c.tick = 0
	order := make([]int, 0, c.assoc)
	for base := 0; base < len(c.lines); base += c.assoc {
		ways := c.lines[base : base+c.assoc]
		order = order[:0]
		for i := range ways {
			if ways[i].valid() {
				order = append(order, i)
			}
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(ways[a].lru, ways[b].lru) })
		rank, prev := uint32(0), uint32(0)
		for _, i := range order {
			if rank == 0 || ways[i].lru != prev {
				rank++
			}
			prev = ways[i].lru
			ways[i].lru = rank
		}
		c.tick = max(c.tick, rank)
	}
}

// invalidate removes lineAddr if present and returns its prior state
// and sharers; the state is invalid when the line was absent.
func (c *Cache) invalidate(lineAddr uint64) (was line, wasSharers sharerSet) {
	if w := c.probe(lineAddr, false); w >= 0 {
		return c.drop(w)
	}
	return line{}, sharerSet{}
}

// drop empties way w and returns its prior state and sharers (none in
// a private cache).
func (c *Cache) drop(w int) (was line, sh sharerSet) {
	was = c.lines[w]
	c.lines[w] = line{owner: -1}
	if c.dirWords > 0 {
		sh = c.sharers(w)
		c.setSharers(w, sharerSet{})
	}
	return was, sh
}
