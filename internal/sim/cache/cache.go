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

// line is one cache line's bookkeeping. Directory fields (sharers,
// owner) are used only in LLC instances.
type line struct {
	tag     uint64 // line address + 1; 0 means invalid
	lru     uint64
	sharers sharerSet // global core ids with a private copy
	owner   int16     // global core id holding the line Modified, or -1
	flags   lineFlags
}

func (l *line) valid() bool { return l.tag != 0 }

// Cache is one set-associative cache with true-LRU replacement.
type Cache struct {
	cfg   Config //simlint:ok checkpointcov construction-time configuration; LoadState geometry-checks against it instead of restoring it
	sets  int    //simlint:ok checkpointcov derived from cfg at construction, geometry-checked by LoadState
	assoc int    //simlint:ok checkpointcov derived from cfg at construction, geometry-checked by LoadState
	lines []line
	tick  uint64
}

// New returns an empty cache.
func New(cfg Config) *Cache {
	sets := cfg.Sets()
	c := &Cache{cfg: cfg, sets: sets, assoc: cfg.Assoc}
	c.lines = make([]line, sets*cfg.Assoc)
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) setBase(lineAddr uint64) int {
	return int(lineAddr%uint64(c.sets)) * c.assoc
}

// probe returns the way holding lineAddr, or nil. On hit the LRU stamp
// is refreshed when touch is true.
func (c *Cache) probe(lineAddr uint64, touch bool) *line {
	base := c.setBase(lineAddr)
	tag := lineAddr + 1
	ways := c.lines[base : base+c.assoc]
	for i := range ways {
		if ways[i].tag == tag {
			if touch {
				c.tick++
				ways[i].lru = c.tick
			}
			return &ways[i]
		}
	}
	return nil
}

// Contains reports whether the cache holds lineAddr without touching LRU.
func (c *Cache) Contains(lineAddr uint64) bool { return c.probe(lineAddr, false) != nil }

// insert places lineAddr into the cache, evicting a way if the set is
// full. It returns the victim's state so the caller can handle
// writebacks and back-invalidation. If the line was already present it
// is reused.
//
// Victim-selection order (pinned by TestVictimSelectionOrder): invalid
// ways are always preferred over valid ones, taking the lowest-indexed
// invalid way regardless of LRU stamps — in particular, a way freed by
// invalidate (whose stamp resets to zero) is refilled by the next
// insert into its set. Only when every way is valid does true-LRU pick
// the smallest stamp.
func (c *Cache) insert(lineAddr uint64, fl lineFlags) (victim line, evicted bool, slot *line) {
	if l := c.probe(lineAddr, true); l != nil {
		l.flags |= fl
		return line{}, false, l
	}
	base := c.setBase(lineAddr)
	ways := c.lines[base : base+c.assoc]
	vi := 0
	for i := range ways {
		if !ways[i].valid() {
			vi = i
			break
		}
		if ways[i].lru < ways[vi].lru {
			vi = i
		}
	}
	v := ways[vi]
	c.tick++
	ways[vi] = line{tag: lineAddr + 1, lru: c.tick, flags: fl, owner: -1}
	return v, v.valid(), &ways[vi]
}

// invalidate removes lineAddr if present and returns its prior state.
func (c *Cache) invalidate(lineAddr uint64) (was line, ok bool) {
	if l := c.probe(lineAddr, false); l != nil {
		was = *l
		*l = line{owner: -1}
		return was, true
	}
	return line{}, false
}

// FootprintLines reports the number of valid lines (tests).
func (c *Cache) FootprintLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid() {
			n++
		}
	}
	return n
}
