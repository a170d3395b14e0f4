package obs

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file implements the metrics registry. Design constraints:
//
//   - Zero-allocation hot path. Recording (Counter.Add, Histogram.Observe)
//     touches only pre-allocated atomics — no maps,
//     no locks, no interface boxing. Handles are resolved once by name
//     (a locked map lookup) and then held by the instrumented layer.
//   - Nil-safe handles. A nil Counter/Histogram no-ops, so call
//     sites record unconditionally and disarmed runs pay one nil check.
//   - Snapshots. A Snapshot is a plain-data copy of every metric, and
//     PhaseBreakdown attributes its engine phase time. Snapshots
//     marshal to deterministic JSON (encoding/json sorts map keys).

// Counter is a monotonically-increasing count.
type Counter struct{ v atomic.Int64 }

// Add increases the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 when nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets is the histogram resolution: power-of-two buckets over
// the observed value (nanoseconds for wall-time histograms), bucket k
// holding values in [2^k, 2^(k+1)). 63 buckets cover every positive
// int64; bucket 0 also absorbs zero.
const histBuckets = 63

// Histogram records a distribution of non-negative int64 observations
// — by convention wall-time durations in nanoseconds. Count, sum,
// min/max, and log2 buckets are all maintained with atomics.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// newHistogram returns a histogram ready to observe; min starts at
// MaxInt64 so the first observation always publishes it.
func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one value. Negative values (a clock anomaly —
// impossible with the monotonic stamps obs hands out, but guarded
// anyway) are clamped to zero so the histogram stays well-formed.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if cur <= v || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// bucketOf maps a non-negative value to its power-of-two bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) - 1
}

// Registry holds named metrics. Handle resolution (Counter,
// Histogram) is get-or-create under a lock; the returned handles are
// stable for the registry's lifetime and record lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Bucket is one non-empty histogram bucket: values in
// [Lo, 2*Lo) — Lo is 2^k, except bucket zero where Lo is 0.
type Bucket struct {
	Lo    int64 `json:"lo_ns"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the plain-data copy of one histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	SumNS   int64    `json:"sum_ns"`
	MinNS   int64    `json:"min_ns"`
	MaxNS   int64    `json:"max_ns"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a registry's metrics. It
// marshals to deterministic JSON (map keys sort) — the -obs-out
// metrics file is a Snapshot.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every metric. Individual metrics are read
// atomically; the snapshot as a whole is not a cross-metric atomic cut
// (concurrent recording may land between reads), which is fine for the
// monotonic counters and histograms this registry holds.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	//simlint:ok maporder builds a map; order-insensitive, and JSON emission sorts keys
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	//simlint:ok maporder builds a map; order-insensitive, and JSON emission sorts keys
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count: h.count.Load(),
			SumNS: h.sum.Load(),
		}
		if hs.Count > 0 {
			hs.MinNS = h.min.Load()
			hs.MaxNS = h.max.Load()
		}
		for k := 0; k < histBuckets; k++ {
			if n := h.buckets[k].Load(); n > 0 {
				lo := int64(0)
				if k > 0 {
					lo = int64(1) << k
				}
				hs.Buckets = append(hs.Buckets, Bucket{Lo: lo, Count: n})
			}
		}
		s.Histograms[name] = hs
	}
	return s
}

// PhaseBreakdown sums the engine phase histograms of the snapshot and
// returns the total attributed nanoseconds plus the per-phase share of
// that total. It is the legibility product the registry exists for:
// "where does wall time go inside a run".
func (s Snapshot) PhaseBreakdown() (totalNS int64, share map[string]float64) {
	share = map[string]float64{}
	//simlint:ok maporder commutative sum into a map; order-insensitive
	for name, h := range s.Histograms {
		if phaseName, ok := cutPrefix(name, "engine.phase."); ok {
			totalNS += h.SumNS
			share[phaseName] = float64(h.SumNS)
		}
	}
	//simlint:ok maporder in-place normalization of a map; order-insensitive
	for name := range share {
		if totalNS > 0 {
			share[name] /= float64(totalNS)
		} else {
			share[name] = math.NaN()
		}
	}
	return totalNS, share
}

// cutPrefix is strings.CutPrefix without pulling strings into the
// record path's import graph. (Snapshot-side only.)
func cutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return s, false
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
