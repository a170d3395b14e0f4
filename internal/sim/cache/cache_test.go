package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestConfigSets(t *testing.T) {
	c := Config{SizeBytes: 32 << 10, Assoc: 4}
	if got := c.Sets(); got != 128 {
		t.Errorf("32KB 4-way: sets = %d, want 128", got)
	}
	llc := Config{SizeBytes: 12 << 20, Assoc: 16}
	if got := llc.Sets(); got != 12288 {
		t.Errorf("12MB 16-way: sets = %d, want 12288 (non power of two)", got)
	}
}

// peek returns the way holding lineAddr without touching LRU, or nil.
func (c *Cache) peek(lineAddr uint64) *line {
	if w := c.probe(lineAddr, false); w >= 0 {
		return &c.lines[w]
	}
	return nil
}

// TestFootprint pins the memory layout: a way is 16 bytes, private
// caches carry no directory, and an LLC carries ceil(TotalCores/64)
// sharer words per way.
func TestFootprint(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 16 {
		t.Errorf("a way is %d bytes, want 16", got)
	}
	for _, g := range []struct{ sockets, cps, words int }{
		{1, 6, 1}, {4, 16, 1}, {1, 65, 2}, {4, 24, 2}, {3, 43, 3}, {4, 48, 3}, {4, 64, 4},
	} {
		s := NewSystem(testSystemConfig(g.sockets, g.cps))
		for _, llc := range s.llcs {
			if len(llc.dir) != g.words*len(llc.lines) {
				t.Errorf("%dx%d: LLC holds %d directory words for %d ways, want %d per way",
					g.sockets, g.cps, len(llc.dir), len(llc.lines), g.words)
			}
		}
		for _, c := range []*Cache{s.cores[0].l1i, s.cores[0].l1d, s.cores[0].l2} {
			if c.dir != nil {
				t.Errorf("%dx%d: a private cache carries %d directory words", g.sockets, g.cps, len(c.dir))
			}
		}
	}
}

func TestProbeInsertInvalidate(t *testing.T) {
	c := New(Config{SizeBytes: 4096, Assoc: 2}) // 32 sets
	if c.probe(100, true) >= 0 {
		t.Fatal("empty cache must miss")
	}
	if _, v, _ := c.insert(100, 0); v.valid() {
		t.Fatal("insert into empty set must not evict")
	}
	if c.probe(100, true) < 0 {
		t.Fatal("inserted line must hit")
	}
	if was, _ := c.invalidate(100); was.tag != 101 {
		t.Fatalf("invalidate: tag=%d", was.tag)
	}
	if c.probe(100, false) >= 0 {
		t.Fatal("invalidated line must miss")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{SizeBytes: 2 * 64, Assoc: 2}) // 1 set, 2 ways
	c.insert(1, 0)
	c.insert(2, 0)
	c.probe(1, true) // make 1 MRU
	_, v, _ := c.insert(3, 0)
	if v.tag != 2+1 {
		t.Fatalf("expected eviction of line 2, got tag=%d", v.tag)
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Fatal("lines 1 and 3 must remain")
	}
}

func TestInsertExistingReuses(t *testing.T) {
	c := New(Config{SizeBytes: 2 * 64, Assoc: 2})
	c.insert(7, 0)
	slot, v, _ := c.insert(7, flagDirty)
	if v.valid() {
		t.Fatal("reinsert must not evict")
	}
	if c.lines[slot].flags&flagDirty == 0 {
		t.Fatal("reinsert must merge flags")
	}
	if n := validLines(c); n != 1 {
		t.Fatalf("footprint = %d, want 1", n)
	}
}

// validLines counts c's valid ways.
func validLines(c *Cache) int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid() {
			n++
		}
	}
	return n
}

// Property: a cache never holds more lines than its capacity and never
// holds duplicates.
func TestQuickCacheInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{SizeBytes: 64 * 64, Assoc: 4}) // 16 sets x 4 ways
		seen := map[uint64]bool{}
		for i := 0; i < 2000; i++ {
			la := uint64(rng.Intn(500))
			c.insert(la, 0)
			seen[la] = true
		}
		if validLines(c) > 64 {
			return false
		}
		// No duplicates: probing any line and invalidating it once must
		// remove it completely.
		for la := range seen {
			if c.Contains(la) {
				c.invalidate(la)
				if c.Contains(la) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestVictimSelectionOrder pins insert's victim-selection semantics so
// refactors cannot silently change replacement behaviour: invalid ways
// are preferred over valid ones (lowest index first, ignoring LRU
// stamps), so a way freed by invalidate is the next victim of its set;
// only a fully-valid set falls back to true-LRU.
func TestVictimSelectionOrder(t *testing.T) {
	mk := func() *Cache {
		// One set, four ways: lines 0..3 fill ways 0..3 in order.
		c := New(Config{SizeBytes: 4 * 64, Assoc: 4})
		for la := uint64(0); la < 4; la++ {
			c.insert(la, 0)
		}
		return c
	}

	t.Run("invalidated way is reused first", func(t *testing.T) {
		c := mk()
		c.invalidate(1)
		// Way 0 (line 0) holds the oldest LRU stamp, but the freed way
		// must win.
		if _, v, _ := c.insert(10, 0); v.valid() {
			t.Fatalf("insert into a set with a free way evicted line %#x", v.tag-1)
		}
		for _, la := range []uint64{0, 2, 3, 10} {
			if !c.Contains(la) {
				t.Fatalf("line %#x lost", la)
			}
		}
	})

	t.Run("lowest-indexed invalid way wins", func(t *testing.T) {
		c := mk()
		c.invalidate(3) // later way freed first...
		c.invalidate(1) // ...then an earlier way
		c.insert(10, 0)
		c.insert(11, 0)
		// Way 1 must be filled before way 3 regardless of freeing order:
		// the scan stops at the first invalid way.
		if got := c.lines[1].tag - 1; got != 10 {
			t.Fatalf("way 1 holds line %#x, want 10", got)
		}
		if got := c.lines[3].tag - 1; got != 11 {
			t.Fatalf("way 3 holds line %#x, want 11", got)
		}
	})

	t.Run("full set falls back to true LRU", func(t *testing.T) {
		c := mk()
		c.probe(0, true) // refresh line 0: line 1 is now LRU
		_, v, _ := c.insert(10, 0)
		if !v.valid() || v.tag-1 != 1 {
			t.Fatalf("evicted %#x (valid=%v), want LRU line 1", v.tag-1, v.valid())
		}
	})
}
