package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
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

func TestProbeInsertInvalidate(t *testing.T) {
	c := New(Config{SizeBytes: 4096, Assoc: 2}) // 32 sets
	if c.probe(100, true) != nil {
		t.Fatal("empty cache must miss")
	}
	_, ev, _ := c.insert(100, 0)
	if ev {
		t.Fatal("insert into empty set must not evict")
	}
	if c.probe(100, true) == nil {
		t.Fatal("inserted line must hit")
	}
	was, ok := c.invalidate(100)
	if !ok || was.tag != 101 {
		t.Fatalf("invalidate: ok=%v tag=%d", ok, was.tag)
	}
	if c.probe(100, false) != nil {
		t.Fatal("invalidated line must miss")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{SizeBytes: 2 * 64, Assoc: 2}) // 1 set, 2 ways
	c.insert(1, 0)
	c.insert(2, 0)
	c.probe(1, true) // make 1 MRU
	v, ev, _ := c.insert(3, 0)
	if !ev || v.tag != 2+1 {
		t.Fatalf("expected eviction of line 2, got evicted=%v tag=%d", ev, v.tag)
	}
	if c.probe(1, false) == nil || c.probe(3, false) == nil {
		t.Fatal("lines 1 and 3 must remain")
	}
}

func TestInsertExistingReuses(t *testing.T) {
	c := New(Config{SizeBytes: 2 * 64, Assoc: 2})
	c.insert(7, 0)
	_, ev, slot := c.insert(7, flagDirty)
	if ev {
		t.Fatal("reinsert must not evict")
	}
	if slot.flags&flagDirty == 0 {
		t.Fatal("reinsert must merge flags")
	}
	if c.FootprintLines() != 1 {
		t.Fatalf("footprint = %d, want 1", c.FootprintLines())
	}
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
		if c.FootprintLines() > 64 {
			return false
		}
		// No duplicates: probing any line and invalidating it once must
		// remove it completely.
		for la := range seen {
			if c.probe(la, false) != nil {
				c.invalidate(la)
				if c.probe(la, false) != nil {
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
		if v, evicted, _ := c.insert(10, 0); evicted {
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
		v, evicted, _ := c.insert(10, 0)
		if !evicted || v.tag-1 != 1 {
			t.Fatalf("evicted %#x (evicted=%v), want LRU line 1", v.tag-1, evicted)
		}
	})
}
