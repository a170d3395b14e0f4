package cache

import (
	"math"
	"math/rand"
	"testing"
)

// refVictimWay is the branchy victim loop that victimWay replaced, kept
// as the reference: the lowest-indexed invalid way, else the first
// valid way with the smallest stamp.
func refVictimWay(ways []line) int {
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
	return vi
}

// randomSet fills ways with a random set that keeps invariant 7:
// invalid ways at stamp 0, valid ways at 1..clock. Stamps come from a
// narrow range (many ties), a wide one, or the top of the clock range.
// It returns the largest stamp, the clock the set needs.
func randomSet(rng *rand.Rand, ways []line) uint32 {
	pInvalid := []float64{0, 0, 0.1, 0.5, 1}[rng.Intn(5)] // full sets twice as often
	lo, span := uint32(1), uint32(1+rng.Intn(len(ways)))
	switch rng.Intn(3) {
	case 1:
		span = math.MaxUint32 / 2
	case 2:
		lo = math.MaxUint32 - span + 1
	}
	clock := uint32(0)
	for i := range ways {
		ways[i] = line{owner: -1}
		if rng.Float64() < pInvalid {
			continue
		}
		ways[i] = line{tag: uint64(i) + 1, lru: lo + uint32(rng.Int63n(int64(span))), owner: -1}
		clock = max(clock, ways[i].lru)
	}
	return clock
}

// TestVictimWayMatchesReference: the branch-free victimWay picks the
// way the old loop picked on random sets with invalid ways, tied stamps
// and full sets, at every associativity the configurations use (2, 4,
// 8, 16) and others around them.
func TestVictimWayMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, assoc := range []int{1, 2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 64} {
		c := New(Config{SizeBytes: assoc * LineBytes, Assoc: assoc})
		for trial := 0; trial < 4000; trial++ {
			c.tick = randomSet(rng, c.lines)
			if got, want := c.victimWay(0), refVictimWay(c.lines); got != want {
				t.Fatalf("assoc %d: victimWay picked way %d, the reference way %d; set %+v", assoc, got, want, c.lines)
			}
		}
	}
}

// TestVictimKeyOrder pins that the (stamp, way) packing cannot collide
// for any associativity Validate accepts: every way index up to
// MaxAssoc-1 survives the packing, keys order by stamp first and way
// second, and the last way of one stamp still sorts below the first
// way of the next.
func TestVictimKeyOrder(t *testing.T) {
	ways := []int{0, 1, 2, MaxAssoc/2 - 1, MaxAssoc - 2, MaxAssoc - 1}
	for _, st := range []uint32{0, 1, 2, math.MaxUint32 / 2, math.MaxUint32 - 1, math.MaxUint32} {
		for k, w := range ways {
			key := victimKey(st, w)
			if int(uint32(key)) != w || uint32(key>>32) != st {
				t.Fatalf("victimKey(%d, %d) = %#x does not unpack to its stamp and way", st, w, key)
			}
			if k > 0 && victimKey(st, ways[k-1]) >= key {
				t.Fatalf("victimKey(%d, %d) does not sort below victimKey(%d, %d)", st, ways[k-1], st, w)
			}
			if st < math.MaxUint32 && key >= victimKey(st+1, 0) {
				t.Fatalf("victimKey(%d, %d) does not sort below victimKey(%d, 0)", st, w, st+1)
			}
		}
	}
	cfg := DefaultSystemConfig()
	for _, a := range []int{0, -1, MaxAssoc + 1} {
		cfg.LLC.Assoc = a
		if cfg.Validate() == nil {
			t.Errorf("Validate accepted LLC associativity %d", a)
		}
	}
	cfg.LLC.Assoc = MaxAssoc
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate rejected LLC associativity MaxAssoc: %v", err)
	}
}
