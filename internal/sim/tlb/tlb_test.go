package tlb

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cloudsuite/internal/sim/checkpoint"
)

func TestLookupHitAfterInsert(t *testing.T) {
	tb := New(Config{Entries: 64, Assoc: 4})
	addr := uint64(0x1234_5000)
	if tb.Lookup(addr) {
		t.Fatal("cold TLB must miss")
	}
	if !tb.Lookup(addr) {
		t.Fatal("second lookup must hit")
	}
	if !tb.Lookup(addr + 4095) {
		t.Fatal("same page must hit")
	}
	if tb.Lookup(addr + 4096) {
		t.Fatal("next page must miss")
	}
}

func TestLRUWithinSet(t *testing.T) {
	tb := New(Config{Entries: 2, Assoc: 2}) // one set, two ways
	p := func(i uint64) uint64 { return i * 4096 }
	tb.Lookup(p(1))
	tb.Lookup(p(2))
	tb.Lookup(p(1)) // refresh 1
	tb.Lookup(p(3)) // evicts 2
	if !tb.Lookup(p(1)) {
		t.Fatal("page 1 should have survived")
	}
	if tb.Lookup(p(2)) {
		t.Fatal("page 2 should have been evicted")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy()
	addr := uint64(0x7700_0000)
	lat, res := h.TranslateD(addr)
	if res != Walk || lat != h.L2Cycles+h.WalkCycles {
		t.Fatalf("cold translate: res=%v lat=%d", res, lat)
	}
	lat, res = h.TranslateD(addr)
	if res != HitL1 || lat != 0 {
		t.Fatalf("warm translate: res=%v lat=%d", res, lat)
	}
	// Instruction side is independent of data side at L1...
	lat, res = h.TranslateI(addr)
	if res == HitL1 {
		t.Fatal("ITLB should not have the page yet")
	}
	// ...but shares the STLB, so this was only an L2 hit, not a walk.
	if lat != h.L2Cycles {
		t.Fatalf("ITLB miss that hits STLB: lat=%d want %d", lat, h.L2Cycles)
	}
}

// Property: a TLB with N entries never claims more than N distinct
// resident pages (checked by counting hits over a fixed probe set).
func TestQuickCapacityBound(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := New(Config{Entries: 16, Assoc: 4})
		// Touch random pages.
		for i := 0; i < 500; i++ {
			tb.Lookup(uint64(rng.Intn(64)) * 4096)
		}
		// Count residents: a hit on first probe means resident. Probing
		// changes state, so count hits over one pass of all pages.
		hits := 0
		for p := uint64(0); p < 64; p++ {
			set := int(p & tb.setMask)
			resident := false
			for w := set * tb.assoc; w < (set+1)*tb.assoc; w++ {
				if tb.ways[w].tag == p+1 {
					resident = true
				}
			}
			if resident {
				hits++
			}
		}
		return hits <= 16
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// refLookup is the branchy Lookup that the match loop and oldest
// replaced, kept as the reference: one pass that returns on a match
// and otherwise tracks the first entry with the smallest stamp.
func refLookup(t *TLB, addr uint64) bool {
	page := addr >> 12
	set := int(page&t.setMask) * t.assoc
	t.tick++
	victim, oldest := set, t.ways[set].stamp
	for w := set; w < set+t.assoc; w++ {
		if t.ways[w].tag == page+1 {
			t.ways[w].stamp = t.tick
			return true
		}
		if t.ways[w].stamp < oldest {
			victim, oldest = w, t.ways[w].stamp
		}
	}
	t.ways[victim] = way{tag: page + 1, stamp: t.tick}
	return false
}

// TestLookupMatchesReference: from random states with empty entries,
// tied stamps and full sets, at the hierarchy's associativity (4) and
// others, Lookup and the reference agree on every outcome and leave
// identical tags and stamps.
func TestLookupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, assoc := range []int{1, 2, 3, 4, 8, 16} {
		for trial := 0; trial < 200; trial++ {
			got := New(Config{Entries: 4 * assoc, Assoc: assoc})
			span := uint64(1 + rng.Intn(2*assoc)) // narrow spans tie stamps
			for i := range got.ways {
				if rng.Intn(4) == 0 {
					continue // empty: tag and stamp 0
				}
				got.ways[i] = way{tag: uint64(rng.Intn(32)) + 1, stamp: 1 + rng.Uint64()%span}
				got.tick = max(got.tick, got.ways[i].stamp)
			}
			want := &TLB{sets: got.sets, assoc: got.assoc, setMask: got.setMask, tick: got.tick,
				ways: slices.Clone(got.ways)}
			for op := 0; op < 64; op++ {
				addr := uint64(rng.Intn(32)) << 12
				if g, w := got.Lookup(addr), refLookup(want, addr); g != w {
					t.Fatalf("assoc %d: Lookup(%#x) = %v, reference %v", assoc, addr, g, w)
				}
				if !slices.Equal(got.ways, want.ways) {
					t.Fatalf("assoc %d: after Lookup(%#x) ways %v, reference %v",
						assoc, addr, got.ways, want.ways)
				}
			}
		}
	}
}

// TestLoadRejectsStampPastClock: an entry stamped later than the clock
// would outrank every entry filled after the restore, so the load
// fails.
func TestLoadRejectsStampPastClock(t *testing.T) {
	tb := New(Config{Entries: 8, Assoc: 4})
	w := checkpoint.NewWriter()
	w.Tag("tlb")
	w.U64(5) // clock
	tags, stamps := make([]uint64, 8), make([]uint64, 8)
	tags[2], stamps[2] = 0x42, 6
	w.U64s(tags)
	w.U64s(stamps)
	r := w.Snapshot("forged").Reader()
	tb.LoadState(r)
	if r.Err() == nil {
		t.Fatal("an entry stamped 6 under clock 5 loaded without error")
	}
}

// saveTwoArrays is the image layout SaveState writes, encoded from the
// two parallel arrays the TLB kept before each way held its tag beside
// its stamp: the clock, then the length-prefixed tags, then the
// length-prefixed stamps.
func saveTwoArrays(t *TLB) *checkpoint.Snapshot {
	tags, stamps := make([]uint64, len(t.ways)), make([]uint64, len(t.ways))
	for i, e := range t.ways {
		tags[i], stamps[i] = e.tag, e.stamp
	}
	w := checkpoint.NewWriter()
	w.Tag("tlb")
	w.U64(t.tick)
	w.U64s(tags)
	w.U64s(stamps)
	return w.Snapshot("tlb")
}

// TestSaveMatchesTwoArrayLayout: after random traffic at several
// geometries, SaveState writes exactly the bytes of the two-array
// encoding, and loading them into a fresh TLB of the same geometry
// restores every way and the clock.
func TestSaveMatchesTwoArrayLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, cfg := range []Config{{Entries: 4, Assoc: 4}, {Entries: 64, Assoc: 4}, {Entries: 512, Assoc: 4}, {Entries: 48, Assoc: 3}} {
		for trial := 0; trial < 20; trial++ {
			tb := New(cfg)
			for range rng.Intn(600) {
				tb.Lookup(uint64(rng.Intn(256)) << 12)
			}
			w := checkpoint.NewWriter()
			tb.SaveState(w)
			got, want := w.Snapshot("tlb"), saveTwoArrays(tb)
			if got.Size() != want.Size() || got.Hash() != want.Hash() {
				t.Fatalf("%+v: SaveState wrote %d bytes unlike the two-array layout's %d", cfg, got.Size(), want.Size())
			}
			back := New(cfg)
			r := got.Reader()
			back.LoadState(r)
			if err := r.Err(); err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
			if back.tick != tb.tick || !slices.Equal(back.ways, tb.ways) {
				t.Fatalf("%+v: restored TLB differs from the saved one", cfg)
			}
		}
	}
}
