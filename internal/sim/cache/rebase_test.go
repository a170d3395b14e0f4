package cache

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// caches lists every cache array of s: each core's L1-I, L1-D and L2,
// then each socket's LLC.
func (s *System) caches() []*Cache {
	var out []*Cache
	for i := range s.cores {
		cc := &s.cores[i]
		out = append(out, cc.l1i, cc.l1d, cc.l2)
	}
	return append(out, s.llcs...)
}

// clocksNearWrap starts each cache of a fresh system gap(i) touches
// below the 32-bit clock wrap, i indexing s.caches().
func clocksNearWrap(s *System, gap func(i int) uint32) {
	for i, c := range s.caches() {
		c.tick = math.MaxUint32 - gap(i)
	}
}

// TestRebaseKeepsSetOrder: a rebase renumbers each set's valid ways
// 1..k in stamp order, keeps tied stamps tied, leaves invalid ways
// alone and restarts the clock at the largest new stamp.
func TestRebaseKeepsSetOrder(t *testing.T) {
	c := New(Config{SizeBytes: 2 * 4 * 64, Assoc: 4}) // 2 sets x 4 ways
	set := func(base int, stamps ...uint32) {
		for i, st := range stamps {
			if st != 0 {
				c.lines[base+i] = line{tag: uint64(base+i) + 1, lru: st, owner: -1}
			}
		}
	}
	set(0, 4_000_000_000, 0, 17, 3_000_000_000) // way 1 invalid
	set(4, 9, 9, 4_294_967_295, 12)             // ways 4 and 5 tied
	c.tick = math.MaxUint32
	c.rebase()
	want := []uint32{3, 0, 1, 2, 1, 1, 3, 2}
	for i, l := range c.lines {
		if l.lru != want[i] {
			t.Errorf("way %d stamped %d after the rebase, want %d", i, l.lru, want[i])
		}
	}
	if c.tick != 3 {
		t.Errorf("clock %d after the rebase, want 3", c.tick)
	}
}

// TestRebaseDifferential runs one random stream of inserts, touches and
// invalidations through a cache whose clock starts at 0 and through one
// whose clock is pushed just below 2^32 at several fill states, so it
// rebases over and over. Every hit, victim and flag must agree.
func TestRebaseDifferential(t *testing.T) {
	cfg := Config{SizeBytes: 16 * 4 * 64, Assoc: 4} // 16 sets x 4 ways
	ref, wrapped := New(cfg), New(cfg)
	rng := rand.New(rand.NewSource(26))
	rebases := 0
	for op := 0; op < 40_000; op++ {
		if op%5000 == 0 {
			wrapped.tick = max(wrapped.tick, math.MaxUint32-uint32(rng.Intn(300)))
		}
		before := wrapped.tick
		la := uint64(rng.Intn(160))
		switch r := rng.Intn(10); {
		case r < 6:
			fl := lineFlags(rng.Intn(16))
			rs, rv, _ := ref.insert(la, fl)
			ws, wv, _ := wrapped.insert(la, fl)
			if rs != ws || rv.tag != wv.tag || rv.flags != wv.flags {
				t.Fatalf("op %d: insert %d filled way %d evicting %#x; with rebases way %d evicting %#x",
					op, la, rs, rv.tag, ws, wv.tag)
			}
		case r < 9:
			if rw, ww := ref.probe(la, true), wrapped.probe(la, true); rw != ww {
				t.Fatalf("op %d: probe %d hit way %d; with rebases way %d", op, la, rw, ww)
			}
		default:
			rv, _ := ref.invalidate(la)
			wv, _ := wrapped.invalidate(la)
			if rv.tag != wv.tag || rv.flags != wv.flags {
				t.Fatalf("op %d: invalidate %d dropped %#x; with rebases %#x", op, la, rv.tag, wv.tag)
			}
		}
		if wrapped.tick < before {
			rebases++
		}
	}
	if rebases < 8 {
		t.Fatalf("the stream crossed %d rebases, want 8", rebases)
	}
	for i := range ref.lines {
		r, w := ref.lines[i], wrapped.lines[i]
		if r.tag != w.tag || r.flags != w.flags || r.owner != w.owner {
			t.Fatalf("way %d differs at the end: %+v against %+v", i, r, w)
		}
	}
}

// TestRebaseSystemDifferential replays one seeded multi-socket access
// stream through a system whose clocks start at 0 and through one whose
// every cache starts from 16 to 1024 touches below the wrap, with the
// invariant checker armed on the second. Latencies, per-core counters
// and the final contents must agree.
func TestRebaseSystemDifferential(t *testing.T) {
	cfg := testSystemConfig(2, 4)
	ref, wrapped := NewSystem(cfg), NewSystem(cfg)
	clocksNearWrap(wrapped, func(i int) uint32 { return 16 << (i % 7) })
	wrapped.EnableInvariantChecks(16)
	rng := rand.New(rand.NewSource(11))
	cores := cfg.TotalCores()
	for op := 0; op < 20_000; op++ {
		now := int64(op)
		c := rng.Intn(cores)
		addr := (0x4000 + uint64(rng.Intn(3000))) << LineShift
		kernel := rng.Intn(4) == 0
		switch rng.Intn(3) {
		case 0, 1:
			write := rng.Intn(3) == 0
			if r, w := ref.AccessData(c, addr, write, kernel, now), wrapped.AccessData(c, addr, write, kernel, now); r != w {
				t.Fatalf("op %d: access %+v; with rebases %+v", op, r, w)
			}
		default:
			if r, w := ref.FetchInstr(c, addr, now, kernel), wrapped.FetchInstr(c, addr, now, kernel); r != w {
				t.Fatalf("op %d: fetch %+v; with rebases %+v", op, r, w)
			}
		}
	}
	rebased := 0
	for i, w := range wrapped.caches() {
		if w.tick < math.MaxUint32-1024 {
			rebased++
		}
		r := ref.caches()[i]
		for j := range r.lines {
			if r.lines[j].tag != w.lines[j].tag || r.lines[j].flags != w.lines[j].flags || r.lines[j].owner != w.lines[j].owner {
				t.Fatalf("cache %d way %d differs at the end: %+v against %+v", i, j, r.lines[j], w.lines[j])
			}
		}
		if !reflect.DeepEqual(r.dir, w.dir) {
			t.Fatalf("cache %d directory differs at the end", i)
		}
	}
	if rebased != len(wrapped.caches()) {
		t.Errorf("%d of %d caches rebased", rebased, len(wrapped.caches()))
	}
	for c := 0; c < cores; c++ {
		if !reflect.DeepEqual(ref.Ctr(c), wrapped.Ctr(c)) {
			t.Fatalf("core %d counters differ:\n%+v\nwith rebases\n%+v", c, ref.Ctr(c), wrapped.Ctr(c))
		}
	}
}
