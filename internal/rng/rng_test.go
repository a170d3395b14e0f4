package rng

import (
	"math"
	"testing"

	"cloudsuite/internal/sim/checkpoint"
)

func TestDeterministicPerSeed(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if New(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("nearby seeds look correlated: %d/1000 equal draws", same)
	}
}

func TestBoundsAndPanics(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Int63n(1e12); v < 0 || v >= 1e12 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if v := r.Int63(); v < 0 {
			t.Fatalf("Int63 negative: %d", v)
		}
	}
	for _, f := range []func(){
		func() { r.Intn(0) },
		func() { r.Int63n(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("non-positive bound must panic")
				}
			}()
			f()
		}()
	}
}

func TestUniformity(t *testing.T) {
	r := New(1)
	const buckets, draws = 16, 160000
	var hist [buckets]int
	for i := 0; i < draws; i++ {
		hist[r.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, n := range hist {
		if math.Abs(float64(n)-want) > want*0.05 {
			t.Fatalf("bucket %d has %d draws, want ~%.0f", b, n, want)
		}
	}
}

// saveHash serializes a stream position and returns its content hash.
func saveHash(r *Rand) [32]byte {
	w := checkpoint.NewWriter()
	r.SaveState(w)
	return w.Snapshot("t").Hash()
}

// TestSaveLoadSaveByteEquality is the round-trip property the live-
// points format rests on: save -> load -> save is byte-identical, and
// the restored stream continues exactly where the saved one stood.
func TestSaveLoadSaveByteEquality(t *testing.T) {
	r := New(99)
	for i := 0; i < 1234; i++ {
		r.Uint64()
	}
	first := saveHash(r)

	w := checkpoint.NewWriter()
	r.SaveState(w)
	fresh := New(0)
	fresh.LoadState(w.Snapshot("t").Reader())
	if got := saveHash(fresh); got != first {
		t.Fatal("save -> load -> save is not byte-identical")
	}
	for i := 0; i < 1000; i++ {
		if fresh.Uint64() != r.Uint64() {
			t.Fatalf("restored stream diverged at draw %d", i)
		}
	}
}

func TestZipfSkewAndRange(t *testing.T) {
	r := New(5)
	z := NewZipf(r, 1.001, 9999)
	const draws = 200000
	counts := map[uint64]int{}
	for i := 0; i < draws; i++ {
		k := z.Next()
		if k > 9999 {
			t.Fatalf("draw %d out of range", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] {
		t.Fatalf("distribution not monotonically skewed: c0=%d c1=%d c10=%d",
			counts[0], counts[1], counts[10])
	}
	// Head mass: a Zipf(~1) over 10k keys concentrates heavily up front.
	head := 0
	for k := uint64(0); k < 100; k++ {
		head += counts[k]
	}
	if frac := float64(head) / draws; frac < 0.3 {
		t.Fatalf("head-100 mass %.2f, want >= 0.3", frac)
	}
}

func TestZipfDeterministicThroughRand(t *testing.T) {
	za := NewZipf(New(3), 1.1, 1000)
	zb := NewZipf(New(3), 1.1, 1000)
	for i := 0; i < 1000; i++ {
		if za.Next() != zb.Next() {
			t.Fatalf("equal-seed zipf streams diverged at draw %d", i)
		}
	}
}

// int63nTwoDivisions is the rejection rule Int63n used before it
// dropped to one division per draw, kept as the reference it must
// match draw for draw.
func int63nTwoDivisions(r *Rand, n int64) int64 {
	max := uint64(1)<<63 - 1
	limit := max - max%uint64(n)
	for {
		v := r.Uint64() >> 1
		if v < limit {
			return int64(v % uint64(n))
		}
	}
}

// TestInt63nMatchesTwoDivisionRule: Int63n accepts exactly the draws
// the two-division rule accepts, so every stream keeps its values and
// its position. The bounds near 2^62 and 2^63 reject often, so both
// branches of the rule run.
func TestInt63nMatchesTwoDivisionRule(t *testing.T) {
	bounds := []int64{1, 2, 3, 7, 1e12, 1<<62 - 1, 1<<62 + 1, math.MaxInt64}
	for k := 0; k < 63; k++ {
		bounds = append(bounds, 1<<k)
	}
	for _, n := range bounds {
		got, want := New(n), New(n)
		for i := 0; i < 2000; i++ {
			if g, w := got.Int63n(n), int63nTwoDivisions(want, n); g != w {
				t.Fatalf("n=%d draw %d: Int63n = %d, two-division rule = %d", n, i, g, w)
			}
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("n=%d: streams consumed different numbers of draws", n)
		}
	}
}
