package cache

import (
	"math/rand"
	"testing"
)

// polluterLines is the span of the polluter-like streams below: 3 MB of
// lines, one polluter thread's share of Figure 4's 6 MB pollution, so
// loads miss the L1-D and L2 and mostly hit the 12 MB LLC.
const polluterLines = 3 << 20 / LineBytes

// polluterStream returns n random line addresses within polluterLines
// of a base far from every workload region, drawn up front so the
// benchmarks time the cache and not the generator.
func polluterStream(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint64, n)
	for i := range out {
		out[i] = 0x20_0000_0000>>LineShift + uint64(rng.Intn(polluterLines))
	}
	return out
}

// BenchmarkInsert times one insert into a full Table-1 L1-D on a random
// 3 MB line stream: nearly every insert misses and evicts the LRU way
// of a set whose stamps sit in random order.
func BenchmarkInsert(b *testing.B) {
	c := New(DefaultSystemConfig().L1D)
	lines := polluterStream(1<<16, 1)
	for _, la := range lines {
		c.insert(la, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.insert(lines[i&(len(lines)-1)], 0)
	}
}

// BenchmarkPolluterLoad times one AccessData load of a cache-polluter
// thread on the Table-1 memory system, all prefetchers on, after a
// warm-up that fills the L1-D, L2 and the polluter's share of the LLC.
func BenchmarkPolluterLoad(b *testing.B) {
	s := NewSystem(DefaultSystemConfig())
	lines := polluterStream(1<<18, 2)
	now := int64(0)
	for _, la := range lines {
		s.AccessData(0, la<<LineShift, false, false, now)
		now += 4
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AccessData(0, lines[i&(len(lines)-1)]<<LineShift, false, false, now)
		now += 4
	}
}
