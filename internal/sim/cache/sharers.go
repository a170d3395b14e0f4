package cache

import (
	"math/bits"

	"cloudsuite/internal/sim/checkpoint"
)

// sharerWords is the width of a sharerSet in 64-bit words. Four words
// track up to 256 cores, the ceiling of the scale-up study's design
// space. An LLC stores only the ceil(TotalCores/64) words its machine
// can use per way (Cache.dir); sharerSet is the value its directory
// reads and writes them through.
const sharerWords = 4

// MaxCores is the largest core count the LLC directory can track.
// SystemConfig.Validate rejects grids beyond it.
const MaxCores = 64 * sharerWords

// sharerSet is the directory's sharer vector: the set of global core
// ids holding a private copy of a line. It replaces the former flat
// uint32 bitmask, which capped the machine at 32 cores. The zero value
// is the empty set; the struct is copied and compared by value.
type sharerSet struct {
	w [sharerWords]uint64
}

// onlySharer returns the set containing exactly core.
func onlySharer(core int) sharerSet {
	var s sharerSet
	s.add(core)
	return s
}

func (s *sharerSet) add(core int)    { s.w[core>>6] |= 1 << uint(core&63) }
func (s *sharerSet) remove(core int) { s.w[core>>6] &^= 1 << uint(core&63) }

func (s sharerSet) contains(core int) bool { return s.w[core>>6]&(1<<uint(core&63)) != 0 }

func (s sharerSet) empty() bool {
	for _, w := range s.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// count returns the number of sharers.
func (s sharerSet) count() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// only reports whether the set is exactly {core} — the directory's
// exclusivity test for a Modified owner.
func (s sharerSet) only(core int) bool {
	for i, w := range s.w {
		want := uint64(0)
		if i == core>>6 {
			want = 1 << uint(core&63)
		}
		if w != want {
			return false
		}
	}
	return true
}

// next returns the smallest member >= from, or -1 when none remains.
// Iterate ascending with:
//
//	for c := s.next(0); c >= 0; c = s.next(c + 1)
func (s sharerSet) next(from int) int {
	if from < 0 {
		from = 0
	}
	for i := from >> 6; i < sharerWords; i++ {
		w := s.w[i]
		if i == from>>6 {
			w &^= (1 << uint(from&63)) - 1
		}
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// save serializes the set sparsely: a presence mask of non-zero words
// followed by those words. Typical directory entries hold a handful of
// sharers, so most lines cost one byte plus one word.
func (s sharerSet) save(w *checkpoint.Writer) {
	var mask uint8
	for i, word := range s.w {
		if word != 0 {
			mask |= 1 << uint(i)
		}
	}
	w.U8(mask)
	for _, word := range s.w {
		if word != 0 {
			w.U64(word)
		}
	}
}

// loadSharerSet reads a set written by save. A presence bit past
// sharerWords fails the reader.
func loadSharerSet(r *checkpoint.Reader) sharerSet {
	var s sharerSet
	mask := r.U8()
	if mask>>sharerWords != 0 {
		r.Failf("sharer set mask %#x names words beyond the %d-word vector", mask, sharerWords)
		return s
	}
	for i := 0; i < sharerWords; i++ {
		if mask&(1<<uint(i)) != 0 {
			s.w[i] = r.U64()
		}
	}
	return s
}
