// Package rng provides the deterministic random stream used by trace
// emitters and workload models.
//
// It exists because checkpointed live-points need the generator half of
// the machine to be serializable: math/rand.Rand hides its state, so a
// warm image could only re-derive stream positions by replaying the
// workload to the warm point. This Rand exposes SaveState/LoadState
// over the checkpoint Writer/Reader, making the RNG a first-class part
// of the warm-image format.
//
// The core generator is xoshiro256** (Blackman/Vigna): 256 bits of
// state, four uint64 words, equidistributed in 4 dimensions and far
// stronger than the linear-congruential streams these workload models
// statistically need. Seeding runs the 64-bit seed through SplitMix64
// so nearby seeds (thread seeds differ by small offsets) land in
// uncorrelated regions of the state space.
package rng

import (
	"math/bits"

	"cloudsuite/internal/sim/checkpoint"
)

// Rand is a deterministic, serializable random stream. It implements
// the subset of math/rand.Rand the workload models use, with identical
// method contracts (but different streams — swapping the generator
// changes every workload's instruction stream, which is why the
// goldens were regenerated when this package was introduced).
//
// The zero value is not valid; use New.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances x and returns the next SplitMix64 output. It is
// the canonical seeding PRNG for xoshiro-family generators.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from seed. Streams with equal seeds are
// identical; the whole simulation's determinism contract rests on that.
func New(seed int64) *Rand {
	r := &Rand{}
	x := uint64(seed)
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state; SplitMix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Int63 returns a non-negative int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive bound")
	}
	// Unbiased rejection sampling over the top 63 bits: accept v when
	// the whole block of n values holding it fits in [0, max], which is
	// v < max-max%n with one division instead of two.
	const max = uint64(1)<<63 - 1
	for {
		v := r.Uint64() >> 1
		rem := v % uint64(n)
		if v-rem <= max-uint64(n) {
			return int64(rem)
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive bound")
	}
	return int(r.Int63n(int64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// SaveState serializes the stream position.
func (r *Rand) SaveState(w *checkpoint.Writer) {
	w.Tag("rng")
	for _, v := range r.s {
		w.U64(v)
	}
}

// LoadState restores a stream position written by SaveState.
func (r *Rand) LoadState(rd *checkpoint.Reader) {
	rd.Expect("rng")
	for i := range r.s {
		r.s[i] = rd.U64()
	}
}
