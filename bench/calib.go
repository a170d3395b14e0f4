package main

import (
	"runtime"
	"sync"
	"time"
)

// Host-speed calibration. The reference host is shared, and its speed
// drifts by up to a third within minutes (README.md, "Noise"), far more
// than any repetition inside a run can average away. So each child times
// a fixed kernel that the benchmark owns after set-up and, in an untraced
// run, after every measured pass, and its timings are scaled by calibRef
// ÷ the kernel's median time. A timing then reads as seconds on the
// reference host at its usual speed. No change to the program can move
// the kernel.

// calibRef is the kernel's median time on the reference host, in seconds.
const calibRef = 0.060

// calibChain is a random cycle of indices through 8 MB, more than a host
// core's private caches hold. A child builds it before its set-up, so it
// sits at the same place in every child's heap.
var calibChain = sync.OnceValue(func() []uint32 {
	const n = 2 << 20
	a := make([]uint32, n)
	for i := range a {
		a[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- { // Sattolo's shuffle: one cycle through every slot
		x = xorshift(x)
		j := int(x % uint64(i))
		a[i], a[j] = a[j], a[i]
	}
	return a
})

// calibSums keeps the kernel's results, so the compiler cannot drop its
// work.
var calibSums = make([]uint64, workers)

// calibrate collects the garbage the last pass left, so that no
// background marking overlaps the kernel, then runs the kernel on every
// worker at once and returns its wall time in seconds. div shrinks the
// kernel for the smoke test, whose timings mean nothing.
func calibrate(div int) float64 {
	chain := calibChain()
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calibSums[w] = calibKernel(chain, w, div)
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// calibKernel times the two host properties the simulator's speed
// follows most closely: the core's speed at register arithmetic and
// branches, and the latency of loads that miss the host's caches.
func calibKernel(chain []uint32, w, div int) uint64 {
	x := uint64(w+1) * 0x9e3779b97f4a7c15
	var s uint64
	for range 10_000_000 / div {
		x = xorshift(x)
		if x&3 == 0 {
			s += x
		}
	}
	j := uint32(w)
	for range 200_000 / div {
		j = chain[j]
	}
	return s + uint64(j)
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}
