package cache

import (
	"math/rand"
	"slices"
	"testing"

	"cloudsuite/internal/trace"
	"cloudsuite/internal/workloads"
	"cloudsuite/internal/workloads/dataserving"
	"cloudsuite/internal/workloads/mapreduce"
	"cloudsuite/internal/workloads/satsolver"
	"cloudsuite/internal/workloads/streaming"
	"cloudsuite/internal/workloads/webfrontend"
	"cloudsuite/internal/workloads/websearch"
)

func TestCheckInvariantsCleanSystem(t *testing.T) {
	s := NewSystem(testSystemConfig(2, 2))
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("empty system violates invariants: %v", err)
	}
	s.AccessData(0, 0x1000, true, false, 0)
	s.AccessData(3, 0x1000, false, false, 100)
	s.FetchInstr(1, 0x40_0000, 200, false)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("simple traffic violates invariants: %v", err)
	}
}

// The checker must actually detect corrupted states, or wiring it into
// tests proves nothing.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	line := uint64(0x1000) >> LineShift
	corrupt := []struct {
		name string
		prep func(s *System)
	}{
		{"inclusion", func(s *System) {
			s.AccessData(0, 0x1000, false, false, 0)
			s.llcs[0].invalidate(line) // private copies left dangling
		}},
		{"stale-sharers", func(s *System) {
			s.AccessData(0, 0x1000, false, false, 0)
			s.llcs[0].setSharers(s.llcs[0].probe(line, false), sharerSet{})
		}},
		{"foreign-sharer", func(s *System) {
			s.AccessData(0, 0x1000, false, false, 0)
			s.llcs[0].addSharer(s.llcs[0].probe(line, false), 2) // socket-1 core
		}},
		{"owner-not-sharer", func(s *System) {
			s.AccessData(0, 0x1000, true, false, 0)
			s.llcs[0].setSharers(s.llcs[0].probe(line, false), onlySharer(1))
			s.cores[1].l1d.insert(line, 0)
			s.cores[0].l1d.invalidate(line)
			s.cores[0].l2.invalidate(line)
		}},
		{"absent-owner", func(s *System) {
			s.AccessData(0, 0x1000, true, false, 0)
			s.cores[0].l1d.invalidate(line)
			s.cores[0].l2.invalidate(line)
		}},
		{"modified-duplicate", func(s *System) {
			s.AccessData(0, 0x1000, true, false, 0)
			s.llcs[1].insert(line, 0)
		}},
		{"exclusive-without-owner", func(s *System) {
			s.AccessData(0, 0x1000, true, false, 0)
			s.llcs[0].peek(line).owner = -1
		}},
		{"stamp-past-clock", func(s *System) {
			s.AccessData(0, 0x1000, false, false, 0)
			s.llcs[0].peek(line).lru = s.llcs[0].tick + 1
		}},
		{"private-stamp-past-clock", func(s *System) {
			s.AccessData(0, 0x1000, false, false, 0)
			s.cores[0].l1d.peek(line).lru = s.cores[0].l1d.tick + 1
		}},
		{"invalid-way-stamped", func(s *System) {
			s.AccessData(0, 0x1000, false, false, 0)
			stampInvalidWay(s.cores[0].l2)
		}},
		{"invalid-llc-way-stamped", func(s *System) {
			s.AccessData(0, 0x1000, false, false, 0)
			stampInvalidWay(s.llcs[0])
		}},
	}
	for _, tc := range corrupt {
		s := NewSystem(noPrefetchConfig(2, 2))
		tc.prep(s)
		if err := s.CheckInvariants(); err == nil {
			t.Errorf("%s: corruption not detected", tc.name)
		}
	}
}

// stampInvalidWay gives c's first invalid way the current clock as its
// stamp, a value in range for a valid way but not for an invalid one.
func stampInvalidWay(c *Cache) {
	c.lines[slices.IndexFunc(c.lines, func(l line) bool { return !l.valid() })].lru = c.tick
}

// The same corruption shapes must be caught above the old 32-core
// boundary, where the flat uint32 mask could not even represent the
// cores involved.
func TestCheckInvariantsDetectsCorruptionBeyond32Cores(t *testing.T) {
	line := uint64(0x1000) >> LineShift
	corrupt := []struct {
		name string
		prep func(s *System)
	}{
		{"stale-high-sharer", func(s *System) {
			s.AccessData(40, 0x1000, false, false, 0) // socket 2, core 40
			s.llcs[2].setSharers(s.llcs[2].probe(line, false), sharerSet{})
		}},
		{"foreign-high-sharer", func(s *System) {
			s.AccessData(0, 0x1000, false, false, 0)
			s.llcs[0].addSharer(s.llcs[0].probe(line, false), 40)
		}},
		{"high-owner-not-exclusive", func(s *System) {
			s.AccessData(40, 0x1000, true, false, 0)
			s.llcs[2].addSharer(s.llcs[2].probe(line, false), 41)
		}},
		{"absent-high-owner", func(s *System) {
			s.AccessData(63, 0x1000, true, false, 0)
			s.cores[63].l1d.invalidate(line)
			s.cores[63].l2.invalidate(line)
		}},
	}
	for _, tc := range corrupt {
		s := NewSystem(noPrefetchConfig(4, 16))
		tc.prep(s)
		if err := s.CheckInvariants(); err == nil {
			t.Errorf("%s: corruption not detected", tc.name)
		}
	}
}

// TestInvariantsHoldOnRandomizedTopologies drives synthetic traffic
// with the checker armed on every access across the widened design
// space: one to four sockets, up to 256 cores (one to four sharer words
// per way), two traffic seeds per grid. The address pool is small so lines
// collide across cores and sockets constantly — the densest possible
// sharing the directory must survive. Every core's counters must obey
// the hierarchy flow laws afterwards.
func TestInvariantsHoldOnRandomizedTopologies(t *testing.T) {
	grids := []struct{ sockets, cps int }{
		{1, 2}, {1, 16}, {2, 8}, {3, 4}, {4, 4}, {4, 16}, {4, 24}, {4, 64},
	}
	for seed := range int64(2) {
		for _, g := range grids {
			cfg := testSystemConfig(g.sockets, g.cps)
			s := NewSystem(cfg)
			s.EnableInvariantChecks(1)
			cores := cfg.TotalCores()
			rng := rand.New(rand.NewSource(int64(cores)*7 + seed))
			for i := 0; i < 4000; i++ {
				core := rng.Intn(cores)
				addr := uint64(rng.Intn(48)) << LineShift
				switch rng.Intn(4) {
				case 0:
					s.AccessData(core, addr, true, rng.Intn(8) == 0, int64(i))
				case 1, 2:
					s.AccessData(core, addr, false, rng.Intn(8) == 0, int64(i))
				case 3:
					s.FetchInstr(core, addr|0x40_0000<<LineShift, int64(i), false)
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("seed %d %dx%d: %v", seed, g.sockets, g.cps, err)
			}
			for c := range s.cores {
				if err := s.Ctr(c).Conservation(); err != nil {
					t.Fatalf("seed %d %dx%d core %d: %v", seed, g.sockets, g.cps, c, err)
				}
			}
		}
	}
}

// replayOnSystem streams per-thread workload traces into the memory
// system the way the engine's warm-up loop does: instruction fetches on
// line transitions plus every load and store, round-robin across
// threads so accesses to shared structures interleave.
func replayOnSystem(t *testing.T, s *System, gens []*trace.StepGen, perThread int) {
	t.Helper()
	type state struct {
		buf      []trace.Inst
		n, pos   int
		lastLine uint64
		done     int
	}
	sts := make([]*state, len(gens))
	for i := range sts {
		sts[i] = &state{buf: make([]trace.Inst, 256)}
	}
	now := int64(0)
	for active := true; active; {
		active = false
		for tid, g := range gens {
			st := sts[tid]
			if st.done >= perThread {
				continue
			}
			// One short burst per thread per round.
			for burst := 0; burst < 32 && st.done < perThread; burst++ {
				if st.pos == st.n {
					st.n = g.Next(st.buf)
					st.pos = 0
					if st.n == 0 {
						st.done = perThread
						break
					}
				}
				in := &st.buf[st.pos]
				st.pos++
				st.done++
				core := tid % len(s.cores)
				if line := in.PC >> LineShift; line != st.lastLine {
					s.FetchInstr(core, in.PC, now, in.Kernel)
					st.lastLine = line
				}
				if in.Op == trace.OpLoad || in.Op == trace.OpStore {
					s.AccessData(core, in.Addr, in.Op == trace.OpStore, in.Kernel, now)
				}
				now += 2
			}
			if st.done < perThread {
				active = true
			}
		}
	}
}

// A two-socket system must hold the coherence invariants across real
// traffic from every scale-out workload, so the multi-socket paths can
// never go dormant-and-broken again.
func TestInvariantsHoldOnScaleOutTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("workload trace replay is slow")
	}
	benches := []struct {
		name string
		mk   func() workloads.Workload
	}{
		{"Data Serving", func() workloads.Workload { return dataserving.New(dataserving.DefaultConfig()) }},
		{"MapReduce", func() workloads.Workload { return mapreduce.New(mapreduce.DefaultConfig()) }},
		{"Media Streaming", func() workloads.Workload { return streaming.New(streaming.DefaultConfig()) }},
		{"SAT Solver", func() workloads.Workload { return satsolver.New(satsolver.DefaultConfig()) }},
		{"Web Frontend", func() workloads.Workload { return webfrontend.New(webfrontend.DefaultConfig()) }},
		{"Web Search", func() workloads.Workload { return websearch.New(websearch.DefaultConfig()) }},
	}
	for _, b := range benches {
		b := b
		t.Run(b.name, func(t *testing.T) {
			s := NewSystem(testSystemConfig(2, 2))
			s.EnableInvariantChecks(5)
			gens := b.mk().Start(4, 1)
			defer func() {
				for _, g := range gens {
					g.Close()
				}
			}()
			replayOnSystem(t, s, gens, 8000)
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", b.name, err)
			}
			var remote uint64
			for c := range s.cores {
				remote += s.Ctr(c).RemoteSocketHit
			}
			if remote == 0 {
				t.Errorf("%s: a two-socket run with shared data saw no remote hits", b.name)
			}
		})
	}
}
