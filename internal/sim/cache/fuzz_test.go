package cache

import "testing"

// FuzzCoherence replays arbitrary access/prefetch/write sequences over
// a one- to four-socket memory system of up to 64 cores with the
// coherence invariant checker armed after every access. Any sequence that drives the
// directory protocol into an incoherent state (stale sharers, retained
// write permission, duplicate Modified copies, ...) panics inside
// maybeCheck and fails the fuzz run.
//
// The seed corpus encodes the six dormant two-socket coherence bugs
// fixed in PR 2 — each seed is the minimal traffic pattern that
// triggered one of them — so the fuzzer starts from known-dangerous
// shapes and mutates outward. CI runs the target for a short fixed
// budget on every push.
//
// Every cache's LRU clock starts from 16 to 4096 touches below its
// 32-bit wrap, so inputs cross clock rebases with the checker armed
// (the eviction-storm seed below crosses two).

// Fuzz op encoding: one topology byte — sockets in bits 0-1 (1-4),
// cores-per-socket selector in bits 2-3 and 5 ({2,4,8,16,32}, taken
// modulo five), bit 4 ignored — then 4-byte ops
// [kind+mode, core, addrLo, addrHi]. The grid reaches 4x32 = 128
// cores, crossing the old 32-core ceiling and the first sharer word.
const (
	fopRead = iota
	fopWrite
	fopIFetch
	fopPrefL1
	fopPrefL2
	fopPrefInstr
	fopCount
)

var fuzzCPS = [...]int{2, 4, 8, 16, 32}

// fuzzOps builds one encoded input for a sockets x cps grid from
// (kind, core, line) triples.
func fuzzOps(sockets, cps byte, ops ...[3]uint16) []byte {
	sel := byte(0)
	for i, v := range fuzzCPS {
		if int(cps) == v {
			sel = byte(i)
		}
	}
	data := []byte{(sockets - 1) | (sel&3)<<2 | (sel&4)<<3}
	for _, op := range ops {
		data = append(data, byte(op[0]), byte(op[1]), byte(op[2]&0xFF), byte(op[2]>>8))
	}
	return data
}

func FuzzCoherence(f *testing.F) {
	// The six PR-2 bug patterns, cores 0-1 on socket 0 and 2-3 on
	// socket 1 (two-socket seeds). Line indices are arbitrary but
	// shared within a seed so the cross-socket traffic collides.
	const l = 7

	// 1. Remote instruction fill dropping the instruction flag.
	f.Add(fuzzOps(2, 2, [3]uint16{fopIFetch, 0, l}, [3]uint16{fopIFetch, 2, l}, [3]uint16{fopIFetch, 0, l}))
	// 2. Instruction/L1 prefetches not snooping the remote socket.
	f.Add(fuzzOps(2, 2, [3]uint16{fopWrite, 0, l}, [3]uint16{fopPrefInstr, 2, l}, [3]uint16{fopWrite, 0, l}))
	f.Add(fuzzOps(2, 2, [3]uint16{fopWrite, 0, l}, [3]uint16{fopPrefL1, 2, l}, [3]uint16{fopWrite, 0, l}))
	// 3. Remote read downgrading the owner but leaving its private
	//    copies with write permission.
	f.Add(fuzzOps(2, 2, [3]uint16{fopWrite, 0, l}, [3]uint16{fopRead, 2, l}, [3]uint16{fopWrite, 0, l}))
	// 4. L2 prefetch hitting a remote modified copy.
	f.Add(fuzzOps(2, 2, [3]uint16{fopWrite, 0, l}, [3]uint16{fopPrefL2, 2, l}, [3]uint16{fopRead, 2, l}))
	// 5. Local LLC write-hit not invalidating remote-socket copies.
	f.Add(fuzzOps(2, 2, [3]uint16{fopRead, 2, l}, [3]uint16{fopWrite, 0, l}, [3]uint16{fopRead, 2, l}))
	// 6. L2 dirty-victim absorption dropping ownership while the L1-D
	//    kept write permission: dirty a line, storm the same L2 sets to
	//    evict it, then store to it again (the store must re-claim
	//    through the directory).
	evict := [][3]uint16{{fopWrite, 0, l}}
	for i := uint16(0); i < 40; i++ {
		evict = append(evict, [3]uint16{fopRead, 0, l + 64*(i+1)})
	}
	evict = append(evict, [3]uint16{fopWrite, 0, l}, [3]uint16{fopRead, 2, l})
	f.Add(fuzzOps(2, 2, evict...))
	// Single-socket shape with SMT-style same-core traffic.
	f.Add(fuzzOps(1, 2, [3]uint16{fopWrite, 0, l}, [3]uint16{fopRead, 1, l}, [3]uint16{fopWrite, 1, l}))
	// Beyond the old 32-core ceiling: a 4x16 grid with write traffic on
	// high core ids (socket 2's core 40, socket 3's core 63) contending
	// with socket 0 — sharer bits the flat uint32 mask could not hold.
	f.Add(fuzzOps(4, 16,
		[3]uint16{fopWrite, 40, l}, [3]uint16{fopRead, 0, l}, [3]uint16{fopWrite, 63, l},
		[3]uint16{fopIFetch, 63, l + 1}, [3]uint16{fopPrefL2, 40, l + 1}, [3]uint16{fopWrite, 0, l}))
	// A 4x32 grid, two sharer words per way: cores on both sides of the
	// first word edge (63 on socket 1, 64 on socket 2) and the last core
	// (127) share, write and evict.
	f.Add(fuzzOps(4, 32,
		[3]uint16{fopRead, 63, l}, [3]uint16{fopRead, 64, l}, [3]uint16{fopRead, 127, l},
		[3]uint16{fopWrite, 64, l}, [3]uint16{fopPrefL1, 63, l + 1}, [3]uint16{fopWrite, 127, l + 1},
		[3]uint16{fopIFetch, 96, l}, [3]uint16{fopRead, 0, l + 64}, [3]uint16{fopWrite, 65, l}))
	// A 3-socket machine with each line replicated in two remote LLCs
	// (sockets 1 and 2, one copy dirty from a downgraded owner) before
	// socket 0's L1-D and instruction prefetches read it, so the snoop
	// visits every holder; socket 0's stores then invalidate both.
	f.Add(fuzzOps(3, 2,
		[3]uint16{fopWrite, 2, l}, [3]uint16{fopRead, 4, l}, [3]uint16{fopPrefL1, 0, l},
		[3]uint16{fopWrite, 3, l + 1}, [3]uint16{fopRead, 5, l + 1}, [3]uint16{fopPrefInstr, 1, l + 1},
		[3]uint16{fopWrite, 0, l}, [3]uint16{fopWrite, 1, l + 1}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip()
		}
		sockets := 1 + int(data[0]&3)
		sel := int((data[0]>>2)&3|(data[0]>>3)&4) % len(fuzzCPS)
		cfg := testSystemConfig(sockets, fuzzCPS[sel])
		s := NewSystem(cfg)
		clocksNearWrap(s, func(i int) uint32 { return 16 << (i % 9) })
		s.EnableInvariantChecks(1)
		cores := cfg.TotalCores()
		now := int64(0)
		for i := 1; i+4 <= len(data) && now < 4096; i += 4 {
			kind := int(data[i] % fopCount)
			kernel := data[i]&0x80 != 0
			core := int(data[i+1]) % cores
			// Fold the 16-bit line index onto a span larger than the
			// test LLC so sequences can force evictions, with the low
			// lines hot so they collide across cores and sockets.
			line := uint64(data[i+2]) | uint64(data[i+3])<<8
			line %= 4096
			addr := (0x4000 + line) << LineShift
			now++
			switch kind {
			case fopRead:
				s.AccessData(core, addr, false, kernel, now)
			case fopWrite:
				s.AccessData(core, addr, true, kernel, now)
			case fopIFetch:
				s.FetchInstr(core, addr, now, kernel)
			case fopPrefL1:
				s.prefetchL1(core, 0x4000+line, kernel, now)
			case fopPrefL2:
				s.prefetchL2(core, 0x4000+line, kernel, now)
			case fopPrefInstr:
				s.prefetchInstr(core, 0x4000+line, kernel, now)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("final state incoherent: %v", err)
		}
		for c := 0; c < cores; c++ {
			if err := s.Ctr(c).Conservation(); err != nil {
				t.Fatalf("core %d: %v", c, err)
			}
		}
	})
}
