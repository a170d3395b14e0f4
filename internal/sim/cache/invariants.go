package cache

import "fmt"

// This file implements a debug-mode coherence invariant checker for the
// memory system. The multi-socket paths of the simulator are easy to
// leave dormant (the default machine runs one socket), so the checker
// makes their correctness mechanically testable: after any access the
// whole hierarchy must satisfy the structural invariants below, or the
// directory protocol has leaked an incoherent state.
//
// Invariants:
//
//  1. Inclusion — every valid line in a private L1-I/L1-D/L2 is present
//     in its socket's LLC.
//  2. Sharer registration — the socket LLC's sharers mask covers every
//     core that actually holds the line privately (the mask may be a
//     superset: private caches evict clean lines silently).
//  3. Socket-local sharers — an LLC's sharers mask names only cores of
//     its own socket; cross-socket presence is tracked by the other
//     socket's own LLC entry.
//  4. Owner validity — a directory owner is a core of the same socket,
//     is the *only* sharer (Modified is exclusive: every read path,
//     demand or prefetch, goes through obtain, which downgrades the
//     owner before registering a new sharer), and still holds the line
//     in its L1-D or L2 (losing the last private copy of a Modified
//     line clears the owner as the dirty data is absorbed).
//  5. Single owner chip-wide — a line owned Modified in one socket's
//     LLC exists in no other socket's LLC (read-only duplicates across
//     sockets are legal; modified duplicates never are).
//  6. Exclusive implies ownership — a private L1-D line holding write
//     permission (flagExcl) belongs to the core the socket directory
//     records as owner, so stores that skip the directory lookup are
//     always covered by a directory claim.
//  7. LRU stamps — every valid way of every cache carries a nonzero
//     stamp no later than its cache's clock, as a clock rebase that
//     renumbered nothing, or a clock that wrapped, would break, and
//     every invalid way carries stamp 0. Victim selection relies on
//     both halves: it takes the first minimum of (stamp, way).

// EnableInvariantChecks makes the system run CheckInvariants after
// every n-th access (1 = every access), panicking on the first
// violation. n <= 0 disables checking. The scan is O(total cache
// lines); it is a debugging and testing aid, not a simulation feature.
func (s *System) EnableInvariantChecks(every int) { s.checkEvery = every }

func (s *System) maybeCheck() {
	s.accesses++
	if s.accesses%uint64(s.checkEvery) != 0 {
		return
	}
	if err := s.CheckInvariants(); err != nil {
		panic(err)
	}
}

// CheckInvariants verifies the coherence invariants over the entire
// hierarchy and returns the first violation found, or nil.
func (s *System) CheckInvariants() error {
	for c := range s.cores {
		cc := &s.cores[c]
		sock := s.socketOf(c)
		llc := s.llcs[sock]
		for _, pc := range []struct {
			name string
			c    *Cache
		}{{"L1-I", cc.l1i}, {"L1-D", cc.l1d}, {"L2", cc.l2}} {
			for i := range pc.c.lines {
				l := &pc.c.lines[i]
				if !l.valid() {
					if l.lru != 0 {
						return fmt.Errorf("cache: core %d %s invalid way %d stamped %d, not 0", c, pc.name, i, l.lru)
					}
					continue
				}
				la := l.tag - 1
				if l.lru == 0 || l.lru > pc.c.tick {
					return fmt.Errorf("cache: core %d %s line %#x stamped %d, outside 1..%d (the clock)",
						c, pc.name, la, l.lru, pc.c.tick)
				}
				w := llc.probe(la, false)
				if w < 0 {
					return fmt.Errorf("cache: inclusion violated: core %d %s holds line %#x absent from socket %d LLC",
						c, pc.name, la, sock)
				}
				if sh := llc.sharers(w); !sh.contains(c) {
					return fmt.Errorf("cache: sharer set stale: core %d %s holds line %#x but socket %d LLC sharers=%v",
						c, pc.name, la, sock, sh.w)
				}
				if owner := llc.lines[w].owner; l.flags&flagExcl != 0 && owner != int16(c) {
					return fmt.Errorf("cache: exclusive without ownership: core %d %s holds line %#x with write permission but socket %d LLC owner=%d",
						c, pc.name, la, sock, owner)
				}
			}
		}
	}

	for so, llc := range s.llcs {
		// The cores of socket so occupy a contiguous global-id range.
		localLo := so * s.cfg.CoresPerSocket
		localHi := localLo + s.cfg.CoresPerSocket
		for i := range llc.lines {
			l := &llc.lines[i]
			if !l.valid() {
				if l.lru != 0 {
					return fmt.Errorf("cache: socket %d LLC invalid way %d stamped %d, not 0", so, i, l.lru)
				}
				continue
			}
			la := l.tag - 1
			if l.lru == 0 || l.lru > llc.tick {
				return fmt.Errorf("cache: socket %d LLC line %#x stamped %d, outside 1..%d (the clock)",
					so, la, l.lru, llc.tick)
			}
			sh := llc.sharers(i)
			for c := sh.next(0); c >= 0; c = sh.next(c + 1) {
				if c < localLo || c >= localHi {
					return fmt.Errorf("cache: socket %d LLC line %#x lists foreign sharer core %d (local cores %d-%d)",
						so, la, c, localLo, localHi-1)
				}
			}
			if l.owner < 0 {
				continue
			}
			o := int(l.owner)
			if o >= len(s.cores) || s.socketOf(o) != so {
				return fmt.Errorf("cache: socket %d LLC line %#x owned by foreign core %d", so, la, o)
			}
			if !sh.only(o) {
				return fmt.Errorf("cache: socket %d LLC line %#x owned Modified by core %d but sharers=%v (must be exclusive)",
					so, la, o, sh.w)
			}
			oc := &s.cores[o]
			if !oc.l1d.Contains(la) && !oc.l2.Contains(la) {
				return fmt.Errorf("cache: socket %d LLC line %#x owner %d holds no private copy", so, la, o)
			}
			for so2 := range s.llcs {
				if so2 != so && s.llcs[so2].Contains(la) {
					return fmt.Errorf("cache: line %#x owned Modified by core %d in socket %d but also present in socket %d LLC",
						la, o, so, so2)
				}
			}
		}
	}
	return nil
}
