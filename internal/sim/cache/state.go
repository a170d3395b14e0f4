package cache

import (
	"fmt"

	"cloudsuite/internal/sim/checkpoint"
)

// This file serializes the memory system into warm-state checkpoints:
// every cache array with its directory fields (sharer sets, Modified
// owners), the per-core prefetcher state, the per-socket DRAM
// controllers, and the per-core performance-counter blocks. Together
// with the per-core TLB and branch-predictor state (saved by the
// engine) this is the complete machine-visible effect of functional
// warming, so a run restored from a snapshot is byte-identical to one
// that warmed from cold.

// SaveState serializes the cache's LRU clock and line array, including
// the directory state of LLC instances (private caches write an empty
// sharer set per way). The encoding is sparse — only valid ways are
// written — and hand-rolled: an LLC holds hundreds of thousands of
// ways, typically mostly empty at the warm boundary, and both a dense
// layout and a reflection-based encoder would dominate checkpoint size
// and restore cost (the payload is also content-hashed on every save
// and load). Each valid way is one record: the varint gap from the
// previous valid way's index (from -1 for the first), the varint tag,
// the varint LRU stamp, the sharer set, the varint owner+1 (0 for no
// owner) and the flags byte.
func (c *Cache) SaveState(w *checkpoint.Writer) {
	w.Tag("cache")
	w.U32(c.tick)
	w.U32(uint32(len(c.lines)))
	valid := uint32(0)
	for i := range c.lines {
		if c.lines[i].valid() {
			valid++
		}
	}
	w.U32(valid)
	prev := -1
	for i := range c.lines {
		l := &c.lines[i]
		if !l.valid() {
			continue
		}
		w.Uvarint(uint64(i - prev))
		w.Uvarint(l.tag)
		w.Uvarint(uint64(l.lru))
		c.sharers(i).save(w)
		w.Uvarint(uint64(int64(l.owner) + 1))
		w.U8(uint8(l.flags))
		prev = i
	}
}

// LoadState restores state saved by SaveState into a cache of identical
// geometry; a mismatch is reported through the reader. Each record's
// fields are range-checked as they are read, before any is narrowed to
// its in-memory width. A record fails the load when its index gap is 0
// or runs past the array, when it names a directory entry the machine
// lacks (a sharer or a Modified owner at or beyond dirCores; private
// caches track none), which would otherwise index past the core arrays
// on the first eviction or downgrade, or when it breaks invariant 7: a
// stamp past the cache clock would outrank ways touched after the
// restore, a stamp of 0 would make a valid way the victim ahead of an
// invalid one, and a tag of 0 would make an invalid way with a live
// stamp. Ways absent from the snapshot reset to invalid with stamp 0
// (their other residual fields are dead state: every read path checks
// validity first and a fill overwrites a way wholesale).
func (c *Cache) LoadState(r *checkpoint.Reader) {
	r.Expect("cache")
	c.tick = r.U32()
	if n := int(r.U32()); r.Err() == nil && n != len(c.lines) {
		r.Failf("cache geometry mismatch: snapshot has %d ways, cache holds %d", n, len(c.lines))
		return
	}
	clear(c.lines)
	clear(c.dir)
	valid := int(r.U32())
	if r.Err() == nil && valid > len(c.lines) {
		r.Failf("cache snapshot has %d valid ways, cache holds %d", valid, len(c.lines))
		return
	}
	for k, i := 0, -1; k < valid; k++ {
		if i = r.NextIndex(i, len(c.lines)); r.Err() != nil {
			return
		}
		l := &c.lines[i]
		if l.tag = r.Uvarint(); r.Err() == nil && !l.valid() {
			r.Failf("cache snapshot way %d has tag 0, which marks an invalid way", i)
		}
		if stamp := r.Uvarint(); r.Err() == nil && (stamp == 0 || stamp > uint64(c.tick)) {
			r.Failf("cache snapshot way %d has LRU stamp %d outside 1..%d (the cache clock)", i, stamp, c.tick)
		} else {
			l.lru = uint32(stamp)
		}
		sh := loadSharerSet(r)
		if core := sh.next(c.dirCores); r.Err() == nil && core >= 0 {
			r.Failf("cache snapshot way %d names sharer core %d; the directory tracks %d cores", i, core, c.dirCores)
		}
		if owner := r.Uvarint(); r.Err() == nil && owner > uint64(c.dirCores) {
			r.Failf("cache snapshot way %d names owner core %d; the directory tracks %d cores", i, owner-1, c.dirCores)
		} else {
			l.owner = int16(owner) - 1
		}
		l.flags = lineFlags(r.U8())
		if r.Err() != nil {
			return
		}
		c.setSharers(i, sh)
	}
}

// SaveState serializes the whole memory system: per-core private caches
// and prefetchers, per-socket LLCs and DRAM controllers, and the
// per-core counter blocks.
func (s *System) SaveState(w *checkpoint.Writer) {
	w.Tag("mem")
	w.U32(uint32(s.cfg.Sockets))
	w.U32(uint32(s.cfg.CoresPerSocket))
	w.U64(s.accesses)
	for i := range s.cores {
		cc := &s.cores[i]
		cc.l1i.SaveState(w)
		cc.l1d.SaveState(w)
		cc.l2.SaveState(w)
		cc.stride.SaveState(w)
		cc.dcu.SaveState(w)
		w.Bool(cc.streamI != nil)
		if cc.streamI != nil {
			cc.streamI.SaveState(w)
		}
		s.ctrs[i].SaveState(w)
	}
	for _, llc := range s.llcs {
		llc.SaveState(w)
	}
	for _, m := range s.mems {
		m.SaveState(w)
	}
}

// LoadState restores a memory system saved by SaveState into a system
// built from the identical configuration. It returns an error on any
// geometry or format mismatch, leaving partially-loaded state behind —
// callers must discard the system on error.
func (s *System) LoadState(r *checkpoint.Reader) error {
	r.Expect("mem")
	sockets, cps := int(r.U32()), int(r.U32())
	if r.Err() == nil && (sockets != s.cfg.Sockets || cps != s.cfg.CoresPerSocket) {
		return fmt.Errorf("cache: snapshot is for a %dx%d-core machine, system is %dx%d",
			sockets, cps, s.cfg.Sockets, s.cfg.CoresPerSocket)
	}
	s.accesses = r.U64()
	for i := range s.cores {
		cc := &s.cores[i]
		cc.l1i.LoadState(r)
		cc.l1d.LoadState(r)
		cc.l2.LoadState(r)
		cc.stride.LoadState(r)
		cc.dcu.LoadState(r)
		hasStream := r.Bool()
		if r.Err() == nil && hasStream != (cc.streamI != nil) {
			return fmt.Errorf("cache: snapshot stream-prefetcher presence (%v) does not match configuration (%v)",
				hasStream, cc.streamI != nil)
		}
		if cc.streamI != nil {
			cc.streamI.LoadState(r)
		}
		s.ctrs[i].LoadState(r)
	}
	for _, llc := range s.llcs {
		llc.LoadState(r)
	}
	for _, m := range s.mems {
		m.LoadState(r)
	}
	return r.Err()
}
