// Package prefetch implements the three hardware prefetchers of the
// measured machine, named as in the processor documentation and BIOS
// (Section 3 of the paper):
//
//   - the adjacent-line prefetcher, which pairs every L2 miss with a
//     fetch of its 128-byte buddy line;
//   - the "HW prefetcher", a per-core stride/stream prefetcher at the L2
//     that detects ascending or descending line streams within a 4KB
//     page and runs ahead of them;
//   - the DCU streamer, an L1-D next-line prefetcher.
//
// Figure 5 of the paper toggles exactly these units.
package prefetch

import (
	"math/bits"

	"cloudsuite/internal/sim/checkpoint"
)

// AdjacentLine returns the buddy line of lineAddr within its aligned
// 128-byte pair.
func AdjacentLine(lineAddr uint64) uint64 { return lineAddr ^ 1 }

// Stride is the per-core L2 stream prefetcher ("HW prefetcher").
// It tracks up to Streams independent 4KB-page streams; when a stream
// sees Confidence consecutive accesses advancing in one direction, the
// prefetcher issues requests Degree lines ahead of the demand stream.
type Stride struct {
	streams []stream
	clock   uint64
	out     []uint64 //simlint:ok checkpointcov per-access scratch output, drained before the access returns
	// Degree is how many lines ahead of a confirmed stream to prefetch.
	Degree int //simlint:ok checkpointcov construction-time configuration, identical for equal configs
	// Confidence is the number of same-direction advances required
	// before a stream starts prefetching.
	Confidence int //simlint:ok checkpointcov construction-time configuration, identical for equal configs
}

// linesPerPage is the number of lines in the 4KB page a stream spans.
const linesPerPage = 4096 / 64

// maxConf is the confidence at which a stream's counter saturates.
const maxConf = 8

type stream struct {
	page    uint64
	lastOff int32 // last line offset within page (0..63)
	dir     int32 // +1 ascending, -1 descending, 0 unknown
	conf    int32
	used    uint64 // LRU clock
	valid   bool
}

// NewStride returns a stream prefetcher with Westmere-like parameters.
func NewStride(streams int) *Stride {
	if streams <= 0 {
		streams = 16
	}
	return &Stride{streams: make([]stream, streams), Degree: 2, Confidence: 2}
}

// SaveState serializes the detector's stream table and LRU clock.
// Degree and Confidence are configuration, not warm state, and are not
// saved.
func (s *Stride) SaveState(w *checkpoint.Writer) {
	w.Tag("stride")
	w.U64(s.clock)
	w.U32(uint32(len(s.streams)))
	for i := range s.streams {
		st := &s.streams[i]
		w.U64(st.page)
		w.U32(uint32(st.lastOff))
		w.U32(uint32(st.dir))
		w.U32(uint32(st.conf))
		w.U64(st.used)
		w.Bool(st.valid)
	}
}

// LoadState restores state saved by SaveState into a detector with the
// same stream count; a mismatch is reported through the reader, as is a
// stream Observe could not have left: one used past the clock (it
// would outrank every stream touched after the restore), an offset
// outside the page's 64 lines, a direction other than -1, 0 or +1, or a
// confidence outside 0..8.
func (s *Stride) LoadState(r *checkpoint.Reader) {
	r.Expect("stride")
	s.clock = r.U64()
	if n := int(r.U32()); r.Err() == nil && n != len(s.streams) {
		r.Failf("stride detector has %d streams, snapshot has %d", len(s.streams), n)
		return
	}
	for i := range s.streams {
		st := &s.streams[i]
		st.page = r.U64()
		st.lastOff = int32(r.U32())
		st.dir = int32(r.U32())
		st.conf = int32(r.U32())
		st.used = r.U64()
		st.valid = r.Bool()
		if r.Err() == nil && !st.possible(s.clock) {
			r.Failf("stride snapshot stream %d %+v cannot arise under clock %d", i, *st, s.clock)
			return
		}
	}
}

// possible reports whether Observe can leave st under clock.
func (st *stream) possible(clock uint64) bool {
	return st.used <= clock && st.lastOff >= 0 && st.lastOff < linesPerPage &&
		st.dir >= -1 && st.dir <= 1 && st.conf >= 0 && st.conf <= maxConf
}

// Observe feeds one demand line access to the detector and returns the
// lines to prefetch (possibly none). The returned slice is valid until
// the next call.
func (s *Stride) Observe(lineAddr uint64) []uint64 {
	page := lineAddr / linesPerPage
	off := int32(lineAddr % linesPerPage)
	s.clock++

	var st *stream
	for i := range s.streams {
		if s.streams[i].valid && s.streams[i].page == page {
			st = &s.streams[i]
			break
		}
	}
	if st == nil {
		s.streams[s.victim()] = stream{page: page, lastOff: off, used: s.clock, valid: true}
		return nil
	}
	st.used = s.clock
	delta := off - st.lastOff
	st.lastOff = off
	var dir int32
	switch {
	case delta > 0 && delta <= 4:
		dir = 1
	case delta < 0 && delta >= -4:
		dir = -1
	default:
		st.conf = 0
		st.dir = 0
		return nil
	}
	if dir == st.dir {
		if st.conf < maxConf {
			st.conf++
		}
	} else {
		st.dir = dir
		st.conf = 1
	}
	if int(st.conf) < s.Confidence {
		return nil
	}
	out := s.out[:0]
	for i := 1; i <= s.Degree; i++ {
		t := off + dir*int32(i)
		if t < 0 || t >= linesPerPage {
			break
		}
		out = append(out, page*linesPerPage+uint64(t))
	}
	s.out = out
	return out
}

// victim returns the stream a newly seen page replaces: the last
// invalid stream while the table fills, then the least recently used
// one, the lowest-indexed among tied stamps. The second scan is
// branch-free: use stamps sit in random order, so a compare-and-branch
// would mispredict; a borrow mask selects the older stamp instead.
func (s *Stride) victim() int {
	for i := len(s.streams) - 1; i >= 0; i-- {
		if !s.streams[i].valid {
			return i
		}
	}
	victim, best := 0, s.streams[0].used
	for i := 1; i < len(s.streams); i++ {
		u := s.streams[i].used
		_, older := bits.Sub64(u, best, 0)
		m := -older
		best ^= (best ^ u) & m
		victim ^= (victim ^ i) & int(m)
	}
	return victim
}

// DCU is the L1-D streamer: after two consecutive ascending line
// accesses it prefetches the next line into the L1-D.
type DCU struct {
	lastLine uint64
	runs     int
}

// SaveState serializes the streamer's run detector.
func (d *DCU) SaveState(w *checkpoint.Writer) {
	w.Tag("dcu")
	w.U64(d.lastLine)
	w.I64(int64(d.runs))
}

// LoadState restores state saved by SaveState.
func (d *DCU) LoadState(r *checkpoint.Reader) {
	r.Expect("dcu")
	d.lastLine = r.U64()
	d.runs = int(r.I64())
}

// Observe feeds one L1-D demand access and returns the line to prefetch,
// or 0 if none. Line address 0 is never a valid prefetch target because
// the simulated address space starts well above it.
func (d *DCU) Observe(lineAddr uint64) uint64 {
	if lineAddr == d.lastLine+1 {
		d.runs++
	} else {
		d.runs = 0
	}
	d.lastLine = lineAddr
	if d.runs >= 1 {
		return lineAddr + 1
	}
	return 0
}
