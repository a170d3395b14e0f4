package prefetch

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cloudsuite/internal/sim/checkpoint"
)

func TestAdjacentLine(t *testing.T) {
	if AdjacentLine(0) != 1 || AdjacentLine(1) != 0 {
		t.Fatal("buddy pairing broken for pair 0/1")
	}
	if AdjacentLine(100) != 101 || AdjacentLine(101) != 100 {
		t.Fatal("buddy pairing broken for pair 100/101")
	}
}

// Property: AdjacentLine is an involution that stays within the aligned
// 128-byte pair.
func TestQuickAdjacentInvolution(t *testing.T) {
	check := func(line uint64) bool {
		b := AdjacentLine(line)
		return AdjacentLine(b) == line && b/2 == line/2 && b != line
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStrideDetectsAscendingStream(t *testing.T) {
	s := NewStride(16)
	base := uint64(1000 * 64) // line 64000, page-aligned region
	var prefetched []uint64
	for i := uint64(0); i < 8; i++ {
		prefetched = append(prefetched, s.Observe(base+i)...)
	}
	if len(prefetched) == 0 {
		t.Fatal("ascending stream produced no prefetches")
	}
	for _, p := range prefetched {
		if p <= base {
			t.Fatalf("prefetch %d behind the stream", p)
		}
	}
}

func TestStrideDetectsDescendingStream(t *testing.T) {
	s := NewStride(16)
	base := uint64(64128) // mid-page
	var prefetched []uint64
	for i := uint64(0); i < 8; i++ {
		prefetched = append(prefetched, s.Observe(base-i)...)
	}
	if len(prefetched) == 0 {
		t.Fatal("descending stream produced no prefetches")
	}
	for _, p := range prefetched {
		if p >= base {
			t.Fatalf("descending prefetch %d ahead of the stream", p)
		}
	}
}

func TestStrideIgnoresLargeJumps(t *testing.T) {
	s := NewStride(16)
	base := uint64(128 * 1024)
	total := 0
	// Jumps of 5+ lines within the page must never train the stream.
	for i := uint64(0); i < 12; i++ {
		total += len(s.Observe(base + i*5))
	}
	if total != 0 {
		t.Fatalf("jumpy pattern triggered %d prefetches", total)
	}
}

func TestStrideTracksMultipleStreams(t *testing.T) {
	s := NewStride(4)
	pageA, pageB := uint64(0), uint64(10*64)
	got := 0
	for i := uint64(0); i < 6; i++ {
		got += len(s.Observe(pageA + i))
		got += len(s.Observe(pageB + i))
	}
	if got < 4 {
		t.Fatalf("interleaved streams under-prefetched: %d", got)
	}
}

func TestStrideStopsAtPageBoundary(t *testing.T) {
	s := NewStride(16)
	const linesPerPage = 64
	// Train right up to the end of a page.
	for i := uint64(linesPerPage - 6); i < linesPerPage; i++ {
		for _, p := range s.Observe(i) {
			if p/linesPerPage != i/linesPerPage {
				t.Fatalf("prefetch %d crossed the page boundary", p)
			}
		}
	}
}

func TestDCUNextLine(t *testing.T) {
	var d DCU
	if d.Observe(100) != 0 {
		t.Fatal("single access must not prefetch")
	}
	if got := d.Observe(101); got != 102 {
		t.Fatalf("ascending pair should prefetch 102, got %d", got)
	}
	if d.Observe(500) != 0 {
		t.Fatal("jump must reset the streamer")
	}
}

func TestNextLineI(t *testing.T) {
	var n NextLineI
	got := n.OnMiss(100)
	if len(got) != 1 || got[0] != 101 {
		t.Fatalf("OnMiss(100) = %v", got)
	}
}

func TestStreamIReplaysRecordedStream(t *testing.T) {
	s := NewStreamI(64)
	// Teach it a repeating miss sequence.
	seq := []uint64{10, 20, 30, 40, 50, 60, 70, 80}
	for pass := 0; pass < 3; pass++ {
		for _, l := range seq {
			s.OnMiss(l)
		}
	}
	// A miss on the stream head must replay the followers.
	got := s.OnMiss(10)
	if len(got) == 0 {
		t.Fatal("known stream produced no replay")
	}
	want := map[uint64]bool{20: true, 30: true, 40: true, 50: true}
	for _, l := range got {
		if !want[l] {
			t.Fatalf("replayed unexpected line %d (got %v)", l, got)
		}
	}
}

func TestStreamIUnknownMissSilent(t *testing.T) {
	s := NewStreamI(64)
	if got := s.OnMiss(999); len(got) != 0 {
		t.Fatalf("cold miss replayed %v", got)
	}
}

func TestStreamIBoundedHistory(t *testing.T) {
	s := NewStreamI(16)
	for l := uint64(0); l < 10000; l++ {
		s.OnMiss(l)
	}
	if len(s.next) > 16 {
		t.Fatalf("history grew to %d entries, bound is 16", len(s.next))
	}
}

// refObserveSlot is the branchy stream-table scan that Observe's match
// loop and victim replaced, kept as the reference. It returns the
// stream matching page, or -1 and the stream a miss replaces: the last
// invalid stream, else the first with the smallest use stamp.
func refObserveSlot(streams []stream, page uint64) (match, victim int) {
	for i := range streams {
		if streams[i].valid && streams[i].page == page {
			return i, 0
		}
		if !streams[i].valid {
			victim = i
		} else if streams[victim].valid && streams[i].used < streams[victim].used {
			victim = i
		}
	}
	return -1, victim
}

// TestStrideSlotMatchesReference: on random tables with invalid
// streams, tied stamps and full tables, at the machine's 16 streams and
// other sizes, Observe updates the stream the reference matches or
// replaces, and no other.
func TestStrideSlotMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		for trial := 0; trial < 2000; trial++ {
			s := NewStride(n)
			pInvalid := []int{0, 0, 4, 2}[rng.Intn(4)] // 1 in pInvalid streams invalid; 0: none
			span := uint64(1 + rng.Intn(n))
			for i := range s.streams {
				if pInvalid > 0 && rng.Intn(pInvalid) == 0 {
					continue
				}
				s.streams[i] = stream{page: uint64(rng.Intn(2 * n)), used: 1 + rng.Uint64()%span, valid: true}
				s.clock = max(s.clock, s.streams[i].used)
			}
			page := uint64(rng.Intn(2 * n))
			match, victim := refObserveSlot(s.streams, page)
			if match < 0 {
				match = victim
			}
			before := slices.Clone(s.streams)
			s.Observe(page * 64)
			for i := range s.streams {
				if changed := s.streams[i] != before[i]; changed != (i == match) {
					t.Fatalf("%d streams, page %d: stream %d changed=%v, the reference picks stream %d; table %+v",
						n, page, i, changed, match, before)
				}
			}
		}
	}
}

// strideImage returns a one-stream detector image at clock 10 holding
// st, sealed as a real save would be.
func strideImage(st stream) *checkpoint.Reader {
	w := checkpoint.NewWriter()
	w.Tag("stride")
	w.U64(10)
	w.U32(1)
	w.U64(st.page)
	w.U32(uint32(st.lastOff))
	w.U32(uint32(st.dir))
	w.U32(uint32(st.conf))
	w.U64(st.used)
	w.Bool(st.valid)
	return w.Snapshot("forged").Reader()
}

// TestStrideLoadRejectsImpossibleStreams: a stream Observe could not
// have left fails to load — a use stamp past the clock would outrank
// every stream touched after the restore, and an offset, direction or
// confidence out of range would steer prefetches off the page's lines.
func TestStrideLoadRejectsImpossibleStreams(t *testing.T) {
	ok := stream{page: 3, lastOff: 63, dir: -1, conf: 8, used: 10, valid: true}
	for _, tc := range []struct {
		name string
		edit func(*stream)
		ok   bool
	}{
		{"in range", func(*stream) {}, true},
		{"used past the clock", func(st *stream) { st.used = 11 }, false},
		{"offset below the page", func(st *stream) { st.lastOff = -1 }, false},
		{"offset past the page", func(st *stream) { st.lastOff = 64 }, false},
		{"direction 2", func(st *stream) { st.dir = 2 }, false},
		{"direction -2", func(st *stream) { st.dir = -2 }, false},
		{"confidence 9", func(st *stream) { st.conf = 9 }, false},
		{"confidence -1", func(st *stream) { st.conf = -1 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := ok
			tc.edit(&st)
			r := strideImage(st)
			NewStride(1).LoadState(r)
			if err := r.Err(); tc.ok != (err == nil) {
				t.Fatalf("load error %v, want ok=%v", err, tc.ok)
			}
		})
	}
}
