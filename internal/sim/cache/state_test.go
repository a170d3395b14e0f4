package cache

import (
	"bytes"
	"math/rand"
	"testing"

	"cloudsuite/internal/sim/checkpoint"
)

// snapshotSystem serializes s and returns the container bytes.
func snapshotSystem(t *testing.T, s *System) []byte {
	t.Helper()
	w := checkpoint.NewWriter()
	s.SaveState(w)
	var buf bytes.Buffer
	if err := w.Snapshot("state-test").Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// roundTrip warms a sockets x cps system with shared traffic, then
// proves save -> load -> save is byte-identical and the restored
// directory satisfies every invariant.
func roundTrip(t *testing.T, sockets, cps int) {
	t.Helper()
	cfg := testSystemConfig(sockets, cps)
	s := NewSystem(cfg)
	rng := rand.New(rand.NewSource(7))
	now := int64(0)
	for op := 0; op < 6000; op++ {
		core := rng.Intn(sockets * cps)
		addr := uint64(rng.Intn(256)) * 64 // hot pool: lots of sharing
		switch rng.Intn(3) {
		case 0:
			s.AccessData(core, addr, false, false, now)
		case 1:
			s.AccessData(core, addr, true, false, now)
		default:
			s.FetchInstr(core, addr, now, false)
		}
		now += 3
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("warmed system invalid before save: %v", err)
	}

	first := snapshotSystem(t, s)

	restored := NewSystem(cfg)
	snap, err := checkpoint.Decode(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadState(snap.Reader()); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatalf("restored system violates invariants: %v", err)
	}
	if second := snapshotSystem(t, restored); !bytes.Equal(first, second) {
		t.Fatalf("save -> load -> save is not byte-identical at %d sockets / %d cores", sockets, sockets*cps)
	}
}

// TestSystemStateRoundTrip64Cores proves the sparse sharer-set encoding
// round-trips on a four-socket 64-core machine, past the old 32-core
// envelope.
func TestSystemStateRoundTrip64Cores(t *testing.T) { roundTrip(t, 4, 16) }

// TestSystemStateRoundTrip96Cores does the same on a machine whose
// directory needs two sharer words per way.
func TestSystemStateRoundTrip96Cores(t *testing.T) { roundTrip(t, 4, 24) }

// forgedLLCImage returns a memory image of a fresh sockets x cps
// system whose socket-0 LLC, at clock 1, holds one way record with tag
// 0x41 naming the given sharers and owner under the given LRU stamp,
// sealed as a real save would be.
func forgedLLCImage(sockets, cps int, sharers sharerSet, owner int16, lru uint32) *checkpoint.Reader {
	return forgedLLCRecord(sockets, cps, 0x41, sharers, owner, lru)
}

// forgedLLCRecord is forgedLLCImage with the record's tag chosen too.
func forgedLLCRecord(sockets, cps int, tag uint64, sharers sharerSet, owner int16, lru uint32) *checkpoint.Reader {
	s := NewSystem(testSystemConfig(sockets, cps))
	w := checkpoint.NewWriter()
	w.Tag("mem")
	w.U32(uint32(sockets))
	w.U32(uint32(cps))
	w.U64(0)
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
	for so, llc := range s.llcs {
		if so > 0 {
			llc.SaveState(w)
			continue
		}
		w.Tag("cache")
		w.U32(1) // clock
		w.U32(uint32(len(llc.lines)))
		w.U32(1) // one valid way
		w.U32(3) // at index 3
		w.U64(tag)
		w.U32(lru)
		sharers.save(w)
		w.U16(uint16(owner))
		w.U8(0)
	}
	for _, m := range s.mems {
		m.SaveState(w)
	}
	return w.Snapshot("forged").Reader()
}

// TestLoadRejectsForeignDirectoryIDs: a re-sealed image whose LLC names
// a sharer or owner the machine lacks must fail to load. Accepted, it
// indexes past the core arrays on the way's first eviction (sharers)
// or downgrade (owner).
func TestLoadRejectsForeignDirectoryIDs(t *testing.T) {
	for _, tc := range []struct {
		name         string
		sockets, cps int
		sharers      sharerSet
		owner        int16
		ok           bool
	}{
		{"in range", 1, 6, onlySharer(5), 5, true},
		{"sharer word beyond the machine", 1, 6, onlySharer(200), -1, false},
		{"sharer bit beyond the machine", 1, 6, onlySharer(6), -1, false},
		{"sharer bit beyond a two-word machine", 4, 24, onlySharer(96), -1, false},
		{"owner beyond the machine", 1, 6, onlySharer(5), 6, false},
		{"owner below -1", 1, 6, onlySharer(5), -2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSystem(testSystemConfig(tc.sockets, tc.cps))
			err := s.LoadState(forgedLLCImage(tc.sockets, tc.cps, tc.sharers, tc.owner, 1))
			if tc.ok && err != nil {
				t.Fatalf("valid directory entry rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("image with a directory id beyond the machine loaded without error")
			}
		})
	}
}

// TestLoadRejectsStampPastClock: a way stamped later than its cache's
// clock would outrank the ways touched after the restore, so the load
// fails.
func TestLoadRejectsStampPastClock(t *testing.T) {
	s := NewSystem(testSystemConfig(1, 6))
	if err := s.LoadState(forgedLLCImage(1, 6, onlySharer(5), -1, 2)); err == nil {
		t.Fatal("a way stamped 2 under clock 1 loaded without error")
	}
}

// TestLoadRejectsZeroStamp: a valid way stamped 0 ranks with the
// invalid ways, so victim selection would evict it ahead of a free way;
// the load fails.
func TestLoadRejectsZeroStamp(t *testing.T) {
	s := NewSystem(testSystemConfig(1, 6))
	if err := s.LoadState(forgedLLCImage(1, 6, onlySharer(5), -1, 0)); err == nil {
		t.Fatal("a valid way stamped 0 loaded without error")
	}
}

// TestLoadRejectsZeroTag: a record with tag 0 would restore as an
// invalid way carrying a live stamp, which victim selection would then
// rank behind the set's other free ways; the load fails.
func TestLoadRejectsZeroTag(t *testing.T) {
	s := NewSystem(testSystemConfig(1, 6))
	if err := s.LoadState(forgedLLCRecord(1, 6, 0, sharerSet{}, -1, 1)); err == nil {
		t.Fatal("a way record with tag 0 loaded without error")
	}
}

// TestSystemLoadRejectsGeometryMismatch: a snapshot of one grid must not
// load into another.
func TestSystemLoadRejectsGeometryMismatch(t *testing.T) {
	s := NewSystem(testSystemConfig(4, 16))
	s.AccessData(40, 0x1000, true, false, 0)
	raw := snapshotSystem(t, s)
	snap, err := checkpoint.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	other := NewSystem(testSystemConfig(2, 6))
	if err := other.LoadState(snap.Reader()); err == nil {
		t.Fatal("4x16 snapshot loaded into a 2x6 system")
	}
}
