package cache

import (
	"bytes"
	"math/rand"
	"strings"
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

// wayRecord is one forged LLC way record, field by field as
// Cache.SaveState writes it.
type wayRecord struct {
	gap     uint64 // index gap from -1
	tag     uint64
	stamp   uint64
	sharers sharerSet
	owner   int64 // written as owner+1
}

// validRecord is a record every machine accepts: way 3 holding tag
// 0x41, stamped 1, with no sharer and no owner.
var validRecord = wayRecord{gap: 4, tag: 0x41, stamp: 1, owner: -1}

// forgedLLCImage returns a memory image of a fresh sockets x cps
// system whose socket-0 LLC, at clock 1, holds the one way record rec,
// sealed as a real save would be.
func forgedLLCImage(sockets, cps int, rec wayRecord) *checkpoint.Reader {
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
		w.Uvarint(rec.gap)
		w.Uvarint(rec.tag)
		w.Uvarint(rec.stamp)
		rec.sharers.save(w)
		w.Uvarint(uint64(rec.owner + 1))
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
		owner        int64
		ok           bool
	}{
		{"in range", 1, 6, onlySharer(5), 5, true},
		{"sharer word beyond the machine", 1, 6, onlySharer(200), -1, false},
		{"sharer bit beyond the machine", 1, 6, onlySharer(6), -1, false},
		{"sharer bit beyond a two-word machine", 4, 24, onlySharer(96), -1, false},
		{"owner beyond the machine", 1, 6, onlySharer(5), 6, false},
		{"owner below -1", 1, 6, onlySharer(5), -2, false},
		{"owner past 16 bits", 1, 6, onlySharer(5), 1<<16 + 5, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := validRecord
			rec.sharers, rec.owner = tc.sharers, tc.owner
			s := NewSystem(testSystemConfig(tc.sockets, tc.cps))
			err := s.LoadState(forgedLLCImage(tc.sockets, tc.cps, rec))
			if tc.ok && err != nil {
				t.Fatalf("valid directory entry rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("image with a directory id beyond the machine loaded without error")
			}
		})
	}
}

// loadRecord loads validRecord, as edited, on a 1x6 machine and fails
// unless the load is refused with an error naming want, or, for an
// empty want, succeeds. The record's fields are each checked as they
// are read, so each forgery meets its own check.
func loadRecord(t *testing.T, edit func(*wayRecord), want string) {
	t.Helper()
	rec := validRecord
	edit(&rec)
	err := NewSystem(testSystemConfig(1, 6)).LoadState(forgedLLCImage(1, 6, rec))
	if want == "" && err != nil {
		t.Errorf("record %+v rejected: %v", rec, err)
	}
	if want != "" && (err == nil || !strings.Contains(err.Error(), want)) {
		t.Errorf("record %+v: load error %v, want one naming %q", rec, err, want)
	}
}

// TestLoadRejectsStampPastClock: a way stamped later than its cache's
// clock would outrank the ways touched after the restore, so the load
// fails, also for a stamp past 32 bits that narrowing would wrap.
func TestLoadRejectsStampPastClock(t *testing.T) {
	loadRecord(t, func(r *wayRecord) { r.stamp = 2 }, "LRU stamp 2 outside 1..1")
	loadRecord(t, func(r *wayRecord) { r.stamp = 1<<32 + 1 }, "LRU stamp 4294967297 outside 1..1")
}

// TestLoadRejectsZeroStamp: a valid way stamped 0 ranks with the
// invalid ways, so victim selection would evict it ahead of a free way;
// the load fails.
func TestLoadRejectsZeroStamp(t *testing.T) {
	loadRecord(t, func(r *wayRecord) { r.stamp = 0 }, "LRU stamp 0 outside")
}

// TestLoadRejectsZeroTag: a record with tag 0 would restore as an
// invalid way carrying a live stamp, which victim selection would then
// rank behind the set's other free ways; the load fails.
func TestLoadRejectsZeroTag(t *testing.T) {
	loadRecord(t, func(r *wayRecord) { r.tag = 0 }, "tag 0")
}

// TestLoadRejectsBadIndexGaps: way records list strictly increasing
// indices inside the array, so a gap of 0 (a way written twice) or one
// past the last way fails the load, and a gap to the last way loads.
func TestLoadRejectsBadIndexGaps(t *testing.T) {
	ways := uint64(len(NewSystem(testSystemConfig(1, 6)).llcs[0].lines))
	loadRecord(t, func(r *wayRecord) { r.gap = ways }, "")
	loadRecord(t, func(r *wayRecord) { r.gap = 0 }, "index gap 0")
	loadRecord(t, func(r *wayRecord) { r.gap = ways + 1 }, "runs past")
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
