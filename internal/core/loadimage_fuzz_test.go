package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/sim/engine"
)

// imageSeed is one warm image FuzzLoadImage mutates: the run it was
// taken from, its encoded container, and the bytes a restore of the
// unmutated image allocates.
type imageSeed struct {
	bench Bench
	c     canonicalOptions
	raw   []byte
	size  int // payload bytes, the tail of raw
	alloc uint64
}

// imageRun starts a fresh instance of the seed's workload, and the
// polluters its options ask for, and returns the engine input of a run
// over them, assembled exactly as measure assembles it.
func (s imageSeed) imageRun(tb testing.TB) *runInput {
	tb.Helper()
	in, err := assemble(s.bench.New(), &s.c)
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// warmImage warms the bench called name under o and keeps the image
// taken at the warm boundary.
func warmImage(tb testing.TB, name string, o Options) imageSeed {
	tb.Helper()
	b, ok := FindBench(name)
	if !ok {
		tb.Fatalf("no bench %q", name)
	}
	s := imageSeed{bench: b, c: canonicalize(o)}
	in := s.imageRun(tb)
	var snap *checkpoint.Snapshot
	in.cfg.Checkpoint = func(sn *checkpoint.Snapshot) { snap = sn }
	_, err := engine.Run(in.cfg, in.threads)
	in.close()
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	s.raw, s.size = buf.Bytes(), snap.Size()
	if s.alloc, err = s.restore(tb, s.payload()); err != nil {
		tb.Fatalf("%s: unmutated image does not restore: %v", name, err)
	}
	return s
}

func (s imageSeed) payload() []byte { return s.raw[len(s.raw)-s.size:] }

// restore seals payload into a container with a valid content hash and
// runs only the restore of it into a fresh instance of the seed's run.
// It returns the bytes the restore allocated and its error.
func (s imageSeed) restore(tb testing.TB, payload []byte) (uint64, error) {
	tb.Helper()
	// The container ends in payload length, content hash and payload.
	var buf bytes.Buffer
	buf.Write(s.raw[:len(s.raw)-s.size-8-sha256.Size])
	buf.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(payload))))
	sum := sha256.Sum256(payload)
	buf.Write(sum[:])
	buf.Write(payload)
	snap, err := checkpoint.Decode(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	in := s.imageRun(tb)
	defer in.close()
	in.cfg.Restore = snap
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = engine.Restore(in.cfg, in.threads)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// mutate overwrites a copy of payload with patch at offset at, or, for
// an empty patch, truncates it to at bytes. Offsets wrap, so every
// input is a valid mutation.
func mutate(payload []byte, at uint32, patch []byte) []byte {
	p := int(uint64(at) % uint64(len(payload)+1))
	if len(patch) == 0 {
		return payload[:p]
	}
	out := append([]byte(nil), payload...)
	copy(out[p:], patch)
	return out
}

// FuzzLoadImage mutates real warm images, re-seals their content hash
// and runs only the restore. Every outcome must be an error or a clean
// load: never a panic, and never an allocation sized from a count the
// decoder did not check against the bytes left. The seeds are warmed
// at run time from small budgets — scale-out and traditional benches,
// one with polluters and one sampled — so no image is committed.
func FuzzLoadImage(f *testing.F) {
	small := func(o Options) Options {
		o.Cores, o.WarmupInsts, o.MeasureInsts, o.Seed = 2, 20_000, 2_000, 1
		return o
	}
	seeds := []imageSeed{
		warmImage(f, "Data Serving", small(Options{})),
		warmImage(f, "SAT Solver", small(Options{PolluteBytes: 1 << 20})),
		warmImage(f, "MapReduce", small(Options{Sampling: Sampling{Intervals: 3}})),
		warmImage(f, "Web Search", small(Options{SMT: true})),
		warmImage(f, "TPC-C", small(Options{})),
	}
	for i, s := range seeds {
		n := uint32(s.size)
		f.Add(uint8(i), n, []byte(nil))
		f.Add(uint8(i), n/2, []byte(nil))
		f.Add(uint8(i), n-64, []byte{0xff, 0xff, 0xff, 0x7f})
		f.Add(uint8(i), n/3, []byte{0, 0, 0, 0x80, 1})
	}
	// Restore-validation seeds on the polluted image: the first TLB's
	// clock and the first stride detector's clock zeroed under live
	// stamps, and that detector's first stream given direction 5. Each
	// section opens with its length-prefixed tag, then the 8-byte clock;
	// a stream's direction follows its page and line offset.
	p := seeds[1].payload()
	if at := bytes.Index(p, []byte("\x03\x00\x00\x00tlb")); at >= 0 {
		f.Add(uint8(1), uint32(at+7), make([]byte, 8))
	}
	if at := bytes.Index(p, []byte("\x06\x00\x00\x00stride")); at >= 0 {
		f.Add(uint8(1), uint32(at+10), make([]byte, 8))
		f.Add(uint8(1), uint32(at+10+8+4+8+4), []byte{5, 0, 0, 0})
	}
	// Hostile v10 records on the first image, each checked to fail the
	// restore with its own error before it is added.
	for _, r := range recordRejections(f, seeds[0].payload()) {
		_, err := seeds[0].restore(f, mutate(seeds[0].payload(), r.at, r.patch))
		if err == nil || !strings.Contains(err.Error(), r.want) {
			f.Fatalf("%s: restore error %v, want one naming %q", r.name, err, r.want)
		}
		f.Add(uint8(0), r.at, r.patch)
	}
	f.Fuzz(func(t *testing.T, which uint8, at uint32, patch []byte) {
		s := seeds[int(which)%len(seeds)]
		payload := mutate(s.payload(), at, patch)
		// A decoder may allocate a few times the bytes it reads per
		// element; an unchecked count allocates without bound.
		alloc, _ := s.restore(t, payload)
		if limit := s.alloc + 8*uint64(len(payload)); alloc > limit {
			t.Fatalf("restore allocated %d bytes, over the %d-byte bound for a %d-byte payload", alloc, limit, len(payload))
		}
	})
}

// rejection is a mutation of a warm image's payload (see mutate) and
// the error its restore must fail with.
type rejection struct {
	name  string
	at    uint32
	patch []byte
	want  string
}

// recordRejections returns mutations of payload that break the v10
// varint records: in the first cache section (core 0's L1-I, a private
// cache with valid ways) a truncated varint, an 11-byte varint, index
// gaps of 0 and past the array, a stamp past 32 bits and an owner past
// the directory, which tracks no core there; and in the first
// emitter's residue, a record of op 7.
func recordRejections(tb testing.TB, payload []byte) []rejection {
	tb.Helper()
	at := func(section string) int {
		i := bytes.Index(payload, append(binary.LittleEndian.AppendUint32(nil, uint32(len(section))), section...))
		if i < 0 {
			tb.Fatalf("image has no %s section", section)
		}
		return i + 4 + len(section)
	}
	skip := func(i int) int { // past the varint at i
		_, n := binary.Uvarint(payload[i:])
		if n <= 0 {
			tb.Fatalf("no varint at offset %d", i)
		}
		return i + n
	}
	// A cache section is clock, way count and valid count (4 bytes
	// each), then records: index gap, tag, stamp, sharer mask (one 0
	// byte for an empty set), owner+1 and flags.
	gapAt := at("cache") + 12
	tagAt := skip(gapAt)
	stampAt := skip(tagAt)
	maskAt := skip(stampAt)
	if payload[tagAt] < 0x80 || payload[maskAt] != 0 {
		tb.Fatal("the first L1-I record has a 1-byte tag or a sharer")
	}
	// An emitter section is block length, branch entropy and seed (20
	// bytes), the tagged 4-word RNG state (39), sequence number, branch
	// countdown and kernel depth (16), the frame count and frames (32
	// bytes, a return flag, then 32 more bytes when it is set), residue
	// and lent counts (8), and the residue records.
	rec := at("emitter") + 20 + 39 + 16
	frames := int(binary.LittleEndian.Uint32(payload[rec:]))
	rec += 4
	for range frames {
		if rec += 33; payload[rec-1] != 0 {
			rec += 32
		}
	}
	if binary.LittleEndian.Uint32(payload[rec:]) == 0 {
		tb.Fatal("the first emitter has no residue")
	}
	rec += 8
	return []rejection{
		{"truncated varint", uint32(tagAt + 1), nil, "truncated varint"},
		{"11-byte varint", uint32(tagAt), append(bytes.Repeat([]byte{0x80}, 10), 1), "longer than 10 bytes"},
		{"index gap 0", uint32(gapAt), []byte{0}, "index gap 0"},
		{"index gap past the array", uint32(gapAt), binary.AppendUvarint(nil, 1<<32-1), "runs past"},
		{"stamp past 32 bits", uint32(stampAt), binary.AppendUvarint(nil, 1<<32), "LRU stamp 4294967296"},
		{"owner past the directory", uint32(maskAt + 1), []byte{1}, "names owner core 0"},
		{"residue op 7", uint32(rec), []byte{payload[rec] | 7}, "op 7"},
	}
}
