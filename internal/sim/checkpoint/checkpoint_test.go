package checkpoint

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func sampleSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	w := NewWriter()
	w.Tag("head")
	w.U8(7)
	w.Bool(true)
	w.U32(0xDEADBEEF)
	w.U64(1<<63 + 5)
	w.I64(-42)
	w.U64s([]uint64{1, 2, 3})
	w.I64s([]int64{-1, 0, 9})
	w.U8s([]byte{0xAA, 0xBB})
	w.Tag("tail")
	return w.Snapshot("bench=Test sockets=2")
}

func TestWriterReaderRoundTrip(t *testing.T) {
	s := sampleSnapshot(t)
	r := s.Reader()
	r.Expect("head")
	if v := r.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if !r.Bool() {
		t.Fatal("Bool = false")
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Fatalf("U32 = %#x", v)
	}
	if v := r.U64(); v != 1<<63+5 {
		t.Fatalf("U64 = %d", v)
	}
	if v := r.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	u := make([]uint64, 3)
	r.U64s(u)
	if u[2] != 3 {
		t.Fatalf("U64s = %v", u)
	}
	i := make([]int64, 3)
	r.I64s(i)
	if i[0] != -1 || i[2] != 9 {
		t.Fatalf("I64s = %v", i)
	}
	b := make([]byte, 2)
	r.U8s(b)
	if b[0] != 0xAA || b[1] != 0xBB {
		t.Fatalf("U8s = %v", b)
	}
	r.Expect("tail")
	if err := r.Err(); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

func TestReaderTagMismatch(t *testing.T) {
	s := sampleSnapshot(t)
	r := s.Reader()
	r.Expect("wrong")
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "tag mismatch") {
		t.Fatalf("want tag mismatch error, got %v", err)
	}
	// The first error sticks; later reads stay inert.
	if v := r.U64(); v != 0 {
		t.Fatalf("read after error = %d, want 0", v)
	}
}

func TestReaderLengthMismatch(t *testing.T) {
	w := NewWriter()
	w.U64s([]uint64{1, 2, 3})
	s := w.Snapshot("k")
	r := s.Reader()
	dst := make([]uint64, 4)
	r.U64s(dst)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "length mismatch") {
		t.Fatalf("want length mismatch error, got %v", err)
	}
}

// TestReaderCountBounded: a count whose elements fit in the bytes left
// passes, and one that would overrun them fails instead of returning a
// size to allocate.
func TestReaderCountBounded(t *testing.T) {
	w := NewWriter()
	w.U32(2)
	w.U64s([]uint64{1, 2}) // 4-byte length + 16 bytes
	w.U32(1 << 31)
	r := w.Snapshot("k").Reader()
	if n := r.Count(10); n != 2 || r.Err() != nil {
		t.Fatalf("Count(10) = %d, %v; want 2, nil", n, r.Err())
	}
	r.U64s(make([]uint64, 2))
	if n := r.Count(1); n != 0 {
		t.Fatalf("oversized count returned %d", n)
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("want count error, got %v", err)
	}
}

// TestVarintRoundTrip: every width of varint, signed and unsigned,
// reads back exactly, and each takes the bytes encoding/binary gives.
func TestVarintRoundTrip(t *testing.T) {
	us := []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, math.MaxUint64}
	is := []int64{0, 1, -1, 63, -64, 64, -65, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	w := NewWriter()
	want := 0
	for _, v := range us {
		w.Uvarint(v)
		want += len(binary.AppendUvarint(nil, v))
	}
	for _, v := range is {
		w.Varint(v)
		want += len(binary.AppendVarint(nil, v))
	}
	s := w.Snapshot("k")
	if s.Size() != want {
		t.Fatalf("varints took %d bytes, want %d", s.Size(), want)
	}
	r := s.Reader()
	for _, v := range us {
		if got := r.Uvarint(); got != v {
			t.Errorf("Uvarint = %d, want %d", got, v)
		}
	}
	for _, v := range is {
		if got := r.Varint(); got != v {
			t.Errorf("Varint = %d, want %d", got, v)
		}
	}
	if err := r.Err(); err != nil || r.pos != len(r.buf) {
		t.Fatalf("read %d of %d bytes, err %v", r.pos, len(r.buf), err)
	}
}

// TestVarintRejectsMalformed: a varint cut off by the end of the
// payload, one of 11 bytes and one whose tenth byte overflows 64 bits
// each fail the reader, and the first error sticks.
func TestVarintRejectsMalformed(t *testing.T) {
	ten := bytes.Repeat([]byte{0x80}, 9)
	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"empty", nil, "truncated varint"},
		{"cut off", []byte{0x80, 0x80}, "truncated varint"},
		{"11 bytes", append(bytes.Repeat([]byte{0x80}, 10), 1), "longer than 10 bytes"},
		{"past 64 bits", append(ten, 2), "longer than 10 bytes"},
	} {
		w := NewWriter()
		w.buf.Write(tc.raw)
		r := w.Snapshot("k").Reader()
		if v := r.Uvarint(); v != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
			t.Errorf("%s: Uvarint = %d, err %v; want 0 and %q", tc.name, v, r.Err(), tc.want)
		}
		if v := r.Varint(); v != 0 {
			t.Errorf("%s: read after error = %d, want 0", tc.name, v)
		}
	}
	w := NewWriter()
	w.buf.Write(append(ten, 1))
	if v := w.Snapshot("k").Reader().Uvarint(); v != 1<<63 {
		t.Errorf("10-byte varint = %#x, want 1<<63", v)
	}
}

// TestNextIndex: gaps walk a sparse list up to the array's last entry;
// a gap of 0 or one that runs past the array fails the reader.
func TestNextIndex(t *testing.T) {
	w := NewWriter()
	for _, gap := range []uint64{1, 3, 300, 3} { // indices 0, 3, 303, 306
		w.Uvarint(gap)
	}
	r := w.Snapshot("k").Reader()
	i := -1
	for _, want := range []int{0, 3, 303, 306} {
		if i = r.NextIndex(i, 307); i != want || r.Err() != nil {
			t.Fatalf("NextIndex = %d, %v; want %d", i, r.Err(), want)
		}
	}
	for _, tc := range []struct {
		name      string
		prev, gap int
		want      string
	}{
		{"gap 0", 5, 0, "index gap 0"},
		{"past the array", 5, 2, "runs past"},
		{"first past the array", -1, 8, "runs past"},
	} {
		w := NewWriter()
		w.Uvarint(uint64(tc.gap))
		r := w.Snapshot("k").Reader()
		if i := r.NextIndex(tc.prev, 7); i != -1 || r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
			t.Errorf("%s: NextIndex = %d, %v; want -1 and %q", tc.name, i, r.Err(), tc.want)
		}
	}
}

func TestReaderTruncation(t *testing.T) {
	w := NewWriter()
	w.U32(1)
	s := w.Snapshot("k")
	r := s.Reader()
	r.U64()
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want truncation error, got %v", err)
	}
}

func TestEncodeDecode(t *testing.T) {
	s := sampleSnapshot(t)
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Key() != s.Key() {
		t.Fatalf("key = %q, want %q", d.Key(), s.Key())
	}
	if d.Hash() != s.Hash() {
		t.Fatalf("hash mismatch after decode")
	}
	if d.Size() != s.Size() {
		t.Fatalf("size = %d, want %d", d.Size(), s.Size())
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	s := sampleSnapshot(t)
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xFF // flip a payload byte
	if _, err := Decode(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("want hash mismatch, got %v", err)
	}
}

func TestDecodeRejectsBadMagicAndVersion(t *testing.T) {
	s := sampleSnapshot(t)
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	raw[0] = 'X'
	if _, err := Decode(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want magic error, got %v", err)
	}
	raw = append([]byte(nil), buf.Bytes()...)
	raw[8] = 99 // version field
	if _, err := Decode(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	s := sampleSnapshot(t)
	path := filepath.Join(t.TempDir(), "warm.ckpt")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	d, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Key() != s.Key() || d.Hash() != s.Hash() {
		t.Fatal("file round trip altered the snapshot")
	}
}

func TestSnapshotHashIsContentHash(t *testing.T) {
	w1 := NewWriter()
	w1.U64(1)
	w2 := NewWriter()
	w2.U64(1)
	a, b := w1.Snapshot("ka"), w2.Snapshot("kb")
	if a.Hash() != b.Hash() {
		t.Fatal("identical payloads must hash identically (key is not part of the content hash)")
	}
	w3 := NewWriter()
	w3.U64(2)
	if c := w3.Snapshot("ka"); c.Hash() == a.Hash() {
		t.Fatal("different payloads must hash differently")
	}
}
