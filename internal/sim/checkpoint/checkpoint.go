// Package checkpoint implements warm-state snapshots of the simulated
// machine: a versioned binary container that serializes the complete
// microarchitectural state at the warm->measure boundary — cache arrays
// with directory state, TLBs, branch predictors, prefetcher state, DRAM
// controller queues and counters, and per-core performance counters —
// so parameter sweeps over the same warmed workload can fork from one
// warm image instead of re-executing functional warming from a cold
// machine (checkpointed sampling in the SMARTS/TurboSMARTS live-points
// tradition).
//
// A warm image also carries the generator half of the machine (a
// "live" image, in the live-points sense): emitter RNG and call-stack
// state, per-thread program state, the workload's shared structures,
// and each thread's one residue section of built but unfetched
// instructions. Restoring it is a pure
// load — no part of the warmup instruction stream is re-executed (see
// engine.RunConfig.Restore). The differential test harness proves the
// restore byte-identical to a cold run for every benchmark.
//
// Container layout (all little-endian):
//
//	magic   [8]byte  "CSCKPT01"
//	version uint32   format version (Version)
//	keyLen  uint32   followed by the identity key string
//	paylen  uint64   payload length in bytes
//	hash    [32]byte SHA-256 of the payload
//	payload []byte   tagged component sections
//
// The payload is a sequence of sections written by the component
// Save/Load methods through Writer and Reader. Every section starts
// with a length-prefixed tag string and every fixed-size block is
// length-prefixed, so a snapshot taken under a different machine
// geometry (or a stale format) fails to decode with a clear error
// instead of silently corrupting state. The SHA-256 content hash makes
// on-disk integrity checkable without decoding.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Version is the snapshot format version. Bump it whenever any
// component's serialized layout changes; snapshots of other versions
// are rejected at decode time (a disk cache then simply re-warms).
//
// History: v1 stored the LLC directory's sharers as a flat uint32
// bitmask; v2 stores the sparse sharer-set encoding that tracks up to
// 256 cores; v3 appends the generator section (live/replay flavor
// byte, workload shared state, per-thread generator state, residual
// fetch buffers) so live images restore by a pure load; v4 drops the
// replay flavor: every image carries the generator section, led by a
// shared-state presence flag, and the traditional proxies serialize
// their threads; v5 has one residue section per thread: the engine
// fetches from the generator's lent batch, so the generator writes the
// unfetched rest of that batch with its own residue and the lent count,
// and the engine's fetch-buffer section is gone; v6 keeps v5's byte
// layout but the cache's in-memory directory moved out of its ways into
// a machine-sized per-LLC array, and restore rejects directory ids
// beyond the machine; v7's kernel section drops two cursors that never
// advanced (the socket-buffer and NIC-ring cursors) and keeps the NIC
// count, so a restore onto another NIC geometry still fails; v8's
// residue records are 32 bytes instead of 38, with each dependence
// distance one byte saturated at 255 (trace.MaxDepDist), and
// addrspace.Array drops its unread Elem field; v9 stores cache LRU
// stamps and clocks in 4 bytes instead of 8, keeps the branch
// predictor's 2-bit counters four to a byte in memory (the sparse PHT
// encoding is unchanged), and writes each residue record by hand
// without the 4-byte block length that preceded a thread's residue;
// v10 delta-codes each residue record against the one before it
// (header and presence bytes, then varints of only the fields
// present), writes the PHT densely as its packed bytes, and gap-codes
// cache way records with varint index gap, tag, stamp and owner; v11
// keeps v10's byte layout, but the kernel's NIC rings, whose count
// every image since v7 carries, join the statefp schema (their
// checkpointcov exemption was stale, kept alive only by the field
// below it); v12's DRAM section drops the controller's observation
// span (start and last-transfer cycles), which no result read; v13's
// DRAM section also drops the controller's read and write counts,
// which the per-core counters already carry, and the cache system no
// longer holds a socket hop matrix.
const Version = 13

//simlint:ok globalrand write-once file-format magic, read-only after initialization
var magic = [8]byte{'C', 'S', 'C', 'K', 'P', 'T', '0', '1'}

// Snapshot is one immutable warm-state image: a version, an identity
// key naming the warm-relevant configuration it was taken under, the
// serialized payload, and the payload's SHA-256 content hash.
type Snapshot struct {
	version uint32
	key     string
	payload []byte
	hash    [32]byte
}

// Key returns the identity string the snapshot was saved under.
func (s *Snapshot) Key() string { return s.key }

// Hash returns the SHA-256 content hash of the payload.
func (s *Snapshot) Hash() [32]byte { return s.hash }

// Size returns the payload size in bytes.
func (s *Snapshot) Size() int { return len(s.payload) }

// Writer accumulates a snapshot payload. All integers are encoded
// little-endian; writes cannot fail (the buffer grows in memory). A
// Writer is single-use: Snapshot hands its buffer to the snapshot.
type Writer struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

// NewWriter returns an empty payload writer.
func NewWriter() *Writer { return &Writer{} }

// Tag starts a named section. Reader.Expect verifies tags in order, so
// a mis-sequenced or mis-shaped decode fails at the first boundary.
func (w *Writer) Tag(name string) {
	w.U32(uint32(len(name)))
	w.buf.WriteString(name)
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf.WriteByte(v) }

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 writes a uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.tmp[:4], v)
	w.buf.Write(w.tmp[:4])
}

// U64 writes a uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.tmp[:8], v)
	w.buf.Write(w.tmp[:8])
}

// I64 writes an int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 writes a float64 as its IEEE-754 bit pattern. Bit-exact round
// trips matter here: generator state (branch-entropy overrides, Zipf
// parameters) feeds back into instruction streams, so even one ULP of
// drift would break restore determinism.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Uvarint writes v as an unsigned LEB128 varint of 1 to 10 bytes.
func (w *Writer) Uvarint(v uint64) { w.buf.Write(binary.AppendUvarint(w.tmp[:0], v)) }

// Varint writes v zigzag-coded as a varint, so small magnitudes of
// either sign take few bytes.
func (w *Writer) Varint(v int64) { w.buf.Write(binary.AppendVarint(w.tmp[:0], v)) }

// U64s writes a length-prefixed []uint64.
func (w *Writer) U64s(vs []uint64) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// I64s writes a length-prefixed []int64.
func (w *Writer) I64s(vs []int64) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.I64(v)
	}
}

// U8s writes a length-prefixed byte slice.
func (w *Writer) U8s(vs []uint8) {
	w.U32(uint32(len(vs)))
	w.buf.Write(vs)
}

// Struct writes v (a value or slice of fixed-size types, per
// encoding/binary) as a length-prefixed little-endian block. It panics
// on a non-fixed-size type: that is a programming error, not a runtime
// condition. Intended for small bookkeeping structs; hot arrays should
// be hand-encoded with the scalar helpers.
func (w *Writer) Struct(v any) {
	var b bytes.Buffer
	if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
		panic(fmt.Sprintf("checkpoint: non-serializable type %T: %v", v, err))
	}
	w.U32(uint32(b.Len()))
	w.buf.Write(b.Bytes())
}

// Snapshot finalizes the payload under the given identity key. It
// takes the writer's buffer instead of copying it, so a warm image is
// never held twice; the Writer must not be used afterwards.
func (w *Writer) Snapshot(key string) *Snapshot {
	payload := w.buf.Bytes()
	w.buf = bytes.Buffer{}
	return &Snapshot{
		version: Version,
		key:     key,
		payload: payload,
		hash:    sha256.Sum256(payload),
	}
}

// Reader decodes a snapshot payload. The first error sticks: subsequent
// reads return zero values, so component Load methods can decode
// straight-line and check Err once.
type Reader struct {
	buf []byte
	pos int
	err error
}

// Reader returns a payload reader positioned at the start.
func (s *Snapshot) Reader() *Reader { return &Reader{buf: s.payload} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Failf records a semantic decode failure (e.g. a geometry mismatch a
// component detects itself). Like internal errors, the first one
// sticks.
func (r *Reader) Failf(format string, args ...any) { r.fail(format, args...) }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.pos+n > len(r.buf) {
		r.fail("truncated payload (want %d bytes at offset %d of %d)", n, r.pos, len(r.buf))
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// Expect consumes a section tag and fails unless it matches name.
func (r *Reader) Expect(name string) {
	n := int(r.U32())
	b := r.take(n)
	if r.err == nil && string(b) != name {
		r.fail("section tag mismatch: have %.64q, want %q", b, name)
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Uvarint reads a varint written by Writer.Uvarint. It fails on a
// varint cut off by the end of the payload and on one longer than 10
// bytes or past 64 bits. Callers narrowing the value check its range
// first.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	switch {
	case n == 0:
		r.fail("truncated varint at offset %d of %d", r.pos, len(r.buf))
		return 0
	case n < 0:
		r.fail("varint at offset %d is longer than %d bytes or overflows 64 bits", r.pos, binary.MaxVarintLen64)
		return 0
	}
	r.pos += n
	return v
}

// NextIndex reads the varint gap from index prev (-1 before the first)
// to the next entry of a sparse list over an n-entry array, written as
// Uvarint(next - prev), and returns that index. It fails, returning -1,
// unless the gap is at least 1 and the index lies inside the array, so
// a list's indices strictly increase and never leave it.
func (r *Reader) NextIndex(prev, n int) int {
	gap := r.Uvarint()
	switch {
	case r.err != nil:
		return -1
	case gap == 0:
		r.fail("index gap 0 after index %d", prev)
		return -1
	case gap >= uint64(n-prev):
		r.fail("index gap %d after index %d runs past the %d-entry array", gap, prev, n)
		return -1
	}
	return prev + int(gap)
}

// Varint reads a zigzag varint written by Writer.Varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads a uint32 element count for a decoder that allocates from
// it. It fails, returning 0, when that many elements of at least
// minElemBytes each would need more bytes than the payload has left, so
// a corrupt prefix cannot drive a huge allocation.
func (r *Reader) Count(minElemBytes int) int {
	n := r.U32()
	if left := len(r.buf) - r.pos; r.err == nil && uint64(n)*uint64(minElemBytes) > uint64(left) {
		r.fail("count %d of %d-byte elements exceeds the %d bytes left", n, minElemBytes, left)
		return 0
	}
	return int(n)
}

// F64 reads a float64 written by Writer.F64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// U64s reads a length-prefixed []uint64 into dst, failing on a length
// mismatch (the snapshot was taken under a different geometry).
func (r *Reader) U64s(dst []uint64) {
	n := int(r.U32())
	if r.err == nil && n != len(dst) {
		r.fail("slice length mismatch: snapshot has %d elements, state wants %d", n, len(dst))
		return
	}
	for i := range dst {
		dst[i] = r.U64()
	}
}

// I64s reads a length-prefixed []int64 into dst.
func (r *Reader) I64s(dst []int64) {
	n := int(r.U32())
	if r.err == nil && n != len(dst) {
		r.fail("slice length mismatch: snapshot has %d elements, state wants %d", n, len(dst))
		return
	}
	for i := range dst {
		dst[i] = r.I64()
	}
}

// U8s reads a length-prefixed byte slice into dst.
func (r *Reader) U8s(dst []uint8) {
	n := int(r.U32())
	if r.err == nil && n != len(dst) {
		r.fail("slice length mismatch: snapshot has %d bytes, state wants %d", n, len(dst))
		return
	}
	copy(dst, r.take(len(dst)))
}

// Struct reads a length-prefixed block written by Writer.Struct into v
// (a pointer or slice of fixed-size types), failing on a size mismatch.
func (r *Reader) Struct(v any) {
	n := int(r.U32())
	want := binary.Size(v)
	if r.err == nil && n != want {
		r.fail("struct size mismatch for %T: snapshot has %d bytes, state wants %d", v, n, want)
		return
	}
	b := r.take(n)
	if b == nil {
		return
	}
	if err := binary.Read(bytes.NewReader(b), binary.LittleEndian, v); err != nil {
		r.fail("decoding %T: %v", v, err)
	}
}

// --- container encoding ---------------------------------------------------

// Encode writes the snapshot container (header, key, hash, payload).
func (s *Snapshot) Encode(w io.Writer) error {
	var hdr bytes.Buffer
	hdr.Write(magic[:])
	var u32 [4]byte
	var u64 [8]byte
	binary.LittleEndian.PutUint32(u32[:], s.version)
	hdr.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], uint32(len(s.key)))
	hdr.Write(u32[:])
	hdr.WriteString(s.key)
	binary.LittleEndian.PutUint64(u64[:], uint64(len(s.payload)))
	hdr.Write(u64[:])
	hdr.Write(s.hash[:])
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	_, err := w.Write(s.payload)
	return err
}

// Decode reads a snapshot container, verifying magic, version, and the
// SHA-256 content hash.
func Decode(r io.Reader) (*Snapshot, error) {
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", m[:])
	}
	var u32 [4]byte
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: reading version: %w", err)
	}
	version := binary.LittleEndian.Uint32(u32[:])
	if version != Version {
		return nil, fmt.Errorf("checkpoint: version %d not supported (want %d)", version, Version)
	}
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: reading key length: %w", err)
	}
	keyLen := binary.LittleEndian.Uint32(u32[:])
	const maxKeyLen = 1 << 20
	if keyLen > maxKeyLen {
		return nil, fmt.Errorf("checkpoint: key length %d exceeds limit", keyLen)
	}
	key := make([]byte, keyLen)
	if _, err := io.ReadFull(r, key); err != nil {
		return nil, fmt.Errorf("checkpoint: reading key: %w", err)
	}
	var u64 [8]byte
	if _, err := io.ReadFull(r, u64[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: reading payload length: %w", err)
	}
	payLen := binary.LittleEndian.Uint64(u64[:])
	const maxPayload = 1 << 32
	if payLen > maxPayload {
		return nil, fmt.Errorf("checkpoint: payload length %d exceeds limit", payLen)
	}
	var hash [32]byte
	if _, err := io.ReadFull(r, hash[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: reading hash: %w", err)
	}
	payload := make([]byte, payLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("checkpoint: reading payload: %w", err)
	}
	if got := sha256.Sum256(payload); got != hash {
		return nil, fmt.Errorf("checkpoint: content hash mismatch (snapshot corrupt)")
	}
	return &Snapshot{version: version, key: string(key), payload: payload, hash: hash}, nil
}

// SaveFile writes the snapshot to path atomically and durably: the
// temp file is fsynced before the rename and the directory after it,
// so concurrent readers never observe a torn image and a crash right
// after SaveFile returns cannot leave a zero-length or half-written
// file under the final name (which a later run would have to detect
// and repair).
func (s *Snapshot) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := s.Encode(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: writing %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: syncing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Persist the rename itself. Directory fsync is best-effort on
	// filesystems that do not support it; the image contents are already
	// durable either way.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadFile reads and verifies a snapshot from path.
func LoadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
