package trace_test

import (
	"math"
	"strings"
	"testing"

	"cloudsuite/internal/core"
	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/trace"
)

// residueBatches is how many engine-sized batches of each thread's
// stream the residue tests code: enough to cross several requests of
// every bench.
const residueBatches = 32

// benchStreams returns each bench's two-thread stream (seed 1), pulled
// in engine-sized batches in alternation as the engine pulls them.
func benchStreams(t *testing.T, fn func(bench string, thread int, insts []trace.Inst)) {
	t.Helper()
	for _, b := range core.AllBenches() {
		gens := b.New().Start(2, 1)
		streams := make([][]trace.Inst, len(gens))
		for range residueBatches {
			for i, g := range gens {
				streams[i] = append(streams[i], g.Batch(4096)...)
			}
		}
		for i, g := range gens {
			g.Close()
			fn(b.Name, i, streams[i])
		}
	}
}

// codeResidue writes insts as residue records, then a closing tag, and
// returns the image and the bytes the records took.
func codeResidue(insts []trace.Inst) (*checkpoint.Snapshot, int) {
	w := checkpoint.NewWriter()
	trace.SaveResidue(w, insts)
	w.Tag("end") // a 4-byte length and the name
	img := w.Snapshot("residue")
	return img, img.Size() - 4 - len("end")
}

// roundTrip codes insts and decodes them, failing unless every field
// of every instruction comes back and the records end at the closing
// tag.
func roundTrip(t *testing.T, name string, insts []trace.Inst) {
	t.Helper()
	img, _ := codeResidue(insts)
	rd := img.Reader()
	got := make([]trace.Inst, len(insts))
	trace.LoadResidue(rd, got)
	rd.Expect("end")
	if err := rd.Err(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i := range insts {
		if got[i] != insts[i] {
			t.Fatalf("%s: instruction %d restored as %+v, want %+v", name, i, got[i], insts[i])
		}
	}
}

// TestResidueRecordRoundTrip: residue records restore every field of
// every bench's two-thread stream and of hostile instructions: PC,
// Addr and Target deltas that wrap the 64-bit range, all-zero and
// all-max fields, and every combination of op, flags and present
// fields. A record whose Op or presence bits the package does not
// define fails the load.
func TestResidueRecordRoundTrip(t *testing.T) {
	benchStreams(t, func(bench string, thread int, insts []trace.Inst) {
		if len(insts) == 0 {
			t.Errorf("%s thread %d emitted nothing", bench, thread)
		}
		roundTrip(t, bench, insts)
	})

	const max = math.MaxUint64
	roundTrip(t, "wrapping deltas", []trace.Inst{
		{PC: max, Addr: max, Target: 1},
		{PC: 3, Addr: 1, Target: max}, // PC wraps by +InstBytes: a sequential record
		{PC: 1 << 63, Addr: 1 << 63},  // deltas of -2^63 and +2^63
		{PC: 0, Addr: 1<<63 - 1, Target: max},
		{PC: max - 1, Addr: max, Target: 2},
	})
	allMax := trace.Inst{PC: max, Addr: max, Target: max, DepA: math.MaxUint8, DepB: math.MaxUint8,
		Size: math.MaxUint8, Op: trace.NumOps - 1, Kernel: true, Taken: true, Uncond: true, AcquiresDep: true}
	roundTrip(t, "extremes", []trace.Inst{{}, allMax, {}, allMax, allMax, {}})

	// Every op, every flag combination, every set of present fields.
	var every []trace.Inst
	pc := uint64(0x400000)
	for op := trace.Op(0); op < trace.NumOps; op++ {
		for flags := range 16 {
			for has := range 32 {
				pc += 4 * uint64(has&3) // sequential and jumping PCs
				in := trace.Inst{PC: pc, Op: op, Kernel: flags&1 != 0, Taken: flags&2 != 0,
					Uncond: flags&4 != 0, AcquiresDep: flags&8 != 0}
				if has&1 != 0 {
					in.DepA = uint8(has)
				}
				if has&2 != 0 {
					in.DepB = math.MaxUint8
				}
				if has&4 != 0 {
					in.Size = 8
				}
				if has&8 != 0 {
					in.Addr = 0x7f00_0000_0000 - uint64(flags)*64
				}
				if has&16 != 0 {
					in.Target = pc - uint64(op)*0x1000
				}
				every = append(every, in)
			}
		}
	}
	roundTrip(t, "every combination", every)

	for _, tc := range []struct {
		name string
		hdr  uint8
		has  uint8
		want string
	}{
		{"undefined op", uint8(trace.NumOps), 0, "op 7"},
		{"unknown presence bit", 0, 1 << 5, "presence byte"},
	} {
		w := checkpoint.NewWriter()
		w.U8(tc.hdr)
		w.U8(tc.has)
		w.Varint(4)
		rd := w.Snapshot("bad").Reader()
		trace.LoadResidue(rd, make([]trace.Inst, 1))
		if err := rd.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: load error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestResidueDensity pins the residue codec's density: on every bench's
// stream a record averages at most 8 bytes, a quarter of the 32-byte
// Inst it codes, so a later change cannot quietly re-inflate warm
// images.
func TestResidueDensity(t *testing.T) {
	benchStreams(t, func(bench string, thread int, insts []trace.Inst) {
		_, n := codeResidue(insts)
		perInst := float64(n) / float64(len(insts))
		t.Logf("%-18s thread %d: %.2f bytes per instruction", bench, thread, perInst)
		if perInst > 8 {
			t.Errorf("%s thread %d: residue records average %.2f bytes, over the 8-byte budget", bench, thread, perInst)
		}
	})
}
