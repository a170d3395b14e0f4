package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"reflect"
	"testing"

	"cloudsuite/internal/rng"
	"cloudsuite/internal/sim/checkpoint"
)

// refGen is the copy-out generator that StepGen.Batch replaced, kept as
// the reference model of the pull rule: Next drains the emitter into
// out and runs a Step only when the emitter is empty and out is not yet
// full.
type refGen struct {
	e    *Emitter
	prog Program
	done bool
}

func (g *refGen) Next(out []Inst) int {
	total := 0
	for total < len(out) {
		if len(g.e.buf) == g.e.pos {
			if g.done {
				break
			}
			if !g.prog.Step(g.e) {
				g.done = true
			}
			continue
		}
		n := copy(out[total:], g.e.buf[g.e.pos:])
		g.e.pos += n
		if g.e.pos == len(g.e.buf) {
			g.e.buf, g.e.pos = g.e.buf[:0], 0
		}
		total += n
	}
	return total
}

// stepPoint is where a Step ran: the pull it ran in and the emitter's
// Seq when it started.
type stepPoint struct {
	pull int
	seq  int64
}

// scriptProg emits script[i] independent ALU ops (plus the emitter's
// auto-branches) on its i-th Step and ends with the last entry. It logs
// every Step's stepPoint; pull is the driver's current pull index.
type scriptProg struct {
	fn     *Func
	script []int
	pull   *int
	log    []stepPoint
}

func (p *scriptProg) Init(e *Emitter) { e.Call(p.fn) }

func (p *scriptProg) Step(e *Emitter) bool {
	p.log = append(p.log, stepPoint{*p.pull, e.seq})
	e.ALUIndep(p.script[len(p.log)-1])
	return len(p.log) < len(p.script)
}

// pullAll pulls one batch per entry of maxes and returns the
// concatenated stream and every batch's length.
func pullAll(pull func(max int) []Inst, maxes []int, idx *int) (stream []Inst, lens []int) {
	for i, max := range maxes {
		*idx = i
		b := pull(max)
		lens = append(lens, len(b))
		stream = append(stream, b...)
	}
	return stream, lens
}

// TestBatchMatchesCopyOutReference: for random sequences of max and for
// programs with zero-length, huge and final Steps, Batch yields the
// reference Next's stream in the same batch lengths, with every Step
// run at the same point.
func TestBatchMatchesCopyOutReference(t *testing.T) {
	r := rng.New(5)
	random := make([]int, 60)
	for i := range random {
		switch r.Intn(4) {
		case 0:
			random[i] = 0
		case 1:
			random[i] = 1 + r.Intn(50)
		case 2:
			random[i] = 3000 + r.Intn(20000)
		default:
			random[i] = r.Intn(600)
		}
	}
	scripts := map[string][]int{
		"zero-length": {0, 0, 3, 0, 0, 0, 5, 0, 0, 2},
		"huge":        {10000, 1, 20000, 2, 50000},
		"final-emits": {4, 7, 9},
		"final-empty": {5, 0},
		"only-empty":  {0},
		"exact":       {5, 5, 0, 5, 10, 5, 5, 3, 2, 5},
		"random":      random,
	}
	f := NewCodeLayout(0x400000, 1<<20).Func("f", 256)
	for name, script := range scripts {
		for seed := int64(1); seed <= 4; seed++ {
			r := rng.New(seed)
			maxes := make([]int, 300)
			for i := range maxes {
				switch r.Intn(6) {
				case 0:
					maxes[i] = r.Intn(2)
				case 5:
					maxes[i] = 5 * r.Intn(4) // lands on exact Step boundaries
				case 1:
					maxes[i] = 1 + r.Intn(64)
				case 2:
					maxes[i] = 4096
				case 3:
					maxes[i] = 10000 + r.Intn(40000)
				default:
					maxes[i] = r.Intn(3000)
				}
			}
			cfg := EmitterConfig{Seed: seed, BranchEntropy: 0.2}
			if seed%2 == 0 {
				// No auto-branches: a Step emits exactly its script
				// entry, so pending counts hit max exactly.
				cfg.BlockLen = 1 << 20
			}
			var idx int

			rp := &scriptProg{fn: f, script: script, pull: &idx}
			ref := &refGen{e: NewEmitter(cfg), prog: rp}
			rp.Init(ref.e)
			wantStream, wantLens := pullAll(func(max int) []Inst {
				out := make([]Inst, max)
				return out[:ref.Next(out)]
			}, maxes, &idx)

			bp := &scriptProg{fn: f, script: script, pull: &idx}
			g := NewStepGen(cfg, bp)
			gotStream, gotLens := pullAll(g.Batch, maxes, &idx)
			g.Close()

			if !reflect.DeepEqual(gotLens, wantLens) {
				t.Errorf("%s/seed %d: batch lengths differ from the reference", name, seed)
			}
			if !reflect.DeepEqual(gotStream, wantStream) {
				t.Errorf("%s/seed %d: stream differs from the reference (%d vs %d insts)", name, seed, len(gotStream), len(wantStream))
			}
			if !reflect.DeepEqual(bp.log, rp.log) {
				t.Errorf("%s/seed %d: Steps ran at %v, reference at %v", name, seed, bp.log, rp.log)
			}
		}
	}
}

// countProg is statefulProg counting its Steps outside the image.
type countProg struct {
	statefulProg
	steps int
}

func (p *countProg) Step(e *Emitter) bool {
	p.steps++
	return p.statefulProg.Step(e)
}

// forge replaces the only occurrence of old in the encoded snapshot
// with repl, re-seals the content hash and decodes the result.
func forge(t *testing.T, snap *checkpoint.Snapshot, old, repl []byte) *checkpoint.Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	p := len(raw) - snap.Size()
	if n := bytes.Count(raw[p:], old); n != 1 {
		t.Fatalf("pattern occurs %d times in the payload, want 1", n)
	}
	copy(raw[p+bytes.Index(raw[p:], old):], repl)
	sum := sha256.Sum256(raw[p:])
	copy(raw[p-32:p], sum[:])
	forged, err := checkpoint.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return forged
}

func le(vs ...any) []byte {
	var b []byte
	for _, v := range vs {
		b, _ = binary.Append(b, binary.LittleEndian, v)
	}
	return b
}

// TestLoadStateRejectsLentOverResidue: an image whose lent count
// exceeds the restored residue (StepGen) or cursor (SliceGen, LoopGen)
// fails LoadState with an error, and no Step runs.
func TestLoadStateRejectsLentOverResidue(t *testing.T) {
	f := NewCodeLayout(0x400000, 1<<20).Func("f", 128)
	insts := make([]Inst, 100)
	const lent = 40
	// Each row's patch returns the saved bytes holding lent and a
	// replacement whose lent is one past what the image can back.
	cursor := func(cursorGen) (old, repl []byte) {
		return le(uint64(100), uint64(100), uint64(lent)), le(uint64(100), uint64(100), uint64(101))
	}
	for _, tc := range []struct {
		name  string
		mk    func() (cursorGen, *countProg)
		patch func(g cursorGen) (old, repl []byte)
	}{
		{"stepgen", func() (cursorGen, *countProg) {
			p := &countProg{statefulProg: statefulProg{fn: f}}
			return NewStepGen(EmitterConfig{Seed: 3}, p), p
		}, func(g cursorGen) (old, repl []byte) {
			e := g.(*StepGen).e
			k := uint32(len(e.buf) - e.pos + lent)
			return le(k, uint32(lent)), le(k, k+1)
		}},
		{"slicegen", func() (cursorGen, *countProg) { return &SliceGen{Insts: insts}, nil }, cursor},
		{"loopgen", func() (cursorGen, *countProg) { return &LoopGen{Insts: insts}, nil }, cursor},
	} {
		g, _ := tc.mk()
		g.Batch(100)
		w := checkpoint.NewWriter()
		g.SaveState(w, lent)
		old, repl := tc.patch(g)
		forged := forge(t, w.Snapshot(tc.name), old, repl)

		fresh, prog := tc.mk()
		rd := forged.Reader()
		fresh.LoadState(rd)
		if rd.Err() == nil {
			t.Errorf("%s: lent past the saved instructions loaded without error", tc.name)
		}
		if prog != nil && prog.steps != 0 {
			t.Errorf("%s: loading ran %d Steps", tc.name, prog.steps)
		}
	}
}
