package bpred

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cloudsuite/internal/sim/checkpoint"
)

// phtLen is the number of PHT counters.
func (p *Predictor) phtLen() int { return int(p.phtMask) + 1 }

func TestLearnsBiasedBranch(t *testing.T) {
	p := New(DefaultConfig())
	pc, tgt := uint64(0x400100), uint64(0x400200)
	miss := 0
	for i := 0; i < 1000; i++ {
		if p.Predict(pc, true, tgt) {
			miss++
		}
	}
	// Allow for history warm-up (~history length + counter training).
	if miss > 20 {
		t.Fatalf("always-taken branch mispredicted %d/1000 times", miss)
	}
}

func TestLearnsAlternatingPattern(t *testing.T) {
	p := New(DefaultConfig())
	pc, tgt := uint64(0x400100), uint64(0x400200)
	miss := 0
	for i := 0; i < 2000; i++ {
		if p.Predict(pc, i%2 == 0, tgt) {
			miss++
		}
	}
	// Global history makes a strict alternation learnable.
	if frac := float64(miss) / 2000; frac > 0.2 {
		t.Fatalf("alternating branch mispredict rate %.2f, want < 0.2", frac)
	}
}

func TestRandomBranchMispredictsOften(t *testing.T) {
	p := New(DefaultConfig())
	rng := rand.New(rand.NewSource(7))
	pc, tgt := uint64(0x400100), uint64(0x400200)
	miss := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if p.Predict(pc, rng.Intn(2) == 0, tgt) {
			miss++
		}
	}
	frac := float64(miss) / n
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("random branch mispredict rate %.2f, want ~0.5", frac)
	}
}

func TestBTBMissOnNewTakenBranch(t *testing.T) {
	p := New(DefaultConfig())
	// Warm the direction predictor toward taken at this index without
	// populating the BTB slot for the probe PC.
	pc := uint64(0x400100)
	p.Update(pc, true, 0x400200)
	p.Update(pc, true, 0x400200)
	probe := pc + uint64(p.btbMask+1)*4 // same BTB slot, different tag
	_, _, valid := p.Lookup(probe)
	if valid {
		t.Fatal("BTB should miss for a PC it never saw taken")
	}
}

// Property: training one counter never disturbs the three counters
// packed beside it, and every counter stays within [0,3]. The packed
// table is checked against a byte-per-counter model.
func TestQuickCounterBounds(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New(Config{GshareBits: 8, BTBEntries: 64, HistoryBits: 8})
		model := make([]uint8, p.phtLen())
		for i := range model {
			model[i] = 1
		}
		for i := 0; i < 5000; i++ {
			pc := uint64(rng.Intn(512)) * 4
			taken := rng.Intn(2) == 0
			idx := p.index(pc)
			if taken && model[idx] < 3 {
				model[idx]++
			} else if !taken && model[idx] > 0 {
				model[idx]--
			}
			p.Predict(pc, taken, pc+64)
		}
		for i, want := range model {
			if p.ctr(uint64(i)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestFootprint pins the packed PHT: the default 64K counters take
// 16 KB per core.
func TestFootprint(t *testing.T) {
	p := New(DefaultConfig())
	if p.phtLen() != 64<<10 || len(p.pht) != 16<<10 {
		t.Errorf("PHT holds %d counters in %d bytes, want 65536 in 16384", p.phtLen(), len(p.pht))
	}
}

// TestStateRoundTrip checks that a trained predictor restores exactly,
// and that an image whose PHT is one byte short or long is refused
// rather than restored onto a table of another size.
func TestStateRoundTrip(t *testing.T) {
	cfg := Config{GshareBits: 6, BTBEntries: 16, HistoryBits: 4}
	p := New(cfg)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		pc := uint64(rng.Intn(64)) * 4
		p.Predict(pc, rng.Intn(3) > 0, pc+64)
	}
	p.Update(0xffff_fff0, true, 0x40) // a target far below its branch
	w := checkpoint.NewWriter()
	p.SaveState(w)
	img := w.Snapshot("bpred")

	q := New(cfg)
	r := img.Reader()
	q.LoadState(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.pht, p.pht) || q.history != p.history ||
		!slices.Equal(q.btb, p.btb) {
		t.Fatal("restored predictor differs from the saved one")
	}

	for _, n := range []int{len(q.pht) - 1, len(q.pht) + 1} {
		w = checkpoint.NewWriter()
		w.Tag("bpred")
		w.U64(0)
		w.U8s(make([]uint8, n))
		w.U32(uint32(len(q.btb)))
		w.U32(0)
		r = w.Snapshot("bad").Reader()
		q.LoadState(r)
		if r.Err() == nil {
			t.Fatalf("a %d-byte PHT loaded into a %d-byte table", n, len(q.pht))
		}
	}
}

// TestPHTImageSize pins the PHT's share of an image: the default 64K
// counters are written as their 16 KB of packed bytes plus a 4-byte
// length, however the predictor was trained.
func TestPHTImageSize(t *testing.T) {
	p := New(DefaultConfig())
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		p.Update(uint64(rng.Intn(1<<16))*4, false, 0) // not taken: the BTB stays empty
	}
	w := checkpoint.NewWriter()
	p.SaveState(w)
	// Tag, history, then the BTB's size and filled count around the PHT.
	const rest = 4 + len("bpred") + 8 + 4 + 4
	if got := w.Snapshot("k").Size() - rest; got != 4+16<<10 {
		t.Errorf("the PHT takes %d bytes of the image, want %d", got, 4+16<<10)
	}
}

// saveTwoArrays is the image layout SaveState writes, encoded from the
// two parallel BTB arrays the predictor kept before each slot held its
// tag beside its target: history, packed PHT, BTB size, filled count,
// then per filled slot the index gap, the tag and the target's delta
// from the tag.
func saveTwoArrays(p *Predictor) *checkpoint.Snapshot {
	tags, tgts := make([]uint64, len(p.btb)), make([]uint64, len(p.btb))
	for i, e := range p.btb {
		tags[i], tgts[i] = e.tag, e.target
	}
	w := checkpoint.NewWriter()
	w.Tag("bpred")
	w.U64(p.history)
	w.U8s(p.pht)
	w.U32(uint32(len(tags)))
	filled := uint32(0)
	for _, t := range tags {
		if t != 0 {
			filled++
		}
	}
	w.U32(filled)
	prev := -1
	for i, t := range tags {
		if t != 0 {
			w.Uvarint(uint64(i - prev))
			w.Uvarint(t)
			w.Varint(int64(tgts[i] - t))
			prev = i
		}
	}
	return w.Snapshot("bpred")
}

// TestSaveMatchesTwoArrayLayout: after random training, including
// targets below their branch and an empty BTB, SaveState writes exactly
// the bytes of the two-array encoding, and loading them into a fresh
// predictor restores the PHT, the history and every BTB slot.
func TestSaveMatchesTwoArrayLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, cfg := range []Config{{GshareBits: 6, BTBEntries: 16, HistoryBits: 4}, DefaultConfig()} {
		for trial := 0; trial < 20; trial++ {
			p := New(cfg)
			for range rng.Intn(2000) {
				pc := uint64(1+rng.Intn(1<<14)) * 4 // a slot holding PC 0 reads as empty
				tgt := pc + 64
				if rng.Intn(4) == 0 {
					tgt = uint64(rng.Intn(1 << 20))
				}
				if rng.Intn(2) == 0 {
					p.Predict(pc, rng.Intn(3) > 0, tgt)
				} else {
					p.Update(pc, rng.Intn(3) > 0, tgt)
				}
			}
			w := checkpoint.NewWriter()
			p.SaveState(w)
			got, want := w.Snapshot("bpred"), saveTwoArrays(p)
			if got.Size() != want.Size() || got.Hash() != want.Hash() {
				t.Fatalf("%+v: SaveState wrote %d bytes unlike the two-array layout's %d", cfg, got.Size(), want.Size())
			}
			q := New(cfg)
			r := got.Reader()
			q.LoadState(r)
			if err := r.Err(); err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
			if !bytes.Equal(q.pht, p.pht) || q.history != p.history || !slices.Equal(q.btb, p.btb) {
				t.Fatalf("%+v: restored predictor differs from the saved one", cfg)
			}
		}
	}
}

// TestPredictMatchesLookupThenUpdate: Predict, which finds the PHT
// index and BTB slot once, reports the misprediction the Lookup rule
// gives and leaves the state Update leaves, on random branches whose
// PCs alias in both tables.
func TestPredictMatchesLookupThenUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	cfg := Config{GshareBits: 8, BTBEntries: 32, HistoryBits: 6}
	got, want := New(cfg), New(cfg)
	for i := 0; i < 20000; i++ {
		pc := uint64(rng.Intn(512)) * 4
		taken := rng.Intn(3) > 0
		tgt := pc + uint64(rng.Intn(4))*64
		predTaken, predTarget, valid := want.Lookup(pc)
		wantMiss := predTaken != taken || (taken && (!valid || predTarget != tgt))
		want.Update(pc, taken, tgt)
		if g := got.Predict(pc, taken, tgt); g != wantMiss {
			t.Fatalf("branch %d at %#x: Predict = %v, Lookup rule %v", i, pc, g, wantMiss)
		}
		if got.history != want.history || !bytes.Equal(got.pht, want.pht) || !slices.Equal(got.btb, want.btb) {
			t.Fatalf("branch %d at %#x: Predict left another state than Update", i, pc)
		}
	}
}
