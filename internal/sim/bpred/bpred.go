// Package bpred models the branch direction predictor of an aggressive
// out-of-order core: a gshare direction predictor with a branch target
// buffer and a return-address stack is a reasonable stand-in for the
// Nehalem/Westmere-class front-end of the Xeon X5670.
package bpred

import "cloudsuite/internal/sim/checkpoint"

// Config sizes the predictor.
type Config struct {
	// GshareBits is log2 of the pattern history table size.
	GshareBits uint
	// BTBEntries is the number of direct-mapped BTB entries.
	BTBEntries int
	// HistoryBits is the global history length.
	HistoryBits uint
}

// DefaultConfig approximates a Westmere-class predictor.
func DefaultConfig() Config {
	return Config{GshareBits: 16, BTBEntries: 4096, HistoryBits: 14}
}

// Predictor is a gshare + BTB branch predictor. It is not safe for
// concurrent use; each hardware context owns one.
type Predictor struct {
	cfg     Config  //simlint:ok checkpointcov construction-time configuration; LoadState geometry-checks table sizes instead of restoring it
	pht     []uint8 // 2-bit saturating counters, four to a byte (see ctr)
	phtMask uint64  //simlint:ok checkpointcov derived from cfg.GshareBits at construction; LoadState length-checks the packed PHT instead
	history uint64
	histMsk uint64 //simlint:ok checkpointcov derived from cfg.HistoryBits at construction
	btb     []btbEntry
	btbMask uint64 //simlint:ok checkpointcov derived from cfg.BTBEntries at construction
}

// btbEntry is one direct-mapped BTB slot: the branch PC it holds (0 when
// empty) beside its target, so a lookup and its training touch one host
// cache line.
type btbEntry struct {
	tag, target uint64
}

// New returns a predictor with all counters weakly not-taken.
func New(cfg Config) *Predictor {
	if cfg.GshareBits == 0 {
		cfg = DefaultConfig()
	}
	n := 1 << cfg.GshareBits
	b := nextPow2(cfg.BTBEntries)
	p := &Predictor{
		cfg:     cfg,
		pht:     make([]uint8, (n+3)/4),
		phtMask: uint64(n - 1),
		histMsk: (1 << cfg.HistoryBits) - 1,
		btb:     make([]btbEntry, b),
		btbMask: uint64(b - 1),
	}
	p.resetPHT()
	return p
}

// weakNotTaken is a PHT byte of four weakly not-taken counters.
const weakNotTaken = 0x55

// resetPHT sets every counter to weakly not-taken.
func (p *Predictor) resetPHT() {
	for i := range p.pht {
		p.pht[i] = weakNotTaken
	}
}

// ctr returns PHT counter i; counter i is bits 2(i%4)..2(i%4)+1 of
// byte i/4.
func (p *Predictor) ctr(i uint64) uint8 { return p.pht[i>>2] >> ((i & 3) * 2) & 3 }

// setCtr sets PHT counter i to v (0..3).
func (p *Predictor) setCtr(i uint64, v uint8) {
	sh := (i & 3) * 2
	p.pht[i>>2] = p.pht[i>>2]&^(3<<sh) | v<<sh
}

func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// SaveState serializes the predictor's trained state: global history
// register, pattern history table and BTB contents. The PHT is written
// densely as its packed bytes, 16 KB for the default 64K counters. The
// BTB is sparse: each filled slot is a varint gap from the previous
// filled slot, the varint tag (the branch PC) and the target as a
// zigzag delta from the tag, since most branches jump nearby.
func (p *Predictor) SaveState(w *checkpoint.Writer) {
	w.Tag("bpred")
	w.U64(p.history)
	w.U8s(p.pht)
	w.U32(uint32(len(p.btb)))
	filled := uint32(0)
	for _, e := range p.btb {
		if e.tag != 0 {
			filled++
		}
	}
	w.U32(filled)
	prev := -1
	for i, e := range p.btb {
		if e.tag != 0 {
			w.Uvarint(uint64(i - prev))
			w.Uvarint(e.tag)
			w.Varint(int64(e.target - e.tag))
			prev = i
		}
	}
}

// LoadState restores state saved by SaveState into a predictor of
// identical configuration; a mismatch is reported through the reader.
// Every PHT byte is four valid 2-bit counters, so the table needs no
// check beyond its length.
func (p *Predictor) LoadState(r *checkpoint.Reader) {
	r.Expect("bpred")
	p.history = r.U64()
	r.U8s(p.pht)
	if n := int(r.U32()); r.Err() == nil && n != len(p.btb) {
		r.Failf("bpred BTB size mismatch: snapshot has %d entries, predictor has %d", n, len(p.btb))
		return
	}
	clear(p.btb)
	// A filled slot takes at least three 1-byte varints.
	filled := r.Count(3)
	for k, i := 0, -1; k < filled; k++ {
		i = r.NextIndex(i, len(p.btb))
		tag := r.Uvarint()
		tgt := tag + uint64(r.Varint())
		if r.Err() != nil {
			return
		}
		p.btb[i] = btbEntry{tag: tag, target: tgt}
	}
}

func (p *Predictor) index(pc uint64) uint64 {
	return ((pc >> 2) ^ p.history) & p.phtMask
}

// slot returns the BTB entry the branch at pc maps to.
func (p *Predictor) slot(pc uint64) *btbEntry { return &p.btb[(pc>>2)&p.btbMask] }

// Lookup predicts the direction and target for the branch at pc.
// A predicted-taken branch with a BTB miss counts as a misprediction in
// Predict, because the front-end cannot redirect without a target.
func (p *Predictor) Lookup(pc uint64) (taken bool, target uint64, targetValid bool) {
	taken = p.ctr(p.index(pc)) >= 2
	if e := p.slot(pc); e.tag == pc {
		return taken, e.target, true
	}
	return taken, 0, false
}

// Predict runs a full predict-and-train step for a resolved branch and
// reports whether the front-end would have mispredicted it. It is
// Lookup then Update, with the PHT index and BTB slot found once.
func (p *Predictor) Predict(pc uint64, taken bool, target uint64) (mispredict bool) {
	idx, e := p.index(pc), p.slot(pc)
	ctr := p.ctr(idx)
	mispredict = (ctr >= 2) != taken || (taken && (e.tag != pc || e.target != target))
	p.train(idx, ctr, taken)
	if taken {
		*e = btbEntry{tag: pc, target: target}
	}
	return mispredict
}

// Update trains the predictor with the resolved outcome.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) {
	idx := p.index(pc)
	p.train(idx, p.ctr(idx), taken)
	if taken {
		*p.slot(pc) = btbEntry{tag: pc, target: target}
	}
}

// train moves PHT counter idx, whose value is ctr, toward the outcome
// and shifts the outcome into the global history.
func (p *Predictor) train(idx uint64, ctr uint8, taken bool) {
	if taken {
		if ctr < 3 {
			p.setCtr(idx, ctr+1)
		}
	} else if ctr > 0 {
		p.setCtr(idx, ctr-1)
	}
	p.history = ((p.history << 1) | b2u(taken)) & p.histMsk
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
