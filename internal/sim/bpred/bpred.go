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
	phtMask uint64
	history uint64
	histMsk uint64 //simlint:ok checkpointcov derived from cfg.HistoryBits at construction
	btbTag  []uint64
	btbTgt  []uint64
	btbMask uint64 //simlint:ok checkpointcov derived from cfg.BTBEntries at construction
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
		btbTag:  make([]uint64, b),
		btbTgt:  make([]uint64, b),
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

// phtLen is the number of PHT counters.
func (p *Predictor) phtLen() int { return int(p.phtMask) + 1 }

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

// SaveState serializes the predictor's trained state: pattern history
// table, global history register, and BTB contents. Both tables are
// sparse-encoded against their reset values (PHT counters at weakly
// not-taken, BTB slots empty): warming trains a small fraction of the
// 64K-entry PHT, and dense tables would dominate snapshot size.
func (p *Predictor) SaveState(w *checkpoint.Writer) {
	w.Tag("bpred")
	w.U64(p.history)
	n := uint64(p.phtLen())
	w.U32(uint32(n))
	trained := uint32(0)
	for i := uint64(0); i < n; i++ {
		if p.ctr(i) != 1 {
			trained++
		}
	}
	w.U32(trained)
	for i := uint64(0); i < n; i++ {
		if v := p.ctr(i); v != 1 {
			w.U32(uint32(i))
			w.U8(v)
		}
	}
	w.U32(uint32(len(p.btbTag)))
	filled := uint32(0)
	for _, t := range p.btbTag {
		if t != 0 {
			filled++
		}
	}
	w.U32(filled)
	for i, t := range p.btbTag {
		if t != 0 {
			w.U32(uint32(i))
			w.U64(t)
			w.U64(p.btbTgt[i])
		}
	}
}

// LoadState restores state saved by SaveState into a predictor of
// identical configuration; a mismatch is reported through the reader.
func (p *Predictor) LoadState(r *checkpoint.Reader) {
	r.Expect("bpred")
	p.history = r.U64()
	if n := int(r.U32()); r.Err() == nil && n != p.phtLen() {
		r.Failf("bpred PHT size mismatch: snapshot has %d entries, predictor has %d", n, p.phtLen())
		return
	}
	p.resetPHT()
	trained := int(r.U32())
	for k := 0; k < trained; k++ {
		i := int(r.U32())
		v := r.U8()
		if r.Err() != nil {
			return
		}
		if i >= p.phtLen() {
			r.Failf("bpred PHT index %d out of range (%d entries)", i, p.phtLen())
			return
		}
		if v > 3 {
			r.Failf("bpred PHT counter %d holds %d; a 2-bit counter holds 0..3", i, v)
			return
		}
		p.setCtr(uint64(i), v)
	}
	if n := int(r.U32()); r.Err() == nil && n != len(p.btbTag) {
		r.Failf("bpred BTB size mismatch: snapshot has %d entries, predictor has %d", n, len(p.btbTag))
		return
	}
	for i := range p.btbTag {
		p.btbTag[i] = 0
		p.btbTgt[i] = 0
	}
	filled := int(r.U32())
	for k := 0; k < filled; k++ {
		i := int(r.U32())
		if r.Err() != nil {
			return
		}
		if i >= len(p.btbTag) {
			r.Failf("bpred BTB index %d out of range (%d entries)", i, len(p.btbTag))
			return
		}
		p.btbTag[i] = r.U64()
		p.btbTgt[i] = r.U64()
	}
}

func (p *Predictor) index(pc uint64) uint64 {
	return ((pc >> 2) ^ p.history) & p.phtMask
}

// Lookup predicts the direction and target for the branch at pc.
// A predicted-taken branch with a BTB miss counts as a misprediction in
// Predict, because the front-end cannot redirect without a target.
func (p *Predictor) Lookup(pc uint64) (taken bool, target uint64, targetValid bool) {
	taken = p.ctr(p.index(pc)) >= 2
	slot := (pc >> 2) & p.btbMask
	if p.btbTag[slot] == pc {
		return taken, p.btbTgt[slot], true
	}
	return taken, 0, false
}

// Predict runs a full predict-and-train step for a resolved branch and
// reports whether the front-end would have mispredicted it.
func (p *Predictor) Predict(pc uint64, taken bool, target uint64) (mispredict bool) {
	predTaken, predTarget, tgtValid := p.Lookup(pc)
	mispredict = predTaken != taken || (taken && (!tgtValid || predTarget != target))
	p.Update(pc, taken, target)
	return mispredict
}

// Update trains the predictor with the resolved outcome.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) {
	idx := p.index(pc)
	ctr := p.ctr(idx)
	if taken {
		if ctr < 3 {
			p.setCtr(idx, ctr+1)
		}
	} else if ctr > 0 {
		p.setCtr(idx, ctr-1)
	}
	p.history = ((p.history << 1) | b2u(taken)) & p.histMsk
	if taken {
		slot := (pc >> 2) & p.btbMask
		p.btbTag[slot] = pc
		p.btbTgt[slot] = target
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
