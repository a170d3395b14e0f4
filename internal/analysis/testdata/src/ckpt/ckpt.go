// Package ckpt is the checkpointcov fixture: types implementing the
// SaveState/LoadState snapshot protocol with one forgotten field (the
// "field added, checkpoint forgot" drift the analyzer exists to catch),
// construction-time exemptions, and coverage that flows through a
// helper method.
package ckpt

// Writer and Reader are local stand-ins for checkpoint.Writer/Reader;
// the analyzer keys on the SaveState/LoadState method names, not the
// parameter types.
type Writer struct{ buf []byte }

func (w *Writer) U64(v uint64) {}
func (w *Writer) Struct(v any) {}

type Reader struct{ off int }

func (r *Reader) U64() uint64  { return 0 }
func (r *Reader) Struct(v any) {}

// Table has every coverage class the analyzer distinguishes.
type Table struct {
	hist uint64
	// mask is rebuilt from the configured size at construction, so it
	// is deliberately not serialized.
	mask uint64 //simlint:ok checkpointcov re-derived from configuration at construction
	// pos was added after SaveState was written — the drift bug.
	pos     int // want `field Table.pos is not covered by SaveState/LoadState`
	entries []uint64
}

func (t *Table) SaveState(w *Writer) {
	w.U64(t.hist)
	t.saveEntries(w)
}

// saveEntries covers the entries field one call level down from
// SaveState.
func (t *Table) saveEntries(w *Writer) {
	for _, e := range t.entries {
		w.U64(e)
	}
}

func (t *Table) LoadState(r *Reader) {
	t.hist = r.U64()
}

// Meta shows the //simlint:ok exemption for configuration fixed at
// construction and checked for mismatch rather than restored.
type Meta struct {
	cfg int //simlint:ok checkpointcov construction-time configuration, geometry-checked not restored
	v   uint64
}

func (m *Meta) SaveState(w *Writer) { w.U64(m.v) }
func (m *Meta) LoadState(r *Reader) { m.v = r.U64() }

// Pair's trailing exemption covers its own line only: it must not
// reach b on the next line, which nothing serializes.
type Pair struct {
	a int //simlint:ok checkpointcov construction-time configuration
	b int // want `field Pair.b is not covered by SaveState/LoadState`
	v uint64
}

func (p *Pair) SaveState(w *Writer) { w.U64(p.v) }
func (p *Pair) LoadState(r *Reader) { p.v = r.U64() }

// Block hands the whole receiver to the writer's reflective encoder
// (the counters.Counters pattern): every field is covered at once.
type Block struct {
	a uint64
	b uint64
}

func (b *Block) SaveState(w *Writer) { w.Struct(b) }
func (b *Block) LoadState(r *Reader) { r.Struct(b) }

// Plain has the method names but is not a struct-backed saver pair —
// Writer/Reader themselves have no SaveState, so none of their fields
// are checked.
type Plain int

func (p Plain) SaveState(w *Writer) {}
func (p Plain) LoadState(r *Reader) {}

// Sparse serializes through shared same-package free functions (the
// writeSparse pattern). The analyzer must follow the receiver into the
// helpers and see which fields they actually touch — treating the call
// as whole-receiver reflective coverage would silently hide the
// forgotten gen field.
type Sparse struct {
	keys []uint64
	vals []uint64
	gen  int // want `field Sparse.gen is not covered by SaveState/LoadState`
}

func (s *Sparse) SaveState(w *Writer) { writeSparse(w, s) }
func (s *Sparse) LoadState(r *Reader) { readSparse(r, s) }

func writeSparse(w *Writer, s *Sparse) {
	w.U64(uint64(len(s.keys)))
	for i := range s.keys {
		w.U64(s.keys[i])
		w.U64(s.vals[i])
	}
}

func readSparse(r *Reader, s *Sparse) {
	n := r.U64()
	s.keys = make([]uint64, n)
	s.vals = make([]uint64, n)
	for i := range s.keys {
		s.keys[i] = r.U64()
		s.vals[i] = r.U64()
	}
}
