// Package atomiccall is the globalrand fixture for call-style
// sync/atomic in a simulator package that may import sync/atomic (it
// is not simulation state): the package-level functions are rejected,
// the typed wrappers are not.
package atomiccall

import "sync/atomic"

// Stats is shared between workers.
type Stats struct {
	n    int64
	hits atomic.Int64
}

// Note counts one event both ways.
func (s *Stats) Note() {
	atomic.AddInt64(&s.n, 1) // want `atomic.AddInt64 is call-style sync/atomic`
	s.hits.Add(1)
}

// Hits reads the typed counter.
func (s *Stats) Hits() int64 { return s.hits.Load() }
