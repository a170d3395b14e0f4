// Package lockedstore is the globalrand fixture for the single-goroutine
// rule: a workload whose shared state still carries the locks and
// atomics of a goroutine-per-thread generator. Every Step runs on the
// one simulation goroutine, so neither guards anything.
package lockedstore

import (
	"sync"        // want `sync guards nothing here`
	"sync/atomic" // want `sync/atomic guards nothing here`
)

// Store is shared by all of a workload's threads.
type Store struct {
	mu     sync.Mutex
	logCur atomic.Uint64
	count  int
}

// Append advances the log cursor under a lock nobody contends.
func (s *Store) Append(n uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count++
	return s.logCur.Add(n)
}
