package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"cloudsuite/internal/obs"
	"cloudsuite/internal/sim/checkpoint"
)

// This file implements the warm-state checkpoint store: parameter
// sweeps over the same warmed workload fork from one warm image instead
// of re-executing functional warming per configuration (checkpointed
// sampling à la SMARTS/TurboSMARTS live-points). The store is keyed on
// the warm-relevant subset of the canonicalized options — everything
// that shapes machine state at the warm->measure boundary (benchmark,
// machine, placement, polluters, warm budget, seed) and nothing that
// only shapes the measurement afterwards (measured budget, sampling
// schedule). Configurations that differ only in measurement-side knobs
// therefore share one image; any warm-visible difference yields a
// distinct key. Restored runs are byte-identical to cold runs — the
// differential harness in checkpoint_test.go proves it — so the store,
// like the Runner's memoization cache, changes wall-clock time, never
// results.

// CheckpointStats counts the store's activity.
type CheckpointStats struct {
	// Requests is the number of measurements that consulted the store.
	Requests int64
	// MemoryHits counts requests that joined another request's in-flight
	// cell (a warm-up, disk load or save still under way) and forked
	// from its image.
	MemoryHits int64
	// DiskHits counts images loaded from the checkpoint directory.
	DiskHits int64
	// Saves counts warm images captured by this process.
	Saves int64
	// Failures counts snapshot load/store/restore problems (corrupt
	// files, write errors, mismatched images). A failed image is
	// dropped so subsequent runs warm from cold; benchmark entry points
	// (MeasureBench and everything above it) additionally retry the
	// affected measurement themselves, so failures surface there as
	// wall-clock cost, never as errors or result changes.
	Failures int64
}

// ckptCell is one in-flight warm image. The first requester of a key
// loads the image from disk or warms the machine and commits the
// snapshot at the warm->measure boundary; concurrent requesters for the
// same key wait on done and then fork from the image (mid-run
// singleflight: the cell resolves when the producer's warming finishes,
// not when its whole measurement does). The cell leaves the map once
// its disk load has resolved or its save has returned, so the store
// holds an image only while its load, warm-up or save is under way;
// later requests for the key load it from disk.
type ckptCell struct {
	done chan struct{}
	snap *checkpoint.Snapshot
}

// CheckpointStore keeps warm-state snapshots in a directory, so warm
// images persist across runs and processes, and shares each in-flight
// warm-up among concurrent requests for its key. All methods are safe
// for concurrent use.
type CheckpointStore struct {
	dir string

	mu    sync.Mutex
	cells map[string]*ckptCell
	stats CheckpointStats
	met   ckptMetrics
}

// ckptMetrics holds the store's pre-resolved metric handles. All fields
// are nil until SetObserver arms them; nil handles no-op.
type ckptMetrics struct {
	memHits   *obs.Counter
	diskHits  *obs.Counter
	saves     *obs.Counter
	failures  *obs.Counter
	saveBytes *obs.Counter   // serialized image bytes committed by producers
	loadBytes *obs.Counter   // serialized image bytes loaded from disk
	saveWall  *obs.Histogram // disk-write wall time per image
	loadWall  *obs.Histogram // disk-load (read + hash verify) wall time per image
}

// SetObserver arms the store with observability sinks: hit/save/failure
// counters, image byte volumes, and disk I/O wall-time histograms land
// in the observer's registry. A pure observer — it never changes which
// image a run forks from. Safe on a nil store; pass nil to disarm.
func (s *CheckpointStore) SetObserver(o *obs.Observer) {
	if s == nil {
		return
	}
	reg := o.Registry()
	s.mu.Lock()
	s.met = ckptMetrics{
		memHits:   reg.Counter("ckpt.hits.memory"),
		diskHits:  reg.Counter("ckpt.hits.disk"),
		saves:     reg.Counter("ckpt.saves"),
		failures:  reg.Counter("ckpt.failures"),
		saveBytes: reg.Counter("ckpt.save_bytes"),
		loadBytes: reg.Counter("ckpt.load_bytes"),
		saveWall:  reg.Histogram("ckpt.save_wall"),
		loadWall:  reg.Histogram("ckpt.load_wall"),
	}
	s.mu.Unlock()
}

// NewCheckpointStore returns a store backed by dir, which is created if
// missing. The directory is required: it is the store's only tier.
func NewCheckpointStore(dir string) (*CheckpointStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("core: checkpoint store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating checkpoint dir: %w", err)
	}
	return &CheckpointStore{dir: dir, cells: map[string]*ckptCell{}}, nil
}

// Dir returns the backing directory.
func (s *CheckpointStore) Dir() string { return s.dir }

// Stats returns a snapshot of the store's counters.
func (s *CheckpointStore) Stats() CheckpointStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *CheckpointStore) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".ckpt")
}

// acquire resolves key to either an existing warm image (snap != nil)
// or a commit obligation: the caller must warm the machine itself and
// invoke commit exactly once — with the snapshot taken at the
// warm->measure boundary, or with nil if the run failed before reaching
// it (which releases any waiters to warm on their own).
func (s *CheckpointStore) acquire(key string) (snap *checkpoint.Snapshot, commit func(*checkpoint.Snapshot)) {
	s.mu.Lock()
	s.stats.Requests++
	for cell, ok := s.cells[key]; ok; cell, ok = s.cells[key] {
		s.mu.Unlock()
		<-cell.done
		if cell.snap != nil {
			s.mu.Lock()
			s.stats.MemoryHits++
			met := s.met
			s.mu.Unlock()
			met.memHits.Inc()
			return cell.snap, nil
		}
		// The producer failed before the warm boundary and removed the
		// cell; race for the key again.
		s.mu.Lock()
	}
	cell := &ckptCell{done: make(chan struct{})}
	s.cells[key] = cell
	s.mu.Unlock()
	// Disk probing happens outside the lock — the files are multi-MB and
	// content-hashed on load, and holding the store-wide mutex across
	// that would serialize unrelated acquires. The in-flight cell
	// already parks other requesters for this key.
	loadStart := obs.Now()
	if loaded := s.tryDisk(key); loaded != nil {
		s.mu.Lock()
		cell.snap = loaded
		s.drop(key, cell)
		s.stats.DiskHits++
		met := s.met
		s.mu.Unlock()
		met.diskHits.Inc()
		met.loadBytes.Add(int64(loaded.Size()))
		met.loadWall.Observe(int64(obs.Since(loadStart)))
		close(cell.done)
		return loaded, nil
	}
	return nil, func(snap *checkpoint.Snapshot) { s.commit(key, cell, snap) }
}

// drop removes a resolved cell from the in-flight table; s.mu must be
// held. It is guarded by cell identity: an invalidation may already
// have replaced this cell with a newer producer's, which must stay.
func (s *CheckpointStore) drop(key string, cell *ckptCell) {
	if s.cells[key] == cell {
		delete(s.cells, key)
	}
}

// recordFailure counts one snapshot load/store/restore problem in both
// the store's stats and, when armed, the observer's registry.
func (s *CheckpointStore) recordFailure() {
	s.mu.Lock()
	s.stats.Failures++
	met := s.met
	s.mu.Unlock()
	met.failures.Inc()
}

// tryDisk loads and verifies an on-disk image for key. Missing files
// are ordinary misses; corrupt or mismatched files (bad magic, content
// hash, unsupported format version, foreign key) count as failures and
// are deleted — an image that failed verification once will fail it on
// every later probe, so leaving it would re-pay the multi-MB read and
// hash on every process until a fresh save happened to overwrite it.
func (s *CheckpointStore) tryDisk(key string) *checkpoint.Snapshot {
	snap, err := checkpoint.LoadFile(s.path(key))
	if err != nil {
		if !os.IsNotExist(err) {
			s.recordFailure()
			os.Remove(s.path(key))
		}
		return nil
	}
	if snap.Key() != key {
		// A hash collision or a foreign file; never restore from it.
		s.recordFailure()
		os.Remove(s.path(key))
		return nil
	}
	return snap
}

// commit resolves an in-flight cell with the produced snapshot (nil =
// the producer failed before the warm boundary). Waiters are released
// before the image is written; the cell stays joinable until the write
// has returned, and later requests load the image from disk.
func (s *CheckpointStore) commit(key string, cell *ckptCell, snap *checkpoint.Snapshot) {
	s.mu.Lock()
	if snap == nil {
		s.drop(key, cell)
		s.mu.Unlock()
		close(cell.done)
		return
	}
	cell.snap = snap
	s.stats.Saves++
	met := s.met
	s.mu.Unlock()
	close(cell.done)
	met.saves.Inc()
	met.saveBytes.Add(int64(snap.Size()))
	saveStart := obs.Now()
	err := snap.SaveFile(s.path(key))
	met.saveWall.Observe(int64(obs.Since(saveStart)))
	s.mu.Lock()
	s.drop(key, cell)
	s.mu.Unlock()
	if err != nil {
		s.recordFailure()
	}
}

// invalidate drops an image that failed to restore, so later requests
// re-warm instead of retrying the same bad snapshot. Both the cell
// eviction (the image may still be in flight) and the file removal are
// conditional on still holding the offending image, so a fresh
// replacement from a concurrent producer survives — guaranteed within
// this process (mutex-guarded), best-effort across processes (the hash
// check and the remove are not atomic; the worst outcome of losing that
// race is one redundant re-warm, never a wrong result).
func (s *CheckpointStore) invalidate(key string, bad *checkpoint.Snapshot) {
	s.mu.Lock()
	s.stats.Failures++
	met := s.met
	if cell, ok := s.cells[key]; ok && cell.snap == bad {
		delete(s.cells, key)
	}
	s.mu.Unlock()
	met.failures.Inc()
	if onDisk, err := checkpoint.LoadFile(s.path(key)); err == nil && onDisk.Hash() == bad.Hash() {
		os.Remove(s.path(key))
	}
}

// checkpointKey names the warm-relevant configuration of a measurement:
// the benchmark stream identity plus every canonical option that shapes
// machine state at the warm->measure boundary. Measurement-side knobs
// (measured budget, sampling schedule) are deliberately absent — runs
// differing only in those fork from the same image. The format version
// is part of the key so stale on-disk layouts miss instead of failing.
func checkpointKey(bench string, c canonicalOptions) string {
	return fmt.Sprintf("v%d|bench=%s|machine=%+v|cores=%d|smt=%t|split=%t|pollute=%d|warmup=%d|seed=%d",
		checkpoint.Version, bench, c.machine, c.cores, c.smt, c.splitSockets,
		c.polluteBytes, c.warmupInsts, c.seed)
}
