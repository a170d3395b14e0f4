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

// CheckpointStore keeps warm-state snapshots in a directory, so warm
// images persist across runs and processes. The directory is its only
// state: it holds no image in memory, and two runs that warm one key at
// once both save it, writing identical bytes through an atomic rename.
// All methods are safe for concurrent use.
type CheckpointStore struct {
	dir string

	mu    sync.Mutex
	stats CheckpointStats
	met   ckptMetrics
}

// ckptMetrics holds the store's pre-resolved metric handles. All fields
// are nil until SetObserver arms them; nil handles no-op.
type ckptMetrics struct {
	diskHits  *obs.Counter
	saves     *obs.Counter
	failures  *obs.Counter
	saveBytes *obs.Counter   // serialized image bytes saved
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
// missing. The directory is required: it is the store's only state.
func NewCheckpointStore(dir string) (*CheckpointStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("core: checkpoint store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating checkpoint dir: %w", err)
	}
	return &CheckpointStore{dir: dir}, nil
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

// count bumps one of the store's stats under its lock and returns the
// metric handles to update outside it.
func (s *CheckpointStore) count(field *int64) ckptMetrics {
	s.mu.Lock()
	*field++
	met := s.met
	s.mu.Unlock()
	return met
}

// load counts a request for key and returns its verified on-disk image,
// or nil when the caller must warm the machine itself. Missing files
// are ordinary misses; corrupt or mismatched files (bad magic, content
// hash, unsupported format version, foreign key) count as failures and
// are deleted — an image that failed verification once will fail it on
// every later probe, so leaving it would re-pay the multi-MB read and
// hash on every process until a fresh save happened to overwrite it.
func (s *CheckpointStore) load(key string) *checkpoint.Snapshot {
	s.count(&s.stats.Requests)
	start := obs.Now()
	snap, err := checkpoint.LoadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil || snap.Key() != key {
		// A bad image, or a hash collision or foreign file; never
		// restore from it.
		s.count(&s.stats.Failures).failures.Inc()
		os.Remove(s.path(key))
		return nil
	}
	met := s.count(&s.stats.DiskHits)
	met.diskHits.Inc()
	met.loadBytes.Add(int64(snap.Size()))
	met.loadWall.Observe(int64(obs.Since(start)))
	return snap
}

// save writes the image taken at key's warm->measure boundary (temp
// file, fsync, rename), so later requests load it from disk.
func (s *CheckpointStore) save(key string, snap *checkpoint.Snapshot) {
	met := s.count(&s.stats.Saves)
	met.saves.Inc()
	met.saveBytes.Add(int64(snap.Size()))
	start := obs.Now()
	err := snap.SaveFile(s.path(key))
	met.saveWall.Observe(int64(obs.Since(start)))
	if err != nil {
		s.count(&s.stats.Failures).failures.Inc()
	}
}

// invalidate drops an image that failed to restore, so later requests
// re-warm instead of retrying the same bad snapshot. The file is removed
// only while it still holds the offending image, so a fresh replacement
// saved meanwhile survives — best-effort (the hash check and the remove
// are not atomic; the worst outcome of losing that race is one redundant
// re-warm, never a wrong result).
func (s *CheckpointStore) invalidate(key string, bad *checkpoint.Snapshot) {
	s.count(&s.stats.Failures).failures.Inc()
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
