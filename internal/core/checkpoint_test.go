package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/workloads"
	"cloudsuite/internal/workloads/websearch"
)

// This file is the differential test harness of the warm-state
// checkpoint subsystem: it proves, byte-for-byte, that
//
//	restore(save(warm)) + measure == warm + measure
//
// across every benchmark, one and two sockets, contiguous and sampled
// measurement — the equivalence that licenses forking parameter
// sweeps from a shared warm image. The comparison is on the serialized
// measurement (the same JSON the CLIs emit rows from), so any drift in
// any counter fails the harness.

// diffOptions returns reduced-budget options for the differential
// matrix so the full workload x sockets x mode sweep stays fast.
func diffOptions(sockets int, sampled bool) Options {
	o := Options{
		Cores:        4,
		Sockets:      sockets,
		WarmupInsts:  40_000,
		MeasureInsts: 8_000,
		Seed:         1,
	}
	if sampled {
		o.Sampling = Sampling{Intervals: 4}
	}
	return o
}

// mustJSON serializes a measurement for byte comparison.
func mustJSON(t *testing.T, m *Measurement) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestCheckpointDifferentialHarness(t *testing.T) {
	for _, b := range AllBenches() {
		for _, sockets := range []int{1, 2} {
			for _, sampled := range []bool{false, true} {
				o := diffOptions(sockets, sampled)

				cold, err := MeasureBench(b, o)
				if err != nil {
					t.Fatalf("%s sockets=%d sampled=%v: cold: %v", b.Name, sockets, sampled, err)
				}
				want := mustJSON(t, cold)

				store, err := NewCheckpointStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				o.Checkpoints = store

				// Warm run: saves the image at the warm->measure boundary.
				saved, err := MeasureBench(b, o)
				if err != nil {
					t.Fatalf("%s sockets=%d sampled=%v: warm: %v", b.Name, sockets, sampled, err)
				}
				if got := mustJSON(t, saved); got != want {
					t.Fatalf("%s sockets=%d sampled=%v: taking a checkpoint changed the measurement\ncold = %s\nwarm = %s",
						b.Name, sockets, sampled, want, got)
				}

				// Restored run: forks from the image on disk.
				restored, err := MeasureBench(b, o)
				if err != nil {
					t.Fatalf("%s sockets=%d sampled=%v: restore: %v", b.Name, sockets, sampled, err)
				}
				if got := mustJSON(t, restored); got != want {
					t.Fatalf("%s sockets=%d sampled=%v: restored measurement differs from cold\ncold     = %s\nrestored = %s",
						b.Name, sockets, sampled, want, got)
				}

				s := store.Stats()
				if s.Saves != 1 || s.DiskHits != 1 || s.MemoryHits != 0 {
					t.Fatalf("%s sockets=%d sampled=%v: store stats %+v, want 1 save and 1 disk hit",
						b.Name, sockets, sampled, s)
				}
			}
		}
	}
}

// TestCheckpointCrossKnobFork is the sweep scenario the subsystem
// exists for: configurations that differ only in measurement-side knobs
// (sampling schedule, measured budget) share one warm image, and each
// fork is byte-identical to its own cold run.
func TestCheckpointCrossKnobFork(t *testing.T) {
	b, _ := FindBench("Web Search")
	contiguous := diffOptions(1, false)
	sampled := diffOptions(1, true)
	longer := contiguous
	longer.MeasureInsts = 12_000

	coldSampled, err := MeasureBench(b, sampled)
	if err != nil {
		t.Fatal(err)
	}
	coldLonger, err := MeasureBench(b, longer)
	if err != nil {
		t.Fatal(err)
	}

	store, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	contiguous.Checkpoints = store
	sampled.Checkpoints = store
	longer.Checkpoints = store

	if _, err := MeasureBench(b, contiguous); err != nil {
		t.Fatal(err)
	}
	gotSampled, err := MeasureBench(b, sampled)
	if err != nil {
		t.Fatal(err)
	}
	gotLonger, err := MeasureBench(b, longer)
	if err != nil {
		t.Fatal(err)
	}

	if mustJSON(t, gotSampled) != mustJSON(t, coldSampled) {
		t.Fatal("sampled run forked from a contiguous run's warm image differs from its cold run")
	}
	if mustJSON(t, gotLonger) != mustJSON(t, coldLonger) {
		t.Fatal("longer-budget run forked from a shared warm image differs from its cold run")
	}
	s := store.Stats()
	if s.Saves != 1 {
		t.Fatalf("three measurement-side variants saved %d warm images, want 1 shared", s.Saves)
	}
	if s.DiskHits != 2 {
		t.Fatalf("store stats %+v, want 2 disk hits", s)
	}
}

// TestCheckpointWarmVisibleKnobsGetDistinctImages: options that change
// warm-visible state must not share an image.
func TestCheckpointWarmVisibleKnobsGetDistinctImages(t *testing.T) {
	base := canonicalize(diffOptions(1, false))

	variant := func(mut func(*Options)) canonicalOptions {
		o := diffOptions(1, false)
		mut(&o)
		return canonicalize(o)
	}

	baseKey := checkpointKey("Web Search", base)
	if k := checkpointKey("Data Serving", base); k == baseKey {
		t.Fatal("different benchmarks share a checkpoint key")
	}
	distinct := map[string]func(*Options){
		"seed":    func(o *Options) { o.Seed = 2 },
		"smt":     func(o *Options) { o.SMT = true },
		"sockets": func(o *Options) { o.Sockets = 2 },
		"pollute": func(o *Options) { o.PolluteBytes = 6 << 20 },
		"warmup":  func(o *Options) { o.WarmupInsts = 50_000 },
		"cores":   func(o *Options) { o.Cores = 2 },
		"machine": func(o *Options) { m := XeonX5670(); m.Mem.LLC.SizeBytes = 6 << 20; o.Machine = &m },
	}
	for name, mut := range distinct {
		if k := checkpointKey("Web Search", variant(mut)); k == baseKey {
			t.Fatalf("warm-visible option %q does not change the checkpoint key", name)
		}
	}
	same := map[string]func(*Options){
		"measure":  func(o *Options) { o.MeasureInsts = 64_000 },
		"sampling": func(o *Options) { o.Sampling = Sampling{Intervals: 4} },
	}
	for name, mut := range same {
		if k := checkpointKey("Web Search", variant(mut)); k != baseKey {
			t.Fatalf("measurement-side option %q changes the checkpoint key", name)
		}
	}
}

// TestBenchNameKeysWarmImage: Bench.Name is the benchmark's identity, so
// a reconfigured Web Search under its own name warms its own image
// instead of forking from the default Web Search one, and its forked
// run equals its cold run.
func TestBenchNameKeysWarmImage(t *testing.T) {
	long := Bench{Name: "Web Search (long queries)", Class: workloads.ScaleOut, New: func() workloads.Workload {
		cfg := websearch.DefaultConfig()
		cfg.TermsPerQuery = 8
		return websearch.New(cfg)
	}}
	o := diffOptions(1, false)
	cold, err := MeasureBench(long, o)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o.Checkpoints = store
	for _, b := range []Bench{mustBench("Web Search"), long, long} {
		m, err := MeasureBench(b, o)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if b.Name == long.Name && mustJSON(t, m) != mustJSON(t, cold) {
			t.Fatalf("%s (%s) differs from its cold run: IPC %.3f, cold %.3f",
				b.Name, m.WarmSource(), m.IPC(), cold.IPC())
		}
	}
	if s := store.Stats(); s.Saves != 2 || s.DiskHits != 1 {
		t.Fatalf("store stats %+v, want one image per bench name (2 saves, 1 disk hit)", s)
	}
}

func TestCheckpointDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	b, _ := FindBench("Data Serving")
	o := diffOptions(1, false)

	cold, err := MeasureBench(b, o)
	if err != nil {
		t.Fatal(err)
	}

	store1, err := NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	o.Checkpoints = store1
	if _, err := MeasureBench(b, o); err != nil {
		t.Fatal(err)
	}
	if s := store1.Stats(); s.Saves != 1 {
		t.Fatalf("first process saved %d images, want 1", s.Saves)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("checkpoint dir holds %d images (%v), want 1", len(files), err)
	}

	// A fresh store on the same directory models a new process.
	store2, err := NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	o.Checkpoints = store2
	restored, err := MeasureBench(b, o)
	if err != nil {
		t.Fatal(err)
	}
	if s := store2.Stats(); s.DiskHits != 1 || s.Saves != 0 {
		t.Fatalf("second process stats %+v, want 1 disk hit and no saves", s)
	}
	if mustJSON(t, restored) != mustJSON(t, cold) {
		t.Fatal("measurement restored from disk differs from cold run")
	}
}

// TestCheckpointCorruptImageFallsBackToColdWarming: a corrupted on-disk
// image must be detected (content hash) and the measurement must
// proceed — and still produce the cold-run bytes.
func TestCheckpointCorruptImageFallsBackToColdWarming(t *testing.T) {
	dir := t.TempDir()
	b, _ := FindBench("Web Search")
	o := diffOptions(1, false)

	cold, err := MeasureBench(b, o)
	if err != nil {
		t.Fatal(err)
	}

	store1, err := NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	o.Checkpoints = store1
	if _, err := MeasureBench(b, o); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(files) != 1 {
		t.Fatalf("want 1 image, have %d", len(files))
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(files[0], raw, 0o600); err != nil {
		t.Fatal(err)
	}

	store2, err := NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	o.Checkpoints = store2
	m, err := MeasureBench(b, o)
	if err != nil {
		t.Fatalf("corrupt image must not fail the measurement: %v", err)
	}
	if mustJSON(t, m) != mustJSON(t, cold) {
		t.Fatal("measurement after corrupt-image fallback differs from cold run")
	}
	if s := store2.Stats(); s.Failures == 0 || s.Saves != 1 {
		t.Fatalf("stats %+v, want the corruption counted and a fresh image saved", s)
	}
}

// TestCheckpointMismatchedImageRetriesCold covers the last line of
// defense: an image that decodes cleanly under the right key but does
// not match the run's configuration (here: forged under a different
// warm budget) must be dropped and the measurement retried from cold.
func TestCheckpointMismatchedImageRetriesCold(t *testing.T) {
	b, _ := FindBench("Web Search")
	o := diffOptions(1, false)

	cold, err := MeasureBench(b, o)
	if err != nil {
		t.Fatal(err)
	}

	// Capture a genuine snapshot under a different warm budget...
	forged := diffOptions(1, false)
	forged.WarmupInsts = 20_000
	fstore, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	forged.Checkpoints = fstore
	if _, err := MeasureBench(b, forged); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.LoadFile(fstore.path(checkpointKey(b.Name, canonicalize(forged))))
	if err != nil {
		t.Fatalf("no snapshot captured: %v", err)
	}

	// ...and plant it in a fresh store as an in-flight image under o's
	// key.
	store, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := checkpointKey("Web Search", canonicalize(o))
	cell := &ckptCell{done: make(chan struct{}), snap: snap}
	close(cell.done)
	store.cells[key] = cell

	// Measure through a Runner: the cold retry stays one run.
	r := NewRunner(1)
	r.SetCheckpoints(store)
	m, err := r.MeasureBench(b, o)
	if err != nil {
		t.Fatalf("mismatched image must fall back to cold warming: %v", err)
	}
	if mustJSON(t, m) != mustJSON(t, cold) {
		t.Fatal("fallback measurement differs from cold run")
	}
	if s := store.Stats(); s.Failures == 0 {
		t.Fatalf("stats %+v, want the restore failure counted", s)
	}
	if s := runnerStats(t, r); s.Runs != 1 {
		t.Fatalf("runner stats %+v, want the cold retry counted as one run", s)
	}
}

// TestCheckpointSingleflight: concurrent measurements sharing a warm
// key produce exactly one warm image; the other run forks from it,
// mid-run if it joined the warm-up in flight, else from disk.
func TestCheckpointSingleflight(t *testing.T) {
	store, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := FindBench("Media Streaming")
	r := NewRunner(2)
	r.SetCheckpoints(store)

	oA := diffOptions(1, false)
	oB := diffOptions(1, false)
	oB.MeasureInsts = 12_000 // distinct memo key, same warm key

	ms, err := r.MeasureAll([]MeasureRequest{
		{Bench: b, Options: oA},
		{Bench: b, Options: oB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0] == nil || ms[1] == nil {
		t.Fatal("missing results")
	}
	s := store.Stats()
	if s.Saves != 1 {
		t.Fatalf("concurrent runs saved %d images, want 1", s.Saves)
	}
	if s.MemoryHits+s.DiskHits != 1 {
		t.Fatalf("stats %+v, want exactly 1 fork", s)
	}

	// And the forked results match their cold counterparts.
	coldB, err := MeasureBench(b, Options{
		Cores: 4, WarmupInsts: 40_000, MeasureInsts: 12_000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, ms[1]) != mustJSON(t, coldB) {
		t.Fatal("singleflight fork differs from cold run")
	}
}

// TestCheckpointStoreConcurrentAcquire hammers the store from many
// goroutines (run under -race in CI) to verify the singleflight
// resolves exactly once per key with no data races.
func TestCheckpointStoreConcurrentAcquire(t *testing.T) {
	store, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	produced := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap, commit := store.acquire("shared-key")
			if commit != nil {
				w := checkpoint.NewWriter()
				w.U64(42)
				commit(w.Snapshot("shared-key"))
				mu.Lock()
				produced++
				mu.Unlock()
				return
			}
			if snap == nil {
				t.Error("acquire returned neither snapshot nor commit")
			}
		}()
	}
	wg.Wait()
	if produced != 1 {
		t.Fatalf("%d producers resolved the key, want exactly 1", produced)
	}
	if s := store.Stats(); s.Requests != n {
		t.Fatalf("stats %+v, want %d requests", s, n)
	}
}

// TestCheckpointOldVersionImageRetriesCold: a stale-format image on disk
// (e.g. a v1 snapshot with the flat uint32 sharer mask, from before the
// scalable-directory refactor) must be rejected at decode time and the
// measurement must re-warm from cold, producing the cold-run bytes.
func TestCheckpointOldVersionImageRetriesCold(t *testing.T) {
	dir := t.TempDir()
	b, _ := FindBench("Web Search")
	o := diffOptions(1, false)

	cold, err := MeasureBench(b, o)
	if err != nil {
		t.Fatal(err)
	}

	store1, err := NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	o.Checkpoints = store1
	if _, err := MeasureBench(b, o); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(files) != 1 {
		t.Fatalf("want 1 image, have %d", len(files))
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// The format version is the uint32 after the 8-byte magic. Rewind it
	// to 1, simulating an image from the pre-refactor format.
	raw[8], raw[9], raw[10], raw[11] = 1, 0, 0, 0
	if err := os.WriteFile(files[0], raw, 0o600); err != nil {
		t.Fatal(err)
	}

	store2, err := NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	o.Checkpoints = store2
	m, err := MeasureBench(b, o)
	if err != nil {
		t.Fatalf("old-version image must not fail the measurement: %v", err)
	}
	if mustJSON(t, m) != mustJSON(t, cold) {
		t.Fatal("measurement after version-rejection fallback differs from cold run")
	}
	if s := store2.Stats(); s.Failures == 0 || s.Saves != 1 {
		t.Fatalf("stats %+v, want the stale version counted and a fresh image saved", s)
	}
}

// TestCheckpointRequestCountedOnce: a waiter whose producer commits nil
// races for the key again and becomes the new producer, and its request
// is still counted once.
func TestCheckpointRequestCountedOnce(t *testing.T) {
	store, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, commitA := store.acquire("k")
	if commitA == nil {
		t.Fatal("first request got no commit obligation")
	}
	waiter := make(chan func(*checkpoint.Snapshot))
	go func() {
		snap, commitB := store.acquire("k")
		if snap != nil {
			t.Error("waiter forked from a failed producer")
		}
		waiter <- commitB
	}()
	// The request is counted under the same lock hold that finds the
	// in-flight cell, so two requests mean the waiter has joined.
	for store.Stats().Requests < 2 {
		time.Sleep(time.Millisecond)
	}
	commitA(nil)
	commitB := <-waiter
	if commitB == nil {
		t.Fatal("waiter did not become the new producer")
	}
	commitB(nil)
	if s := store.Stats(); s.Requests != 2 {
		t.Fatalf("stats %+v, want 2 requests", s)
	}
}

// TestCheckpointStoreHoldsNoResolvedImages: the directory is the
// store's only tier. Once a sweep over several warm keys has returned,
// no cell is left in memory, and a repeat request for one key is a disk
// hit that forks byte-identically to a cold run.
func TestCheckpointStoreHoldsNoResolvedImages(t *testing.T) {
	store, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := mustBench("Data Serving")
	var reqs []MeasureRequest
	for seed := int64(1); seed <= 3; seed++ {
		o := diffOptions(1, false)
		o.Seed = seed
		reqs = append(reqs, MeasureRequest{Bench: b, Options: o})
	}
	r := NewRunner(2)
	r.SetCheckpoints(store)
	if _, err := r.MeasureAll(reqs); err != nil {
		t.Fatal(err)
	}
	store.mu.Lock()
	cells := len(store.cells)
	store.mu.Unlock()
	if cells != 0 {
		t.Fatalf("store holds %d cells after the sweep, want 0", cells)
	}
	if s := store.Stats(); s.Saves != 3 {
		t.Fatalf("stats %+v, want 3 saved images", s)
	}

	o := reqs[0].Options
	cold, err := MeasureBench(b, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Checkpoints = store
	m, err := MeasureBench(b, o)
	if err != nil {
		t.Fatal(err)
	}
	if s := store.Stats(); s.DiskHits != 1 || s.MemoryHits != 0 {
		t.Fatalf("stats %+v, want the repeat request served from disk", s)
	}
	if mustJSON(t, m) != mustJSON(t, cold) {
		t.Fatal("fork from a disk image differs from the cold run")
	}
}

func TestNewCheckpointStoreRequiresDir(t *testing.T) {
	if _, err := NewCheckpointStore(""); err == nil {
		t.Fatal("a store without a directory was accepted")
	}
}
