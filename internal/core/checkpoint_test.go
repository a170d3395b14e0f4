package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/sim/engine"
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
// any counter fails the harness. A case whose window truncates has no
// measurement; its engine Results are compared instead.

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

// truncatesUnderDiff reports the one differential case whose timed
// windows are cut short at MaxCycles: SPECint (mcf) on one socket,
// sampled, commits nothing in its first intervals. measure refuses it,
// so its save-and-restore identity is checked on engine Results. Any
// other case that truncates fails the harness.
func truncatesUnderDiff(bench string, sockets int, sampled bool) bool {
	return bench == "SPECint (mcf)" && sockets == 1 && sampled
}

// truncatedResult runs b under o through the engine the way measure
// does and returns the serialized engine Result, Truncated flags
// included; the run must truncate. With a store, the run forks from the
// warm image on disk when there is one and saves its image at the
// warm->measure boundary when there is not.
func truncatedResult(t *testing.T, name string, b Bench, o Options, store *CheckpointStore) string {
	t.Helper()
	c := canonicalize(o)
	in, err := assemble(b.New(), &c)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer in.close()
	cfg := in.cfg
	if store != nil {
		key := checkpointKey(b.Name, c)
		if snap := store.load(key); snap != nil {
			cfg.Restore = snap
		} else {
			cfg.CheckpointKey = key
			cfg.Checkpoint = func(s *checkpoint.Snapshot) { store.save(key, s) }
		}
	}
	res, err := engine.Run(cfg, in.threads)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Truncated {
		t.Fatalf("%s: the engine run did not truncate, but measure refused it", name)
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

// checkTruncatedFork is the harness for a case that measure refuses:
// cold, warm and restored engine Results must be byte-identical.
func checkTruncatedFork(t *testing.T, name string, b Bench, o Options) {
	t.Helper()
	want := truncatedResult(t, name+": cold", b, o, nil)
	store, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if got := truncatedResult(t, name+": warm", b, o, store); got != want {
		t.Fatalf("%s: taking a checkpoint changed the engine result\ncold = %s\nwarm = %s", name, want, got)
	}
	if got := truncatedResult(t, name+": restore", b, o, store); got != want {
		t.Fatalf("%s: restored engine result differs from cold\ncold     = %s\nrestored = %s", name, want, got)
	}
	if s := store.Stats(); s.Saves != 1 || s.DiskHits != 1 {
		t.Fatalf("%s: store stats %+v, want 1 save and 1 disk hit", name, s)
	}
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
				name := fmt.Sprintf("%s sockets=%d sampled=%v", b.Name, sockets, sampled)

				cold, err := MeasureBench(b, o)
				if err != nil {
					if !truncatesUnderDiff(b.Name, sockets, sampled) || !strings.Contains(err.Error(), "MaxCycles") {
						t.Fatalf("%s: cold: %v", name, err)
					}
					checkTruncatedFork(t, name, b, o)
					continue
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
					t.Fatalf("%s: warm: %v", name, err)
				}
				if got := mustJSON(t, saved); got != want {
					t.Fatalf("%s: taking a checkpoint changed the measurement\ncold = %s\nwarm = %s", name, want, got)
				}

				// Restored run: forks from the image on disk.
				restored, err := MeasureBench(b, o)
				if err != nil {
					t.Fatalf("%s: restore: %v", name, err)
				}
				if got := mustJSON(t, restored); got != want {
					t.Fatalf("%s: restored measurement differs from cold\ncold     = %s\nrestored = %s", name, want, got)
				}

				s := store.Stats()
				if s.Saves != 1 || s.DiskHits != 1 {
					t.Fatalf("%s: store stats %+v, want 1 save and 1 disk hit", name, s)
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

	// Warm a run under a different warm budget and plant its image on
	// disk under o's key.
	forged := diffOptions(1, false)
	forged.WarmupInsts = 20_000
	c := canonicalize(forged)
	in, err := assemble(b.New(), &c)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	store, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := checkpointKey(b.Name, canonicalize(o))
	var snap *checkpoint.Snapshot
	cfg := in.cfg
	cfg.CheckpointKey = key
	cfg.Checkpoint = func(s *checkpoint.Snapshot) { snap = s }
	if _, err := engine.Run(cfg, in.threads); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot captured")
	}
	if err := snap.SaveFile(store.path(key)); err != nil {
		t.Fatal(err)
	}

	// Measure through a Runner: the cold retry stays one run.
	r := NewRunner(1)
	r.SetCheckpoints(store)
	ms, err := r.MeasureAll([]MeasureRequest{{Bench: b, Options: o}})
	if err != nil {
		t.Fatalf("mismatched image must fall back to cold warming: %v", err)
	}
	if mustJSON(t, ms[0]) != mustJSON(t, cold) {
		t.Fatal("fallback measurement differs from cold run")
	}
	if s := store.Stats(); s.DiskHits != 1 || s.Failures == 0 {
		t.Fatalf("stats %+v, want the planted image loaded and its restore failure counted", s)
	}
	if s := runnerStats(t, r); s.Runs != 1 {
		t.Fatalf("runner stats %+v, want the cold retry counted as one run", s)
	}
}

// TestCheckpointSameWarmKey: two requests that differ only in
// MeasureInsts share one warm key. Run at once on two workers, each
// either warms and saves the image or forks from it on disk, and the
// directory ends up holding one image; run one after the other, the
// second forks from the first's image. Every result equals its cold
// run.
func TestCheckpointSameWarmKey(t *testing.T) {
	b := mustBench("Media Streaming")
	oA := diffOptions(1, false)
	oB := diffOptions(1, false)
	oB.MeasureInsts = 12_000 // distinct memo key, same warm key
	reqs := []MeasureRequest{{Bench: b, Options: oA}, {Bench: b, Options: oB}}
	var cold []string
	for _, req := range reqs {
		m, err := MeasureBench(req.Bench, req.Options)
		if err != nil {
			t.Fatal(err)
		}
		cold = append(cold, mustJSON(t, m))
	}

	for _, workers := range []int{2, 1} {
		dir := t.TempDir()
		store, err := NewCheckpointStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(workers)
		r.SetCheckpoints(store)
		ms, err := r.MeasureAll(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range ms {
			if mustJSON(t, m) != cold[i] {
				t.Fatalf("%d workers: request %d differs from its cold run", workers, i)
			}
		}
		s := store.Stats()
		if s.Failures != 0 || s.Saves+s.DiskHits != 2 {
			t.Fatalf("%d workers: stats %+v, want no failures and 2 saves plus disk hits", workers, s)
		}
		if workers == 1 && s.DiskHits != 1 {
			t.Fatalf("1 worker: stats %+v, want the second request served from disk", s)
		}
		if files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(files) != 1 {
			t.Fatalf("%d workers: directory holds %d images, want 1", workers, len(files))
		}
	}
}

// TestCheckpointStoreConcurrentSaveLoad hammers one key from many
// goroutines at once (run under -race in CI): every load sees no image
// or a whole verified one, and the atomic rename leaves no temp file.
func TestCheckpointStoreConcurrentSaveLoad(t *testing.T) {
	dir := t.TempDir()
	store, err := NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key = "shared-key"
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check := func() {
				if snap := store.load(key); snap != nil && snap.Key() != key {
					t.Errorf("load returned an image with key %q", snap.Key())
				}
			}
			check()
			w := checkpoint.NewWriter()
			w.U64(42)
			store.save(key, w.Snapshot(key))
			check()
		}()
	}
	wg.Wait()
	if s := store.Stats(); s.Failures != 0 || s.Saves != 8 || s.Requests != 16 {
		t.Fatalf("stats %+v, want 8 saves, 16 requests and no failures", s)
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, ".ckpt-*")); len(tmp) != 0 {
		t.Fatalf("temp files left behind: %v", tmp)
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

// TestCheckpointRepeatRequestIsDiskHit: after a sweep over several
// warm keys has returned, a repeat request for one key is a disk hit
// that forks byte-identically to a cold run.
func TestCheckpointRepeatRequestIsDiskHit(t *testing.T) {
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
	if s := store.Stats(); s.DiskHits != 1 {
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
