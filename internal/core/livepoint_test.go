package core

import (
	"os"
	"path/filepath"
	"testing"

	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/trace"
	"cloudsuite/internal/workloads"
)

// saveAll serializes a workload's complete generator half — shared
// structures plus every thread generator — the way a warm image does.
func saveAll(t *testing.T, w workloads.Workload, gens []*trace.StepGen) *checkpoint.Snapshot {
	t.Helper()
	wr := checkpoint.NewWriter()
	w.SaveShared(wr)
	for _, g := range gens {
		if !g.CanSave() {
			t.Fatal("generator reports CanSave() == false")
		}
		g.SaveState(wr, 0)
	}
	return wr.Snapshot("roundtrip")
}

// TestWorkloadStateRoundTrip: for every benchmark,
// save -> load-into-fresh-instance -> save must reproduce the state
// bytes exactly. This is the workload-local contract behind pure-load
// restore: if a field were dropped or restored approximately, the
// second save would differ.
func TestWorkloadStateRoundTrip(t *testing.T) {
	const threads, seed = 4, 7
	for _, b := range AllBenches() {
		w := b.New()
		gens := w.Start(threads, seed)
		// Advance each thread unevenly so the saved state is past the
		// initial conditions and differs per thread.
		buf := make([]trace.Inst, 1024)
		for i, g := range gens {
			for drained := 0; drained < 10_000+3_000*i; {
				n := g.Next(buf)
				if n == 0 {
					t.Fatalf("%s: thread %d stream ended during draining", b.Name, i)
				}
				drained += n
			}
		}
		first := saveAll(t, w, gens)

		// A fresh instance, never advanced, absorbs the saved state...
		w2 := b.New()
		gens2 := w2.Start(threads, seed)
		rd := first.Reader()
		w2.LoadShared(rd)
		for _, g := range gens2 {
			g.LoadState(rd)
		}
		if err := rd.Err(); err != nil {
			t.Fatalf("%s: loading saved state: %v", b.Name, err)
		}

		// ...and must serialize to the identical bytes.
		second := saveAll(t, w2, gens2)
		if first.Hash() != second.Hash() {
			t.Errorf("%s: save -> load -> save changed the state bytes", b.Name)
		}
		for _, g := range append(gens, gens2...) {
			g.Close()
		}
	}
}

// TestCheckpointBadImageDeletedFromDisk: an on-disk image that fails
// verification — corrupted payload or stale format version — must be
// deleted by the probe, not left to fail the same multi-MB read and
// hash on every future process.
func TestCheckpointBadImageDeletedFromDisk(t *testing.T) {
	corrupt := func(raw []byte) { raw[len(raw)-1] ^= 0xFF }
	staleVersion := func(raw []byte) {
		// The format version is the uint32 after the 8-byte magic.
		raw[8], raw[9], raw[10], raw[11] = 2, 0, 0, 0
	}
	for name, mangle := range map[string]func([]byte){
		"corrupt-payload": corrupt,
		"stale-version":   staleVersion,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := NewCheckpointStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			w := checkpoint.NewWriter()
			w.U64(42)
			if err := w.Snapshot("some-key").SaveFile(store.path("some-key")); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(store.path("some-key"))
			if err != nil {
				t.Fatal(err)
			}
			mangle(raw)
			if err := os.WriteFile(store.path("some-key"), raw, 0o600); err != nil {
				t.Fatal(err)
			}

			if store.load("some-key") != nil {
				t.Fatal("load returned a snapshot from an unverifiable image")
			}
			if files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(files) != 0 {
				t.Fatalf("bad image left on disk: %v", files)
			}
			if s := store.Stats(); s.Failures != 1 {
				t.Fatalf("stats %+v, want the bad image counted as a failure", s)
			}
		})
	}
}
