package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"os"
	"testing"

	"cloudsuite/internal/trace"
)

// This file pins every workload's raw instruction stream. Each bench
// starts two threads with seed 1, and the test pulls engine-sized
// batches from them in alternation, the order the engine's fetch loop
// pulls in, until each thread has streamGoldenInsts instructions. The
// SHA-256 of each thread's little-endian instruction encoding must match
// the committed digest, so a refactor of workload or emitter code that
// changes one instruction, address, dependence or flag fails here
// before any measurement golden notices.
//
// The budget is 128 batches per thread. A Data Serving request emits
// about 9K instructions, so 4 batches would cover two reads per thread
// and no write; 128 reach its skiplist inserts, its GC mark quanta and
// the kernel's global-statistics flush (a mutation of each fails here).
//
// Regenerate (only when an intentional model change invalidates the
// baseline — never to paper over a diff):
//
//	go test ./internal/core -run TestStreamGolden -update-stream-golden

var updateStreamGolden = flag.Bool("update-stream-golden", false,
	"rewrite testdata/stream_golden.json from the current tree")

const (
	streamGoldenPath  = "testdata/stream_golden.json"
	streamGoldenBatch = 4096 // the engine's batch size
	streamGoldenInsts = 128 * streamGoldenBatch
)

// appendInst appends the little-endian encoding of one instruction.
// Each dependence distance is its one saturated byte (trace.DepDist).
func appendInst(b []byte, in *trace.Inst) []byte {
	le := binary.LittleEndian
	b = le.AppendUint64(b, in.PC)
	b = le.AppendUint64(b, in.Addr)
	b = le.AppendUint64(b, in.Target)
	b = append(b, in.DepA, in.DepB, in.Size, byte(in.Op))
	for _, f := range []bool{in.Kernel, in.Taken, in.Uncond, in.AcquiresDep} {
		var v byte
		if f {
			v = 1
		}
		b = append(b, v)
	}
	return b
}

// streamDigests runs a bench's two-thread stream and returns one hex
// digest per thread.
func streamDigests(t *testing.T, b Bench) [2]string {
	gens := b.New().Start(2, 1)
	if len(gens) != 2 {
		t.Fatalf("%s: Start(2, 1) returned %d generators", b.Name, len(gens))
	}
	defer func() {
		for _, g := range gens {
			g.Close()
		}
	}()
	var (
		sums [2]hash.Hash
		buf  []byte
		n    [2]int
		done [2]bool
	)
	for i := range sums {
		sums[i] = sha256.New()
	}
	for n[0] < streamGoldenInsts && !done[0] || n[1] < streamGoldenInsts && !done[1] {
		for i, g := range gens {
			if n[i] >= streamGoldenInsts || done[i] {
				continue
			}
			batch := g.Batch(streamGoldenBatch)
			done[i] = len(batch) == 0
			if len(batch) > streamGoldenInsts-n[i] {
				batch = batch[:streamGoldenInsts-n[i]]
			}
			buf = buf[:0]
			for j := range batch {
				buf = appendInst(buf, &batch[j])
			}
			sums[i].Write(buf)
			n[i] += len(batch)
		}
	}
	var out [2]string
	for i := range out {
		if n[i] < streamGoldenInsts {
			t.Errorf("%s: thread %d ended after %d instructions", b.Name, i, n[i])
		}
		out[i] = hex.EncodeToString(sums[i].Sum(nil))
	}
	return out
}

// TestStreamGolden proves every bench emits the same instruction stream
// as the tree the golden was recorded on.
func TestStreamGolden(t *testing.T) {
	got := make(map[string][2]string)
	for _, b := range AllBenches() {
		got[b.Name] = streamDigests(t, b)
	}

	if *updateStreamGolden {
		out, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d stream digests to %s", len(got), streamGoldenPath)
		return
	}

	raw, err := os.ReadFile(streamGoldenPath)
	if err != nil {
		t.Fatalf("missing golden baseline (run with -update-stream-golden on a known-good tree): %v", err)
	}
	var want map[string][2]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d benches, the suite has %d", len(want), len(got))
	}
	for _, b := range AllBenches() {
		w, ok := want[b.Name]
		if !ok {
			t.Errorf("%s: bench missing from the golden baseline", b.Name)
			continue
		}
		for i := range w {
			if got[b.Name][i] != w[i] {
				t.Errorf("%s thread %d: stream digest %s, golden %s", b.Name, i, got[b.Name][i], w[i])
			}
		}
	}
}
