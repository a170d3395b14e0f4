package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// This file is the differential wall around the scalable-directory
// refactor: golden measurement JSON captured from the pre-refactor tree
// (flat uint32 sharer mask, fixed two-socket QPI) is committed under
// testdata/, and every configuration that fits the old 32-core envelope
// must keep producing those exact bytes. The matrix covers all six
// scale-out workloads x {1,2} sockets x {contiguous,sampled}, plus
// every <=32-core configuration variant the claim check (validate.go)
// exercises: SMT, LLC polluters, and split-socket placement.
//
// Regenerate (only when an intentional model change invalidates the
// baseline — never to paper over a diff):
//
//	go test ./internal/core -run TestSharerDifferentialGolden -update-sharer-golden

var updateSharerGolden = flag.Bool("update-sharer-golden", false,
	"rewrite testdata/sharer_golden.json from the current tree")

const sharerGoldenPath = "testdata/sharer_golden.json"

// sharerDiffMatrix enumerates every golden configuration by a stable
// name. The names are the comparison keys, so additions are fine but
// renames invalidate the baseline.
func sharerDiffMatrix() map[string]MeasureRequest {
	reqs := make(map[string]MeasureRequest)
	add := func(name, bench string, o Options) {
		b, ok := FindBench(bench)
		if !ok {
			panic("sharer_diff_test: unknown bench " + bench)
		}
		reqs[name] = MeasureRequest{Bench: b, Options: o}
	}

	// The PR-5 harness matrix: scale-out workloads over one and two
	// sockets, contiguous and sampled measurement.
	for _, b := range ScaleOut() {
		for _, sockets := range []int{1, 2} {
			for _, sampled := range []bool{false, true} {
				name := b.Name + "/sockets=1/contiguous"
				if sockets == 2 {
					name = b.Name + "/sockets=2/contiguous"
				}
				if sampled {
					name = name[:len(name)-len("contiguous")] + "sampled"
				}
				add(name, b.Name, diffOptions(sockets, sampled))
			}
		}
	}

	// The claim-check variants (validate.go) at differential budgets:
	// these walk the SMT, polluter, and split-socket paths through the
	// directory that the plain matrix does not.
	o := diffOptions(1, false)
	oSMT := o
	oSMT.SMT = true
	oPol6 := o
	oPol6.PolluteBytes = 6 << 20
	oSplit := o
	oSplit.SplitSockets = true
	add("claim/PARSEC (blackscholes)", "PARSEC (blackscholes)", o)
	add("claim/SPECint (bitops)", "SPECint (bitops)", o)
	add("claim/TPC-C/split", "TPC-C", oSplit)
	add("claim/Data Serving/smt", "Data Serving", oSMT)
	add("claim/Web Search/pollute6MB", "Web Search", oPol6)
	add("claim/MapReduce/split", "MapReduce", oSplit)
	return reqs
}

// TestSharerDifferentialGolden proves the refactored sharer
// representation and topology model are byte-identical to the seed
// behavior on every configuration inside the old envelope.
func TestSharerDifferentialGolden(t *testing.T) {
	matrix := sharerDiffMatrix()
	got := make(map[string]json.RawMessage, len(matrix))
	names := make([]string, 0, len(matrix))
	for name := range matrix {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		req := matrix[name]
		m, err := MeasureBench(req.Bench, req.Options)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The matrix spans all six scale-out workloads, contiguous and
		// sampled: check the accounting laws on each measurement too.
		checkConservation(t, name, m)
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = b
	}

	if *updateSharerGolden {
		out, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(sharerGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sharerGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden measurements to %s", len(got), sharerGoldenPath)
		return
	}

	raw, err := os.ReadFile(sharerGoldenPath)
	if err != nil {
		t.Fatalf("missing golden baseline (run with -update-sharer-golden on a known-good tree): %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	// The golden file stores each measurement indented; compact before
	// comparing so the equality is on JSON values, not whitespace.
	compact := func(r json.RawMessage) string {
		var buf bytes.Buffer
		if err := json.Compact(&buf, r); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: configuration missing from the golden baseline", name)
			continue
		}
		if compact(got[name]) != compact(w) {
			t.Errorf("%s: measurement drifted from the pre-refactor baseline\nwant = %s\ngot  = %s",
				name, w, got[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden configuration no longer produced by the matrix", name)
		}
	}
}
