package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"cloudsuite/internal/trace"
)

// TestTextReport: the default text report profiles the requested
// stream and renders all three tables.
func TestTextReport(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bench", "Data Serving", "-insts", "20000"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Trace profile: Data Serving", "Operation mix", "Dependence-distance histogram"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestJSONReport: -json emits one object counting exactly the requested
// instructions per thread, with an operation mix that sums to 100%.
func TestJSONReport(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bench", "Web Search", "-insts", "10000", "-threads", "2", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var doc jsonProfile
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("%v:\n%s", err, out.String())
	}
	if doc.Bench != "Web Search" || doc.Instructions != 20000 {
		t.Fatalf("bench %q, %d instructions; want Web Search, 20000", doc.Bench, doc.Instructions)
	}
	if sum := doc.LoadPct + doc.StorePct + doc.BranchPct + doc.FPPct + doc.MulPct + doc.ALUPct; math.Abs(sum-100) > 1e-9 {
		t.Errorf("operation mix sums to %.6f%%", sum)
	}
	if len(doc.DepHist) != 8 || doc.UserCode == 0 || doc.Data == 0 {
		t.Fatalf("incomplete profile: %d histogram buckets, %d code bytes, %d data bytes", len(doc.DepHist), doc.UserCode, doc.Data)
	}
	// The top bucket counts distances from 129 up to the saturated 255,
	// which stands for every producer 255 or more instructions back.
	if top := doc.DepHist[7].Distance; top != ">128" {
		t.Errorf("top dependence bucket %q, want >128", top)
	}
}

// TestBucketEdges: each bucket ends where its label says, and the
// saturated distance lands in the top bucket.
func TestBucketEdges(t *testing.T) {
	for _, c := range []struct {
		d    uint8
		want int
	}{{1, 0}, {2, 1}, {4, 2}, {5, 3}, {16, 4}, {48, 5}, {128, 6}, {129, 7}, {trace.MaxDepDist, 7}} {
		if got := bucket(c.d); got != c.want {
			t.Errorf("distance %d in bucket %d, want %d", c.d, got, c.want)
		}
	}
}

// TestUnknownBench fails instead of profiling nothing.
func TestUnknownBench(t *testing.T) {
	if err := run([]string{"-bench", "No Such Bench"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
