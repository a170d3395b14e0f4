package core

import (
	"encoding/json"
	"strings"
	"testing"

	"cloudsuite/internal/sim/counters"
)

// checkConservation asserts the cycle-accounting laws on a measurement
// and on each of its intervals, and that the interval deltas sum to the
// measurement's counters.
func checkConservation(t *testing.T, name string, m *Measurement) {
	t.Helper()
	if err := m.Counters.Conservation(); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	if !m.Sampled() {
		return
	}
	var sum counters.Counters
	var cycles int64
	for i := range m.Samples {
		s := &m.Samples[i]
		if err := s.Counters.Conservation(); err != nil {
			t.Errorf("%s: interval %d: %v", name, i, err)
		}
		sum.Add(&s.Counters)
		cycles += s.WindowCycles
	}
	if sum != m.Counters || cycles != m.WindowCycles {
		t.Errorf("%s: interval deltas do not sum to the measurement:\nsum   %+v (%d cycles)\ntotal %+v (%d cycles)",
			name, sum, cycles, m.Counters, m.WindowCycles)
	}
}

// TestTruncationSurfaces: a truncated measurement says so in JSON and
// fails the claim check's gate; an untruncated one keeps its JSON bytes
// free of the flag.
func TestTruncationSurfaces(t *testing.T) {
	b, ok := FindBench("Web Search")
	if !ok {
		t.Fatal("Web Search not registered")
	}
	reqs := []MeasureRequest{{Bench: b, Options: DefaultOptions()}}
	m := &Measurement{BenchName: b.Name, WindowCycles: 10}
	if err := untruncated(reqs, []*Measurement{m}); err != nil {
		t.Fatalf("untruncated measurement rejected: %v", err)
	}
	if js, _ := json.Marshal(m); strings.Contains(string(js), "truncated") {
		t.Fatalf("untruncated JSON carries the flag: %s", js)
	}
	m.Truncated = true
	if err := untruncated(reqs, []*Measurement{m}); err == nil || !strings.Contains(err.Error(), "Web Search") {
		t.Fatalf("truncated measurement not rejected by name: %v", err)
	}
	if js, _ := json.Marshal(m); !strings.Contains(string(js), `"truncated":true`) {
		t.Fatalf("truncated JSON lacks the flag: %s", js)
	}
}
