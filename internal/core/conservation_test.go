package core

import (
	"strings"
	"testing"

	"cloudsuite/internal/rng"
	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/sim/counters"
	"cloudsuite/internal/trace"
	"cloudsuite/internal/workloads"
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

// chaseWorkload runs one pointer chase per thread: every instruction is
// a load whose address depends on the previous load and misses to
// DRAM, so a timed window runs far past the MaxCycles cap.
type chaseWorkload struct{ fn *trace.Func }

func (w *chaseWorkload) Start(n int, seed int64) []*trace.StepGen {
	gens := make([]*trace.StepGen, n)
	for i := range gens {
		p := &chaseProg{fn: w.fn, rnd: rng.New(seed + int64(i)), v: trace.NoVal}
		gens[i] = trace.NewStepGen(trace.EmitterConfig{Seed: seed, BlockLen: 8}, p)
	}
	return gens
}

func (w *chaseWorkload) SaveShared(*checkpoint.Writer) {}
func (w *chaseWorkload) LoadShared(*checkpoint.Reader) {}

type chaseProg struct {
	fn  *trace.Func
	rnd *rng.Rand
	v   trace.Val
}

func (p *chaseProg) Init(e *trace.Emitter) { e.Call(p.fn) }

func (p *chaseProg) Step(e *trace.Emitter) bool {
	for k := 0; k < 64; k++ {
		// 1 GB of 64-byte lines: every load misses every cache level.
		p.v = e.Load(0x40_0000_0000+uint64(p.rnd.Int63n(1<<24))*64, 8, p.v, true)
	}
	return true
}

// TestTruncatedWindowRefused: a timed window cut short at MaxCycles is
// an error naming the bench at every entry point — MeasureBench, a
// Runner's MeasureAll and a figure driver — never a result.
func TestTruncatedWindowRefused(t *testing.T) {
	chase := Bench{Name: "Pointer Chase", Class: workloads.ScaleOut, New: func() workloads.Workload {
		return &chaseWorkload{fn: trace.NewCodeLayout(0x40_0000, 1<<20).Func("chase", 64)}
	}}
	o := Options{Cores: 1, WarmupInsts: 10_000, MeasureInsts: 4_000, Seed: 1}
	for _, e := range []struct {
		name string
		run  func() error
	}{
		{"MeasureBench", func() error { _, err := MeasureBench(chase, o); return err }},
		{"MeasureAll", func() error {
			_, err := NewRunner(1).MeasureAll([]MeasureRequest{{Bench: chase, Options: o}})
			return err
		}},
		{"Figure1", func() error {
			_, err := NewRunner(1).Figure1([]Entry{{Label: "chase", Members: []Bench{chase}}}, o)
			return err
		}},
	} {
		if err := e.run(); err == nil || !strings.Contains(err.Error(), chase.Name) || !strings.Contains(err.Error(), "MaxCycles") {
			t.Errorf("%s over a truncated window returned %v, want a MaxCycles error naming %q", e.name, err, chase.Name)
		}
	}
}
