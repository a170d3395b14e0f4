package core

import (
	"errors"
	"math"
	"testing"

	"cloudsuite/internal/sim/cache"
	"cloudsuite/internal/sim/sample"
)

// TestOptionsValidate is the front door's table: every row is an
// Options value Validate must reject, naming the offending field, and
// Measure, MeasureBench and Runner.MeasureBench must refuse it the same
// way before any simulation starts.
func TestOptionsValidate(t *testing.T) {
	huge := ScaledMachine(4, 128)
	cases := []struct {
		name  string
		mut   func(*Options)
		field string
	}{
		{"negative cores", func(o *Options) { o.Cores = -3 }, "Cores"},
		{"oversized cores", func(o *Options) { o.Cores = cache.MaxCores + 1 }, "Cores"},
		{"cores over machine capacity", func(o *Options) { o.Cores = 8 }, "Cores"},
		{"negative sockets", func(o *Options) { o.Sockets = -2 }, "Sockets"},
		{"oversized sockets", func(o *Options) { o.Sockets = cache.MaxCores + 1 }, "Sockets"},
		{"socket grid over directory", func(o *Options) { o.Sockets = 50 }, "Sockets"},
		{"negative cores per socket", func(o *Options) { o.CoresPerSocket = -6 }, "CoresPerSocket"},
		{"oversized cores per socket", func(o *Options) { o.CoresPerSocket = cache.MaxCores + 1 }, "CoresPerSocket"},
		{"scaled grid over directory", func(o *Options) { o.Sockets, o.CoresPerSocket = 4, 128 }, "CoresPerSocket"},
		{"machine over directory", func(o *Options) { o.Machine = &huge }, "Machine"},
		{"pollute over window", func(o *Options) { o.PolluteBytes = polluterWindow + 1 }, "PolluteBytes"},
		{"negative warmup", func(o *Options) { o.WarmupInsts = -1 }, "WarmupInsts"},
		{"oversized warmup", func(o *Options) { o.WarmupInsts = maxBudgetInsts + 1 }, "WarmupInsts"},
		{"negative measure", func(o *Options) { o.MeasureInsts = -5 }, "MeasureInsts"},
		{"oversized measure", func(o *Options) { o.MeasureInsts = maxBudgetInsts + 1 }, "MeasureInsts"},
		{"negative invariants", func(o *Options) { o.InvariantChecks = -1 }, "InvariantChecks"},
		{"negative intervals", func(o *Options) { o.Sampling = Sampling{Intervals: -2} }, "Sampling.Intervals"},
		{"intervals over cap", func(o *Options) { o.Sampling = Sampling{Intervals: sample.MaxIntervals + 1} }, "Sampling.Intervals"},
		{"negative interval insts", func(o *Options) { o.Sampling = Sampling{Intervals: 4, IntervalInsts: -1} }, "Sampling.IntervalInsts"},
		{"negative warm insts", func(o *Options) { o.Sampling = Sampling{Intervals: 4, WarmInsts: -1} }, "Sampling.WarmInsts"},
		{"negative relerr", func(o *Options) { o.Sampling = Sampling{TargetRelErr: -0.1} }, "Sampling.TargetRelErr"},
		{"NaN relerr", func(o *Options) { o.Sampling = Sampling{TargetRelErr: math.NaN()} }, "Sampling.TargetRelErr"},
		{"relerr of one", func(o *Options) { o.Sampling = Sampling{TargetRelErr: 1} }, "Sampling.TargetRelErr"},
		{"relerr over one", func(o *Options) { o.Sampling = Sampling{TargetRelErr: 2} }, "Sampling.TargetRelErr"},
	}
	b, _ := FindBench("Web Search")
	r := NewRunner(1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := fastOptions()
			tc.mut(&o)
			entries := []struct {
				name string
				run  func() error
			}{
				{"Validate", o.Validate},
				{"Measure", func() error { _, err := Measure(b.New(), o); return err }},
				{"MeasureBench", func() error { _, err := MeasureBench(b, o); return err }},
				{"Runner.MeasureBench", func() error { _, err := r.MeasureBench(b, o); return err }},
			}
			for _, e := range entries {
				var oe *OptionError
				if err := e.run(); !errors.As(err, &oe) || oe.Field != tc.field {
					t.Errorf("%s: got %v, want an OptionError on %s", e.name, err, tc.field)
				}
			}
		})
	}
	if s := runnerStats(t, r); s.Requests != 0 {
		t.Errorf("rejected requests were counted: %+v", s)
	}
}

// TestOptionsValidateAcceptsDefaults: zero means "default", so the zero
// value and every spelled-out default are valid.
func TestOptionsValidateAcceptsDefaults(t *testing.T) {
	m := XeonX5670()
	for _, o := range []Options{
		{},
		DefaultOptions(),
		{Machine: &m, Cores: 6},
		{Cores: 64, Sockets: 4, CoresPerSocket: 16},
		{Sampling: Sampling{TargetRelErr: 0.05}},
		{PolluteBytes: polluterWindow},
	} {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
}

// TestRunnerRejectsInvalidWithoutMemoSlot: an invalid request fails at
// the front door — no memo slot, no stats transition — so a later
// valid request runs fresh and the stats law still holds.
func TestRunnerRejectsInvalidWithoutMemoSlot(t *testing.T) {
	b, _ := FindBench("Web Search")
	bad := fastOptions()
	bad.Cores = -3
	r := NewRunner(2)
	if _, err := r.MeasureAll([]MeasureRequest{{Bench: b, Options: bad}, {Bench: b, Options: bad}}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if _, err := r.MeasureBench(b, bad); err == nil {
		t.Fatal("invalid request accepted")
	}
	r.mu.Lock()
	slots := len(r.cache)
	r.mu.Unlock()
	if slots != 0 {
		t.Fatalf("invalid requests took %d memo slots", slots)
	}
	if _, err := r.MeasureBench(b, fastOptions()); err != nil {
		t.Fatal(err)
	}
	if s := runnerStats(t, r); s.Requests != 1 || s.Runs != 1 || s.Errors != 0 {
		t.Fatalf("stats after rejects and one valid run = %+v, want 1 request, 1 run, 0 errors", s)
	}
}
