package core

import (
	"reflect"
	"testing"
)

// Reduced budgets keep the sampling tests fast; the schedule shapes
// match the defaults (8 intervals over the contiguous horizon).
func samplingTestOptions() Options {
	o := DefaultOptions()
	o.Cores = 2
	// Warming must cover a useful fraction of the largest workload's
	// working set (Data Serving: 128MB) or the contiguous window sits on
	// a cold-miss transient the sampled schedule averages away.
	o.WarmupInsts = 200_000
	o.MeasureInsts = 40_000
	return o
}

// TestSamplingDeterminismSerialVsParallel: with sampling enabled,
// serial and parallel runners must produce identical measurements —
// including the per-interval vectors — for a mixed request batch.
func TestSamplingDeterminismSerialVsParallel(t *testing.T) {
	o := samplingTestOptions()
	o.Sampling = Sampling{Intervals: 6}
	oAdaptive := o
	oAdaptive.Sampling.TargetRelErr = 0.10
	var reqs []MeasureRequest
	for _, name := range []string{"Web Search", "Data Serving", "Media Streaming"} {
		b, ok := FindBench(name)
		if !ok {
			t.Fatalf("bench %q missing", name)
		}
		reqs = append(reqs, MeasureRequest{Bench: b, Options: o})
		reqs = append(reqs, MeasureRequest{Bench: b, Options: oAdaptive})
	}
	serial, err := NewRunner(1).MeasureAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewRunner(8).MeasureAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("request %d (%s): serial and parallel measurements diverge", i, reqs[i].Bench.Name)
		}
		if len(serial[i].Samples) == 0 {
			t.Errorf("request %d (%s): sampled run carries no interval vector", i, reqs[i].Bench.Name)
		}
	}
}

// TestMemoKeyIncludesSampling: sampling options are part of the cache
// key — distinct schedules simulate separately, identical ones share.
func TestMemoKeyIncludesSampling(t *testing.T) {
	o := samplingTestOptions()
	b, _ := FindBench("SAT Solver")
	r := NewRunner(1)
	oA := o
	oA.Sampling = Sampling{Intervals: 4}
	oB := o
	oB.Sampling = Sampling{Intervals: 6}
	var reqs []MeasureRequest
	for _, opt := range []Options{o, oA, oB, oA} {
		reqs = append(reqs, MeasureRequest{Bench: b, Options: opt})
	}
	if _, err := r.MeasureAll(reqs); err != nil {
		t.Fatal(err)
	}
	s := runnerStats(t, r)
	if s.Runs != 3 || s.CacheHits != 1 {
		t.Fatalf("runs/hits = %d/%d, want 3/1 (contiguous, 4-interval, 6-interval, repeat)", s.Runs, s.CacheHits)
	}
}

// TestSamplingSpellingsShareCacheSlot: a spec written with defaults and
// its fully-resolved spelling canonicalize to the same key.
func TestSamplingSpellingsShareCacheSlot(t *testing.T) {
	o := samplingTestOptions()
	short := o
	short.Sampling = Sampling{Intervals: 8}
	long := o
	long.Sampling = short.Sampling.Normalize(o.MeasureInsts)
	if canonicalize(short) != canonicalize(long) {
		t.Fatalf("default and resolved spellings key differently:\n%+v\n%+v",
			canonicalize(short).sampling, canonicalize(long).sampling)
	}
	b, _ := FindBench("MapReduce")
	r := NewRunner(1)
	if _, err := r.MeasureAll([]MeasureRequest{{Bench: b, Options: short}, {Bench: b, Options: long}}); err != nil {
		t.Fatal(err)
	}
	if s := runnerStats(t, r); s.Runs != 1 || s.CacheHits != 1 {
		t.Fatalf("runs/hits = %d/%d, want 1/1", s.Runs, s.CacheHits)
	}
}

// TestContiguousMeanInsideSampledCI: the statistical contract — for two
// workloads the contiguous measurement's IPC lies inside the sampled
// 95% CI, while the sampled run measures a fraction of the
// instructions. (Runs are deterministic per seed, so this is a pinned
// regression, not a flaky statistical assertion.)
func TestContiguousMeanInsideSampledCI(t *testing.T) {
	o := samplingTestOptions()
	os := o
	os.Sampling = Sampling{Intervals: 8}
	for _, name := range []string{"Web Search", "Data Serving"} {
		b, ok := FindBench(name)
		if !ok {
			t.Fatalf("bench %q missing", name)
		}
		contig, err := MeasureBench(b, o)
		if err != nil {
			t.Fatal(err)
		}
		sampled, err := MeasureBench(b, os)
		if err != nil {
			t.Fatal(err)
		}
		ci := sampled.CI(func(m *Measurement) float64 { return m.IPC() })
		if !ci.Contains(contig.IPC()) {
			t.Errorf("%s: contiguous IPC %.4f outside sampled 95%% CI [%.4f, %.4f]",
				name, contig.IPC(), ci.Lo(), ci.Hi())
		}
		if sampled.Commits() > contig.Commits()/3 {
			t.Errorf("%s: sampled run measured %d insts vs contiguous %d — insufficient reduction",
				name, sampled.Commits(), contig.Commits())
		}
		// The aggregate equals the interval sum: no measured work is
		// dropped or double-counted.
		var cyc int64
		var commits uint64
		for _, s := range sampled.Samples {
			cyc += s.WindowCycles
			commits += s.Commits()
		}
		if cyc != sampled.WindowCycles || commits != sampled.Commits() {
			t.Errorf("%s: interval sums (%d cycles, %d commits) disagree with aggregate (%d, %d)",
				name, cyc, commits, sampled.WindowCycles, sampled.Commits())
		}
	}
}

// TestCINarrowsWithIntervalCount: quadrupling the interval count at a
// fixed per-interval budget must shrink the CI roughly like 1/sqrt(N).
func TestCINarrowsWithIntervalCount(t *testing.T) {
	o := samplingTestOptions()
	b, _ := FindBench("Web Search")
	half := func(n int) float64 {
		opt := o
		opt.Sampling = Sampling{Intervals: n, IntervalInsts: 1_000, WarmInsts: 4_000}
		m, err := MeasureBench(b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Samples) != n {
			t.Fatalf("measured %d intervals, want %d", len(m.Samples), n)
		}
		return m.CI(func(m *Measurement) float64 { return m.IPC() }).Half
	}
	h4, h16 := half(4), half(16)
	// Ideal contraction is sqrt(4/16) x t-ratio ~ 0.34; allow generous
	// slack for the realized per-interval variance differing across the
	// longer horizon.
	if h16 >= h4*0.75 {
		t.Errorf("CI half-width did not contract ~1/sqrt(N): %.4f (N=4) -> %.4f (N=16)", h4, h16)
	}
}

// TestAdaptiveSamplingStopsEarly: a loose target stops well before the
// interval cap, a zero target runs the full schedule.
func TestAdaptiveSamplingStopsEarly(t *testing.T) {
	o := samplingTestOptions()
	b, _ := FindBench("MapReduce")
	fixed := o
	fixed.Sampling = Sampling{Intervals: 16}
	mf, err := MeasureBench(b, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Samples) != 16 {
		t.Fatalf("fixed schedule ran %d intervals, want 16", len(mf.Samples))
	}
	adaptive := fixed
	adaptive.Sampling.TargetRelErr = 0.25
	ma, err := MeasureBench(b, adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ma.Samples); n >= 16 || n < 4 {
		t.Fatalf("adaptive run measured %d intervals, want early stop in [4, 16)", n)
	}
	ci := ma.CI(func(m *Measurement) float64 { return m.IPC() })
	if ci.RelErr() > 0.25 {
		t.Errorf("adaptive run stopped at relerr %.3f > target 0.25", ci.RelErr())
	}
}

// TestEntryResultCI: entry-level CIs combine member estimates; the
// contiguous degenerate case is a zero-width mean.
func TestEntryResultCI(t *testing.T) {
	mk := func(vals ...float64) *Measurement {
		m := &Measurement{}
		for _, v := range vals {
			var s IntervalSample
			s.CommitUser = uint64(v * 1000)
			s.Cycles = 1000
			m.Samples = append(m.Samples, s)
			m.CommitUser += s.CommitUser
			m.Cycles += s.Cycles
		}
		return m
	}
	ipc := func(m *Measurement) float64 { return m.IPC() }
	r := &EntryResult{Measurements: []*Measurement{
		mk(1.0, 1.2, 0.8, 1.0),
		mk(2.0, 2.2, 1.8, 2.0),
	}}
	ci := r.CI(ipc)
	if ci.Mean < 1.45 || ci.Mean > 1.55 {
		t.Errorf("combined mean %.3f, want ~1.5", ci.Mean)
	}
	if ci.Half <= 0 {
		t.Error("combined CI has no width")
	}
	// Contiguous member: point estimate.
	single := &EntryResult{Measurements: []*Measurement{{}}}
	single.Measurements[0].CommitUser = 1500
	single.Measurements[0].Cycles = 1000
	p := single.CI(ipc)
	if p.Half != 0 || p.Mean != 1.5 {
		t.Errorf("contiguous member gave %+v, want zero-width 1.5", p)
	}
}
