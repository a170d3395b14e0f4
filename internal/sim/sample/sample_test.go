package sample

import (
	"math"
	"testing"
)

func TestSpecEnabledAndNormalize(t *testing.T) {
	if (Spec{}).Enabled() {
		t.Error("zero Spec must be disabled")
	}
	if got := (Spec{}).Normalize(120_000); got != (Spec{}) {
		t.Errorf("disabled Spec normalized to %+v", got)
	}
	n := Spec{Intervals: 8}.Normalize(120_000)
	if n.Intervals != 8 || n.IntervalInsts != 2_500 || n.WarmInsts != 12_500 {
		t.Errorf("default schedule = %+v, want 8 x (12500 warm + 2500 measured)", n)
	}
	// The default schedule spans the contiguous horizon while measuring
	// a sixth of it by schedule.
	if h := int64(n.Intervals) * (n.WarmInsts + n.IntervalInsts); h != 120_000 {
		t.Errorf("horizon %d, want 120000", h)
	}
	if m := int64(n.Intervals) * n.IntervalInsts; m != 20_000 {
		t.Errorf("measured %d, want 20000", m)
	}
	// TargetRelErr alone enables sampling with defaults.
	a := Spec{TargetRelErr: 0.05}.Normalize(120_000)
	if a.Intervals != DefaultIntervals || a.IntervalInsts == 0 {
		t.Errorf("adaptive-only Spec normalized to %+v", a)
	}
	// Explicit fields survive.
	e := Spec{Intervals: 4, IntervalInsts: 1000, WarmInsts: 2000}.Normalize(120_000)
	if e.Intervals != 4 || e.IntervalInsts != 1000 || e.WarmInsts != 2000 {
		t.Errorf("explicit Spec changed by Normalize: %+v", e)
	}
	// A tiny budget still yields a schedulable interval.
	small := Spec{Intervals: 8}.Normalize(10)
	if small.IntervalInsts < 1 {
		t.Errorf("tiny budget produced IntervalInsts %d", small.IntervalInsts)
	}
}

func TestSpecValidate(t *testing.T) {
	for _, bad := range []Spec{
		{Intervals: -1},
		{IntervalInsts: -5},
		{WarmInsts: -1},
		{TargetRelErr: -0.1},
		{TargetRelErr: math.NaN()},
		{TargetRelErr: 1},
		{Intervals: MaxIntervals + 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", bad)
		}
	}
	if err := (Spec{Intervals: 8, TargetRelErr: 0.05}).Validate(); err != nil {
		t.Errorf("valid Spec rejected: %v", err)
	}
}

func TestFromSamples(t *testing.T) {
	if e := FromSamples(nil); e.N != 0 || e.Mean != 0 {
		t.Errorf("empty input gave %+v", e)
	}
	if e := FromSamples([]float64{2.5}); e.N != 1 || e.Mean != 2.5 || e.Half != 0 {
		t.Errorf("single sample gave %+v", e)
	}
	// Known case: {1,2,3,4,5} has mean 3, sd sqrt(2.5), se sqrt(0.5).
	e := FromSamples([]float64{1, 2, 3, 4, 5})
	if e.Mean != 3 {
		t.Errorf("mean %g, want 3", e.Mean)
	}
	wantSE := math.Sqrt(0.5)
	if math.Abs(e.StdErr-wantSE) > 1e-12 {
		t.Errorf("stderr %g, want %g", e.StdErr, wantSE)
	}
	wantHalf := 2.776 * wantSE // t(0.975, df=4)
	if math.Abs(e.Half-wantHalf) > 1e-9 {
		t.Errorf("half %g, want %g", e.Half, wantHalf)
	}
	if !e.Contains(3) || e.Contains(3+wantHalf+0.01) {
		t.Error("Contains disagrees with Lo/Hi")
	}
	if math.Abs(e.RelErr()-wantHalf/3) > 1e-12 {
		t.Errorf("relerr %g, want %g", e.RelErr(), wantHalf/3)
	}
	// Constant samples: zero spread, zero relative error.
	c := FromSamples([]float64{7, 7, 7, 7})
	if c.Half != 0 || c.RelErr() != 0 {
		t.Errorf("constant samples gave %+v", c)
	}
}

// TestCINarrowsWithN checks the 1/sqrt(n) contraction on synthetic
// samples with a fixed per-sample spread: quadrupling n should halve
// the standard error and shrink the CI by more (the t critical value
// falls as well).
func TestCINarrowsWithN(t *testing.T) {
	mk := func(n int) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			// Deterministic alternating spread around 10.
			vals[i] = 10 + float64(i%2)*2 - 1
		}
		return vals
	}
	e4, e16 := FromSamples(mk(4)), FromSamples(mk(16))
	// The n-1 variance denominator perturbs the exact 0.5; the 1/sqrt(n)
	// trend must still dominate.
	if r := e16.StdErr / e4.StdErr; math.Abs(r-0.5) > 0.06 {
		t.Errorf("stderr ratio %g, want ~0.5", r)
	}
	if e16.Half >= e4.Half*0.5 {
		t.Errorf("CI half did not contract: %g -> %g", e4.Half, e16.Half)
	}
}

func TestStop(t *testing.T) {
	tight := []float64{1.00, 1.01, 0.99, 1.00}
	loose := []float64{0.5, 1.5, 0.7, 1.3}
	if Stop(tight[:2], 0.5) {
		t.Error("stopped below MinAdaptiveIntervals")
	}
	if !Stop(tight, 0.05) {
		t.Errorf("tight samples (relerr %g) should stop at 5%%", FromSamples(tight).RelErr())
	}
	if Stop(loose, 0.05) {
		t.Error("loose samples must not stop at 5%")
	}
	if Stop(tight, 0) {
		t.Error("zero target must never stop")
	}
}

func TestCombine(t *testing.T) {
	if e := Combine(nil); e.N != 0 {
		t.Errorf("empty combine gave %+v", e)
	}
	a := Estimate{N: 8, Mean: 1.0, StdErr: 0.1, Half: 0.2}
	b := Estimate{N: 8, Mean: 3.0, StdErr: 0.1, Half: 0.2}
	c := Combine([]Estimate{a, b})
	if c.Mean != 2.0 || c.N != 16 {
		t.Errorf("combined mean/N = %g/%d", c.Mean, c.N)
	}
	wantHalf := math.Sqrt(0.08) / 2
	if math.Abs(c.Half-wantHalf) > 1e-12 {
		t.Errorf("combined half %g, want %g", c.Half, wantHalf)
	}
}

func TestTCrit(t *testing.T) {
	if tCrit95(0) != 0 {
		t.Error("df 0 must yield 0")
	}
	// Monotone non-increasing toward the normal limit.
	prev := tCrit95(1)
	for df := 2; df <= 40; df++ {
		v := tCrit95(df)
		if v > prev {
			t.Fatalf("tCrit95 not monotone at df %d: %g > %g", df, v, prev)
		}
		prev = v
	}
	if tCrit95(1000) != 1.960 {
		t.Errorf("large-df limit %g, want 1.960", tCrit95(1000))
	}
}
