// Package sample implements the statistical-sampling methodology the
// measurement layer offers as an alternative to one contiguous window:
// SMARTS-style systematic interval sampling (Wunderlich et al., ISCA'03,
// the methodology DAMOV-scale characterization studies rely on).
//
// A sampled run replaces the single measured window with N short
// measurement intervals spread across a much longer execution. Each
// interval is preceded by functional warming — caches, TLBs, and branch
// predictors observe every instruction, but counters stay frozen — so
// the detailed windows see warm microarchitectural state. Per-metric
// sample means, standard errors, and 95% confidence intervals come out
// of the interval vector; an adaptive mode stops spawning intervals
// once the CI of a target metric is within a requested relative error.
//
// The package is deliberately free of simulator dependencies: the
// engine consumes a Spec's schedule, the measurement layer feeds metric
// values per interval back into Estimate. Everything here is
// deterministic — a Spec fully determines the schedule, so a sampled
// measurement remains bit-reproducible per seed (the property the
// Runner's memoization and the serial==parallel guarantee stand on).
package sample

import (
	"fmt"
	"math"
)

// Spec configures interval sampling for one measurement. The zero value
// means "disabled" (one contiguous window).
type Spec struct {
	// Intervals is the number of measurement intervals (the maximum in
	// adaptive mode). 0 selects the default count when any other field
	// enables sampling (see Enabled); the all-zero Spec disables it.
	Intervals int
	// IntervalInsts is the per-thread measured instruction budget of
	// each interval. 0 selects a default derived from the contiguous
	// budget (see Normalize).
	IntervalInsts int64
	// WarmInsts is the per-thread functional-warming budget preceding
	// each interval: instructions stream through caches, TLBs and
	// predictors with counters frozen. 0 selects the default warming
	// ratio (see Normalize).
	WarmInsts int64
	// TargetRelErr, when positive, enables adaptive stopping: after each
	// interval beyond MinAdaptiveIntervals the 95% CI of the target
	// metric (IPC) is checked, and sampling stops once its half-width
	// divided by the mean is at or below this value.
	TargetRelErr float64
}

// DefaultIntervals is the interval count a Spec gets when sampling is
// requested without an explicit N.
const DefaultIntervals = 8

// MinAdaptiveIntervals is the floor before adaptive stopping may
// trigger: a CI from fewer samples is too unstable to act on.
const MinAdaptiveIntervals = 4

// WarmRatio is the default functional-warming budget per interval,
// expressed as a multiple of the interval's measured budget. The
// default schedule spreads the sampled windows over the same effective
// horizon as the contiguous window they replace while measuring 1/6 of
// it by schedule: 8 x (5w + 1m) = 48 units of execution, 8 units
// measured. Timed windows overshoot their budget slightly (a window
// ends when its slowest thread reaches the budget; faster threads keep
// committing until then), so the realized measured share lands near
// 1/5 — a >= 5x reduction in measured work per configuration.
const WarmRatio = 5

// Enabled reports whether the Spec requests sampling.
func (s Spec) Enabled() bool {
	return s.Intervals > 0 || s.IntervalInsts > 0 || s.WarmInsts > 0 || s.TargetRelErr > 0
}

// MaxIntervals caps the interval count: more intervals than measured
// instructions cannot be scheduled, and absurd counts signal a typo.
const MaxIntervals = 1_000_000

// FieldError reports the Spec field Validate rejects, so a front end
// can name its own spelling of that field.
type FieldError struct {
	Field  string
	Value  any
	Reason string
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("sample: %s %v: %s", e.Field, e.Value, e.Reason)
}

// Validate rejects specs that cannot be scheduled, as a *FieldError.
// Zero fields are legal (they select defaults in Normalize); negatives,
// oversized interval counts and relative errors outside [0, 1) are not.
func (s Spec) Validate() error {
	switch {
	case s.Intervals < 0:
		return &FieldError{"Intervals", s.Intervals, "must be >= 0 (0 = default)"}
	case s.Intervals > MaxIntervals:
		return &FieldError{"Intervals", s.Intervals, fmt.Sprintf("exceeds the %d-interval cap", MaxIntervals)}
	case s.IntervalInsts < 0:
		return &FieldError{"IntervalInsts", s.IntervalInsts, "must be >= 0 (0 = default)"}
	case s.WarmInsts < 0:
		return &FieldError{"WarmInsts", s.WarmInsts, "must be >= 0 (0 = default)"}
	case !(s.TargetRelErr >= 0): // NaN included
		return &FieldError{"TargetRelErr", s.TargetRelErr, "must be >= 0 (0 = fixed interval count)"}
	case s.TargetRelErr >= 1:
		return &FieldError{"TargetRelErr", s.TargetRelErr, "must be below 1 (it is a relative error target)"}
	}
	return nil
}

// Normalize resolves an enabled Spec's defaults against the contiguous
// per-thread budget it replaces: the interval budget defaults so that
// the full schedule (warming plus measurement) spans the same effective
// horizon as contiguousInsts, measuring 1/(WarmRatio+1) of it. A
// disabled Spec normalizes to the zero value.
func (s Spec) Normalize(contiguousInsts int64) Spec {
	if !s.Enabled() {
		return Spec{}
	}
	n := s
	if n.Intervals == 0 {
		n.Intervals = DefaultIntervals
	}
	if n.IntervalInsts == 0 {
		n.IntervalInsts = contiguousInsts / (int64(n.Intervals) * (WarmRatio + 1))
		if n.IntervalInsts < 1 {
			n.IntervalInsts = 1
		}
	}
	if n.WarmInsts == 0 {
		n.WarmInsts = WarmRatio * n.IntervalInsts
	}
	return n
}

// DetailWarmInsts is the detailed-warming quantum preceding each
// measured window: the tail of the warming budget runs through the
// detailed timing model with counters still frozen, so a window does
// not open on a pipeline artificially refilled by functional warming
// (whose in-flight work would otherwise commit in a burst and bias
// stall and IPC metrics on short windows). Half the interval budget is
// enough to clear the reorder-buffer-sized boundary artifact.
func (s Spec) DetailWarmInsts() int64 { return s.IntervalInsts / 2 }

// FunctionalWarmInsts is the warming budget left to pure functional
// warming once the detailed-warming tail is carved out of WarmInsts.
func (s Spec) FunctionalWarmInsts() int64 {
	f := s.WarmInsts - s.DetailWarmInsts()
	if f < 0 {
		return 0
	}
	return f
}

// Estimate is a sample statistic of one metric over the measurement
// intervals: the mean, its standard error, and the half-width of the
// 95% confidence interval (Student's t, n-1 degrees of freedom).
type Estimate struct {
	// N is the number of samples behind the estimate.
	N int
	// Mean is the sample mean.
	Mean float64
	// StdErr is the standard error of the mean (s / sqrt(n)).
	StdErr float64
	// Half is the 95% CI half-width (t_{0.975,n-1} x StdErr). Zero when
	// N < 2 — a single sample carries no spread information.
	Half float64
}

// Point wraps a single deterministic value (a contiguous measurement)
// as a degenerate estimate with no spread.
func Point(v float64) Estimate { return Estimate{N: 1, Mean: v} }

// FromSamples computes the mean, standard error, and 95% CI half-width
// of vals.
func FromSamples(vals []float64) Estimate {
	n := len(vals)
	if n == 0 {
		return Estimate{}
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(n)
	if n < 2 {
		return Estimate{N: n, Mean: mean}
	}
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	se := math.Sqrt(ss/float64(n-1)) / math.Sqrt(float64(n))
	return Estimate{N: n, Mean: mean, StdErr: se, Half: tCrit95(n-1) * se}
}

// Lo returns the lower bound of the 95% CI.
func (e Estimate) Lo() float64 { return e.Mean - e.Half }

// Hi returns the upper bound of the 95% CI.
func (e Estimate) Hi() float64 { return e.Mean + e.Half }

// RelErr returns the CI half-width relative to the mean — the quantity
// adaptive stopping drives below TargetRelErr. It is +Inf for a zero
// mean with spread, and 0 for a degenerate (single-sample) estimate.
func (e Estimate) RelErr() float64 {
	if e.Half == 0 {
		return 0
	}
	if e.Mean == 0 {
		return math.Inf(1)
	}
	return math.Abs(e.Half / e.Mean)
}

// Contains reports whether v lies inside the 95% CI.
func (e Estimate) Contains(v float64) bool { return v >= e.Lo() && v <= e.Hi() }

// Combine merges independent per-member estimates into a group
// estimate: the mean of means, with the half-widths combined in
// quadrature (the members are measured independently). This is how an
// Entry's bar gets its error bar from its members' interval vectors.
func Combine(ests []Estimate) Estimate {
	if len(ests) == 0 {
		return Estimate{}
	}
	var mean, varSE, varHalf float64
	n := 0
	for _, e := range ests {
		mean += e.Mean
		varSE += e.StdErr * e.StdErr
		varHalf += e.Half * e.Half
		n += e.N
	}
	k := float64(len(ests))
	return Estimate{
		N:      n,
		Mean:   mean / k,
		StdErr: math.Sqrt(varSE) / k,
		Half:   math.Sqrt(varHalf) / k,
	}
}

// Stop reports whether adaptive sampling may stop: at least
// MinAdaptiveIntervals samples and a relative 95% CI half-width at or
// below target.
func Stop(vals []float64, target float64) bool {
	if target <= 0 || len(vals) < MinAdaptiveIntervals {
		return false
	}
	return FromSamples(vals).RelErr() <= target
}

// tCrit95 returns the two-sided 97.5th-percentile Student-t critical
// value for df degrees of freedom (exact table through 30, the normal
// approximation beyond).
func tCrit95(df int) float64 {
	table := [...]float64{
		1:  12.706,
		2:  4.303,
		3:  3.182,
		4:  2.776,
		5:  2.571,
		6:  2.447,
		7:  2.365,
		8:  2.306,
		9:  2.262,
		10: 2.228,
		11: 2.201,
		12: 2.179,
		13: 2.160,
		14: 2.145,
		15: 2.131,
		16: 2.120,
		17: 2.110,
		18: 2.101,
		19: 2.093,
		20: 2.086,
		21: 2.080,
		22: 2.074,
		23: 2.069,
		24: 2.064,
		25: 2.060,
		26: 2.056,
		27: 2.052,
		28: 2.048,
		29: 2.045,
		30: 2.042,
	}
	switch {
	case df < 1:
		return 0
	case df < len(table):
		return table[df]
	default:
		return 1.960
	}
}
