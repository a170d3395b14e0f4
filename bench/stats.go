package main

import "sort"

// stat is one metric of one workload: the median of its samples, their
// quartiles and count, and the samples themselves so that two runs can
// be compared sample by sample.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// newStat summarises vals, which must not be empty.
func newStat(unit string, vals ...float64) *stat {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return &stat{Unit: unit, Median: median(s), Q1: q1, Q3: q3, N: len(s), Values: vals}
}

// median of sorted values.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of sorted values, by the same "exclusive" method as Python's
// statistics.quantiles(values, n=4), which the benchmark's spread
// criterion is stated in.
func quartiles(s []float64) (q1, q3 float64) {
	if len(s) < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q(1), q(3)
}
