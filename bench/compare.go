package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json, the benchmark's declaration,
// that the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec declares one metric. Bound, for an end-to-end metric, is
// the share of the base median by which it may worsen.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	return nil
}

// runCompare prints, for every workload and metric two results files
// share, the base and new medians and a verdict, and exits non-zero if
// any metric got worse by more than its bound.
func runCompare(basePath, newPath string, stdout, stderr io.Writer) int {
	var spec benchSpec
	var base, cur results
	for _, f := range []struct {
		path string
		v    any
	}{{"BENCHMARK.json", &spec}, {basePath, &base}, {newPath, &cur}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 1
		}
	}
	specs := map[string]metricSpec{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		specs[m.Name] = m
	}
	worse := false
	fmt.Fprintf(stdout, "%-24s %-34s %14s %14s %9s  %s\n", "workload", "metric", "base", "new", "change", "verdict")
	for _, wname := range sortedKeys(base.Workloads) {
		cw := cur.Workloads[wname]
		if cw == nil {
			continue
		}
		for _, name := range sortedKeys(base.Workloads[wname].Metrics) {
			b, c := base.Workloads[wname].Metrics[name], cw.Metrics[name]
			if c == nil {
				continue
			}
			v := "-"
			if ms, ok := specs[name]; ok && ms.Bound != nil {
				v = verdict(ms.Better == "higher", *ms.Bound, b, c)
			}
			worse = worse || v == "worse"
			fmt.Fprintf(stdout, "%-24s %-34s %14s %14s %+8.1f%%  %s\n", wname, name,
				strconv.FormatFloat(b.Median, 'g', 6, 64), strconv.FormatFloat(c.Median, 'g', 6, 64),
				100*relChange(b.Median, c.Median), v)
		}
	}
	if worse {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func relChange(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / math.Abs(base)
}

// verdict judges cur against base for a metric that may worsen by bound
// (a share of base's median):
//
//   - unresolved: base's interquartile spread is wider than the bound
//     and the two runs' samples overlap;
//   - worse: cur's median is worse by more than the bound, or, under a
//     wide spread, every cur sample is worse than every base sample;
//   - better: the same tests the other way;
//   - same: otherwise.
func verdict(higherBetter bool, bound float64, base, cur *stat) string {
	worse := relChange(base.Median, cur.Median) // > 0 is worse
	if higherBetter {
		worse = -worse
	}
	spread := relChange(base.Median, base.Q3) - relChange(base.Median, base.Q1)
	if spread > bound {
		lo, hi := slices.Min(base.Values), slices.Max(base.Values)
		curLo, curHi := slices.Min(cur.Values), slices.Max(cur.Values)
		below, above := curHi < lo, curLo > hi
		switch {
		case below && higherBetter, above && !higherBetter:
			return "worse"
		case below, above:
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "worse"
	case -worse > bound:
		return "better"
	}
	return "same"
}
