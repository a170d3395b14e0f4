package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cloudsuite/internal/core"
)

// TestMain lets the test binary serve as a workload child, the way the
// benchmark binary does when the smoke test spawns children.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecWorkloads checks BENCHMARK.json declares exactly the
// benchmark's workloads, in order.
func TestSpecWorkloads(t *testing.T) {
	spec := readSpec(t)
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestSmoke runs every workload for one pass at tiny budgets, untraced
// and traced, and checks each run emits exactly the metrics
// BENCHMARK.json declares for it, with their units.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, tc := range []struct {
		trace    string
		declared []metricSpec
	}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
		t.Run("trace="+tc.trace, func(t *testing.T) {
			t.Parallel()
			out := t.TempDir()
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-tiny", "-seconds", "0.001", "-trace", tc.trace, "-out", out}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var sum struct {
				Correct   bool                 `json:"correct"`
				Attempted int                  `json:"attempted"`
				Metrics   map[string]valueUnit `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
				t.Fatalf("last line is not the summary: %v", err)
			}
			if !sum.Correct || sum.Attempted == 0 {
				t.Errorf("summary: correct %v, attempted %d", sum.Correct, sum.Attempted)
			}
			want := map[string]string{}
			for _, w := range workloads() {
				for _, m := range tc.declared {
					want[w.name+"/"+m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				if got, ok := sum.Metrics[name]; !ok {
					t.Errorf("%s not emitted", name)
				} else if got.Unit != unit {
					t.Errorf("%s: unit %q, declared %q", name, got.Unit, unit)
				}
			}
			for name := range sum.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s emitted but not declared", name)
				}
			}
			if _, err := os.Stat(filepath.Join(out, "results.json")); err != nil {
				t.Error(err)
			}
			if _, err := os.Stat(filepath.Join(out, "spans.trace.json")); (err == nil) != (tc.trace == "1") {
				t.Errorf("spans.trace.json written: %v, traced: %s", err == nil, tc.trace)
			}
		})
	}
}

// TestDigestCheck flips one counter of a measurement and expects the
// golden comparison to fail; it also checks the truncation rule.
func TestDigestCheck(t *testing.T) {
	o := core.DefaultOptions()
	r := newRequest("Web Search", "base", o)
	m := &core.Measurement{BenchName: "Web Search", WindowCycles: 1000}
	m.CommitUser, m.L1DMiss = 4000, 17
	d, err := digest(m)
	if err != nil {
		t.Fatal(err)
	}
	v := verifier{golden: map[string]string{r.label: d}, seen: map[string]string{}}
	if why := v.check(r, m); why != "" {
		t.Fatalf("unchanged measurement rejected: %s", why)
	}
	flipped := *m
	flipped.L1DMiss++
	if why := (&verifier{golden: v.golden, seen: map[string]string{}}).check(r, &flipped); !strings.Contains(why, "golden") {
		t.Errorf("one flipped counter passed the golden check (%q)", why)
	}
	if why := v.check(r, &flipped); !strings.Contains(why, "between passes") {
		t.Errorf("a measurement that changed between passes passed (%q)", why)
	}
	capped := *m
	capped.WindowCycles = o.MeasureInsts*int64(o.Cores)*40 + 1
	if !truncated(o, &capped) || truncated(o, m) {
		t.Error("truncation rule: a window past MaxCycles must count, one within it must not")
	}
}

// TestEndToEndScaling checks that a run's timings are scaled by calibRef
// ÷ its median calibration, and its throughput by the inverse.
func TestEndToEndScaling(t *testing.T) {
	c := &child{res: result{Metrics: map[string]*stat{}}}
	m := &core.Measurement{}
	m.CommitUser = 1000
	ps := []passResult{{wall: 2 * time.Second, durs: []float64{0.5, 1.5, 0.25}, ms: []*core.Measurement{m}}}
	c.endToEnd(ps, []float64{2 * calibRef, 2 * calibRef, 1}) // the host ran at half speed
	if c.res.HostSpeed != 0.5 {
		t.Errorf("host speed %v, want 0.5", c.res.HostSpeed)
	}
	for name, want := range map[string]float64{
		"wall_s": 1, "measure_s.p50": 0.25, "measure_s.max": 0.75, "sim_insts_per_s": 1000,
	} {
		if got := c.res.Metrics[name].Median; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestQuartiles matches Python's statistics.quantiles(range(1, 11), n=4)
// = [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	s := newStat("s", 10, 9, 8, 7, 6, 5, 4, 3, 2, 1)
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("got q1 %v median %v q3 %v n %d", s.Q1, s.Median, s.Q3, s.N)
	}
}

func TestVerdict(t *testing.T) {
	tight := newStat("s", 9.9, 10, 10.1)
	wide := newStat("s", 7, 10, 13)
	for _, tc := range []struct {
		name         string
		higherBetter bool
		base, cur    *stat
		want         string
	}{
		{"within bound", false, tight, newStat("s", 10.4, 10.5, 10.6), "same"},
		{"slower past bound", false, tight, newStat("s", 11.5, 11.6, 11.7), "worse"},
		{"faster past bound", false, tight, newStat("s", 8, 8.1, 8.2), "better"},
		{"higher is better", true, tight, newStat("1/s", 8, 8.1, 8.2), "worse"},
		{"wide base, overlapping", false, wide, newStat("s", 12, 12.5, 13), "unresolved"},
		{"wide base, all slower", false, wide, newStat("s", 14, 15, 16), "worse"},
		{"wide base, all faster", false, wide, newStat("s", 5, 5.5, 6), "better"},
	} {
		if got := verdict(tc.higherBetter, 0.1, tc.base, tc.cur); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompare runs -compare on two results files and expects a worse
// row to fail the comparison.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall ...float64) string {
		path := filepath.Join(dir, name)
		doc := results{Workloads: map[string]*result{"check-contig": {Metrics: map[string]*stat{"wall_s": newStat("s", wall...)}}}}
		if err := writeJSON(path, doc); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 2, 2.01, 2.02)
	t.Chdir("..") // -compare reads BENCHMARK.json from the repository root
	for _, tc := range []struct {
		cur  []float64
		code int
		want string
	}{{[]float64{2.01, 2.02, 2.03}, 0, "same"}, {[]float64{2.5, 2.6, 2.7}, 1, "worse"}} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-compare", base, write("cur.json", tc.cur...)}, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("exit %d, want %d with %q:\n%s%s", code, tc.code, tc.want, stdout.String(), stderr.String())
		}
	}
}
