package core

import (
	"reflect"
	"sync"
	"testing"
)

// runnerStats reads r's counters and asserts the runner's conservation
// law: every request is either a fresh run or a cache hit, on every
// path (errors, memo hits, and checkpoint restores retried cold).
func runnerStats(t *testing.T, r *Runner) RunnerStats {
	t.Helper()
	s := r.Stats()
	if s.Requests != s.Runs+s.CacheHits {
		t.Fatalf("runner stats %+v break Requests == Runs + CacheHits", s)
	}
	return s
}

// TestMeasureIsBitReproducible pins the determinism contract the Runner
// is built on: the same (benchmark, options) measures to the exact same
// counters, because trace generation runs in lockstep with the
// simulator's deterministic pull order.
func TestMeasureIsBitReproducible(t *testing.T) {
	b, _ := FindBench("Data Serving")
	o := fastOptions()
	a, err := MeasureBench(b, o)
	if err != nil {
		t.Fatal(err)
	}
	c, err := MeasureBench(b, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("two runs of the same configuration differ:\n%+v\n%+v", a, c)
	}
}

// TestRunnerDeterministicAcrossWorkerCounts is the tentpole regression:
// the same seed produces identical aggregated figure rows whether the
// Runner uses one worker or eight, with fresh caches on both sides.
// Run under -race this also exercises the pool for data races.
func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	entries := FigureEntries()[:3]
	o := fastOptions()
	serialRows, err := NewRunner(1).Figure1(entries, o)
	if err != nil {
		t.Fatal(err)
	}
	parallelRows, err := NewRunner(8).Figure1(entries, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialRows, parallelRows) {
		t.Fatalf("worker count changed results:\nserial:   %+v\nparallel: %+v", serialRows, parallelRows)
	}
}

// TestSerialAndParallelFigure1Identical checks a serial Runner against
// a parallel one for Figure 1, then Figure 2's reuse of the cache.
func TestSerialAndParallelFigure1Identical(t *testing.T) {
	entries := ScaleOutEntries()[:2]
	o := fastOptions()
	serial, err := NewRunner(1).Figure1(entries, o)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(4)
	parallel, err := r.Figure1(entries, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("serial and parallel Figure1 differ:\n%+v\n%+v", serial, parallel)
	}
	// Figure 2 on the same runner reuses Figure 1's measurements: same
	// entries, same options, different aggregation.
	before := runnerStats(t, r)
	if _, err := r.Figure2(entries, o); err != nil {
		t.Fatal(err)
	}
	after := runnerStats(t, r)
	if after.Runs != before.Runs {
		t.Fatalf("Figure2 re-simulated cached configurations: %d -> %d runs", before.Runs, after.Runs)
	}
	if after.CacheHits <= before.CacheHits {
		t.Fatalf("Figure2 did not hit the cache: %+v -> %+v", before, after)
	}
}

// TestRunnerCacheHitAccounting checks the stats contract:
// Requests == Runs + CacheHits, duplicates within one batch run once,
// and repeated batches are served entirely from the memo.
func TestRunnerCacheHitAccounting(t *testing.T) {
	ws, _ := FindBench("Web Search")
	sat, _ := FindBench("SAT Solver")
	o := fastOptions()
	reqs := []MeasureRequest{
		{Bench: ws, Options: o},
		{Bench: ws, Options: o},
		{Bench: sat, Options: o},
		{Bench: ws, Options: o},
	}
	r := NewRunner(4)
	ms, err := r.MeasureAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	s := runnerStats(t, r)
	if s.Requests != 4 || s.Runs != 2 || s.CacheHits != 2 {
		t.Fatalf("stats after first batch = %+v, want 4 requests, 2 runs, 2 hits", s)
	}
	if !reflect.DeepEqual(ms[0], ms[1]) || !reflect.DeepEqual(ms[0], ms[3]) {
		t.Fatal("duplicate requests returned different measurements")
	}
	if ms[2].BenchName != "SAT Solver" || ms[0].BenchName != "Web Search" {
		t.Fatalf("results out of request order: %q, %q", ms[0].BenchName, ms[2].BenchName)
	}

	if _, err := r.MeasureAll(reqs); err != nil {
		t.Fatal(err)
	}
	s = runnerStats(t, r)
	if s.Requests != 8 || s.Runs != 2 || s.CacheHits != 6 {
		t.Fatalf("stats after second batch = %+v, want 8 requests, 2 runs, 6 hits", s)
	}
}

// TestRunnerCanonicalizesOptions checks that requests spelled with
// implicit defaults share a cache slot with their explicit form.
func TestRunnerCanonicalizesOptions(t *testing.T) {
	b, _ := FindBench("SAT Solver")
	implicit := Options{Seed: 1, WarmupInsts: 40_000, MeasureInsts: 15_000} // Cores defaults to 4
	explicit := implicit
	explicit.Cores = 4
	m := XeonX5670()
	explicit.Machine = &m // the default machine, spelled out

	r := NewRunner(2)
	if _, err := r.MeasureAll([]MeasureRequest{
		{Bench: b, Options: implicit},
		{Bench: b, Options: explicit},
	}); err != nil {
		t.Fatal(err)
	}
	if s := runnerStats(t, r); s.Runs != 1 || s.CacheHits != 1 {
		t.Fatalf("equivalent options did not share a cache slot: %+v", s)
	}
}

// TestRunnerErrorPropagation checks that a failing configuration
// surfaces its error and is accounted.
func TestRunnerErrorPropagation(t *testing.T) {
	b, _ := FindBench("Web Search")
	bad := fastOptions()
	bad.Cores = 6 // whole socket: no spare cores for polluters
	bad.PolluteBytes = 4 << 20
	r := NewRunner(2)
	if _, err := r.MeasureAll([]MeasureRequest{{Bench: b, Options: bad}}); err == nil {
		t.Fatal("expected error for polluters without spare cores")
	}
	if s := runnerStats(t, r); s.Errors != 1 {
		t.Fatalf("error not accounted: %+v", s)
	}
	// The failure is memoized like any result: retrying does not rerun.
	if _, err := r.MeasureAll([]MeasureRequest{{Bench: b, Options: bad}}); err == nil {
		t.Fatal("cached failure lost")
	}
	if s := runnerStats(t, r); s.Runs != 1 {
		t.Fatalf("failed configuration was re-simulated: %+v", s)
	}
}

// TestRunnerProgressEvents checks the progress callback: every request
// reports, Done reaches Total, and cache hits are flagged.
func TestRunnerProgressEvents(t *testing.T) {
	ws, _ := FindBench("Web Search")
	o := fastOptions()
	var mu sync.Mutex
	var events []ProgressEvent
	r := NewRunner(4)
	r.SetProgress(func(ev ProgressEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	reqs := []MeasureRequest{{Bench: ws, Options: o}, {Bench: ws, Options: o}}
	if _, err := r.MeasureAll(reqs); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d progress events, want 2", len(events))
	}
	sawCached := false
	for i, ev := range events {
		if ev.Total != 2 || ev.Bench != "Web Search" {
			t.Fatalf("bad event %+v", ev)
		}
		// Emission is serialized: Done arrives strictly in order, so the
		// final event is delivered last.
		if ev.Done != i+1 {
			t.Fatalf("event %d has Done=%d; emission not ordered: %+v", i, ev.Done, events)
		}
		if ev.Cached {
			sawCached = true
		}
	}
	if !sawCached {
		t.Fatal("duplicate request not reported as cached")
	}
}

// TestRunnerProgressSerializedAcrossCalls: with four MeasureAll calls
// in flight on one Runner, no two progress callbacks overlap, each
// call's Done values arrive in order, and a callback may call Stats
// without deadlocking. The requests fail validation, so every report
// comes at once and the calls contend for the callback.
func TestRunnerProgressSerializedAcrossCalls(t *testing.T) {
	ws, _ := FindBench("Web Search")
	bad := fastOptions()
	bad.Cores = -1
	const calls, perCall = 4, 64
	r := NewRunner(4)
	var inside, overlaps int
	last := map[int]int{} // call id (Total) -> last Done seen
	r.SetProgress(func(ev ProgressEvent) {
		if inside++; inside > 1 {
			overlaps++
		}
		r.Stats()
		if ev.Done <= last[ev.Total] {
			t.Errorf("call with %d requests: Done %d after %d", ev.Total, ev.Done, last[ev.Total])
		}
		last[ev.Total] = ev.Done
		inside--
	})
	var wg sync.WaitGroup
	for c := range calls {
		reqs := make([]MeasureRequest, perCall+c) // Total tells the calls apart
		for i := range reqs {
			reqs[i] = MeasureRequest{Bench: ws, Options: bad}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.MeasureAll(reqs); err == nil {
				t.Error("an invalid request measured without error")
			}
		}()
	}
	wg.Wait()
	if overlaps != 0 {
		t.Fatalf("%d progress callbacks ran while another was running", overlaps)
	}
	for c := range calls {
		if got := last[perCall+c]; got != perCall+c {
			t.Fatalf("call with %d requests delivered Done up to %d", perCall+c, got)
		}
	}
}

// TestRunnerValidateMatchesSerial checks the batched Validate against
// a serial Runner.
func TestRunnerValidateMatchesSerial(t *testing.T) {
	o := fastOptions()
	serial, err := NewRunner(1).Validate(o)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewRunner(6).Validate(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("Validate differs between serial and parallel runs:\n%+v\n%+v", serial, parallel)
	}
}

// TestRunnerFigure4SortedSeries pins the deterministic series order of
// the Figure-4 driver (sorted labels, independent of map iteration).
func TestRunnerFigure4SortedSeries(t *testing.T) {
	mcf, _ := FindBench("SPECint (mcf)")
	sat, _ := FindBench("SAT Solver")
	groups := map[string][]Entry{
		"zeta":  {{Label: "SAT Solver", Members: []Bench{sat}}},
		"alpha": {{Label: "SPECint (mcf)", Members: []Bench{mcf}}},
	}
	series, err := NewRunner(4).Figure4(groups, []int{8}, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[0].Label != "alpha" || series[1].Label != "zeta" {
		t.Fatalf("series not in sorted label order: %+v", series)
	}
}

// TestRunnerFigureDrivers runs the Figure 3, 5, 6 and 7 drivers on one
// scale-out entry and checks that each returns one row per entry and
// that every row obeys its figure's range law.
func TestRunnerFigureDrivers(t *testing.T) {
	entries := ScaleOutEntries()[0:1]
	o := fastOptions()
	frac := func(x float64) bool { return x >= 0 && x <= 1 }
	cases := []struct {
		name string
		run  func(*testing.T, *Runner)
	}{
		{"Figure3", func(t *testing.T, r *Runner) {
			rows, err := r.Figure3(entries, o)
			checkRows(t, rows, err, len(entries), func(x IPCMLPRow) bool { return x.SMTSpeedup > 0 })
		}},
		{"Figure5", func(t *testing.T, r *Runner) {
			rows, err := r.Figure5(entries, o)
			checkRows(t, rows, err, len(entries), func(x PrefetchRow) bool {
				return frac(x.Baseline) && frac(x.AdjacentDisabled) && frac(x.HWDisabled)
			})
		}},
		{"Figure6", func(t *testing.T, r *Runner) {
			rows, err := r.Figure6(entries, o)
			checkRows(t, rows, err, len(entries), func(x SharingRow) bool { return frac(x.App) && frac(x.OS) })
		}},
		{"Figure7", func(t *testing.T, r *Runner) {
			rows, err := r.Figure7(entries, o)
			checkRows(t, rows, err, len(entries), func(x BandwidthRow) bool { return frac(x.App + x.OS) })
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.run(t, NewRunner(2)) })
	}
}

// checkRows fails t unless a figure driver returned want rows without
// error and every row satisfies law.
func checkRows[R any](t *testing.T, rows []R, err error, want int, law func(R) bool) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != want {
		t.Fatalf("%d rows, want %d: %+v", len(rows), want, rows)
	}
	for _, x := range rows {
		if !law(x) {
			t.Errorf("row breaks its range law: %+v", x)
		}
	}
}

// TestRunnerSharedAcrossGoroutines checks the documented concurrent
// use: two goroutines submit the same batch to one single-worker
// Runner. Both complete with identical results and the stats law
// holds. Concurrent callers are not single-flighted, so each of the two
// keys runs once or twice: between 2 and 4 runs in all.
func TestRunnerSharedAcrossGoroutines(t *testing.T) {
	ws, _ := FindBench("Web Search")
	sat, _ := FindBench("SAT Solver")
	o := fastOptions()
	r := NewRunner(1)

	var wg sync.WaitGroup
	out := make([][]*Measurement, 2)
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out[g], errs[g] = r.MeasureAll([]MeasureRequest{
				{Bench: ws, Options: o},
				{Bench: sat, Options: o},
			})
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if !reflect.DeepEqual(out[0], out[1]) {
		t.Fatal("concurrent callers saw different results for identical batches")
	}
	if s := runnerStats(t, r); s.Requests != 4 || s.Requests != s.Runs+s.CacheHits || s.Runs < 2 || s.Runs > 4 {
		t.Fatalf("stats = %+v, want 4 requests = runs + hits, with 2 to 4 runs", s)
	}
}
