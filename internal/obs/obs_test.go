package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("Counter is not get-or-create")
	}
	h := r.Histogram("h")
	for _, v := range []int64{100, 300, 200, -50} {
		h.Observe(v)
	}
	s := r.Snapshot()
	hs := s.Histograms["h"]
	if hs.Count != 4 || hs.SumNS != 600 {
		t.Fatalf("hist count/sum = %d/%d, want 4/600", hs.Count, hs.SumNS)
	}
	if hs.MinNS != 0 || hs.MaxNS != 300 {
		t.Fatalf("hist min/max = %d/%d, want 0/300 (negative clamps to zero)", hs.MinNS, hs.MaxNS)
	}
	var bucketTotal int64
	for _, b := range hs.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != 4 {
		t.Fatalf("bucket counts sum to %d, want 4", bucketTotal)
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10}, {math.MaxInt64, 62}} {
		if got := bucketOf(tc.v); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

// Snapshot JSON must be deterministic: the -obs-out metrics file is
// diffed in CI.
func TestSnapshotJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"z", "a", "m"} {
		r.Counter(name).Inc()
		r.Histogram("h." + name).Observe(42)
	}
	var a, b bytes.Buffer
	if err := r.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two snapshots of an idle registry marshal differently")
	}
	var s Snapshot
	if err := json.Unmarshal(a.Bytes(), &s); err != nil {
		t.Fatalf("metrics JSON does not round-trip: %v", err)
	}
	if len(s.Counters) != 3 || len(s.Histograms) != 3 {
		t.Fatalf("round-tripped snapshot has %d counters / %d hists, want 3/3", len(s.Counters), len(s.Histograms))
	}
}

// Everything must be nil-safe: disarmed call sites record
// unconditionally.
func TestNilSafety(t *testing.T) {
	var o *Observer
	var r *Registry
	o.Registry().Counter("x").Inc()
	o.Registry().Histogram("x").Observe(1)
	r.Counter("x").Add(1)
	_ = r.Snapshot()
	ro := o.StartRun("bench", "cfg")
	if ro != nil {
		t.Fatal("nil observer must hand out a nil RunObs")
	}
	ro.Enter(PhaseFuncWarm)
	ro.SpanEnd("warm", ro.SpanStart())
	ro.SetSource("cold")
	if d := ro.Finish(); d != 0 {
		t.Fatalf("nil RunObs Finish = %v, want 0", d)
	}
	var tr *Tracer
	tr.span(0, "x", "y", 0, 1, nil)
	tr.release(tr.acquire())
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil tracer WriteJSON: %v", err)
	}
}

// Phase attribution is exclusive and exhaustive: the per-phase sums of
// one run partition its total wall time exactly.
func TestRunObsAttributionPartitionsWallTime(t *testing.T) {
	o := New()
	ro := o.StartRun("bench", "cfg")
	ro.Enter(PhaseFuncWarm)
	spin()
	prev := ro.Enter(PhaseTraceGen) // carve-out inside warming
	spin()
	ro.Enter(prev)
	spin()
	ro.Enter(PhaseTimedWindow)
	spin()
	total := ro.Finish()
	var attributed int64
	s := o.Registry().Snapshot()
	for name, h := range s.Histograms {
		if _, ok := cutPrefix(name, "engine.phase."); ok {
			attributed += h.SumNS
		}
	}
	if attributed != total.Nanoseconds() {
		t.Fatalf("phases sum to %dns, run total is %dns — attribution must be exact", attributed, total.Nanoseconds())
	}
	for _, phase := range []string{"func_warm", "trace_gen", "timed_window"} {
		if s.Histograms["engine.phase."+phase].SumNS == 0 {
			t.Errorf("phase %s recorded no time", phase)
		}
	}
	if got := s.Histograms["engine.phase.func_warm"].Count; got != 2 {
		t.Errorf("func_warm segments = %d, want 2 (split around the trace_gen carve-out)", got)
	}
	// Finish is idempotent.
	if d := ro.Finish(); d != 0 {
		t.Fatalf("second Finish = %v, want 0", d)
	}
}

func TestPhaseBreakdown(t *testing.T) {
	o := New()
	ro := o.StartRun("b", "c")
	ro.Enter(PhaseFuncWarm)
	spin()
	ro.Enter(PhaseTimedWindow)
	spin()
	total := ro.Finish()
	gotNS, share := o.Registry().Snapshot().PhaseBreakdown()
	if gotNS != total.Nanoseconds() {
		t.Fatalf("breakdown total %dns != run total %dns", gotNS, total.Nanoseconds())
	}
	var sum float64
	for _, f := range share {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("phase shares sum to %g, want 1", sum)
	}
}

// Concurrent recording through shared handles must be race-free (this
// test is meaningful under -race, which CI always uses).
func TestConcurrentRecording(t *testing.T) {
	o := New()
	c := o.Registry().Counter("c")
	h := o.Registry().Histogram("h")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ro := o.StartRun("bench", "cfg")
			ro.Enter(PhaseFuncWarm)
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
			ro.Enter(PhaseTimedWindow)
			ro.Finish()
		}()
	}
	wg.Wait()
	s := o.Registry().Snapshot()
	if s.Counters["c"] != 8000 {
		t.Fatalf("counter = %d, want 8000", s.Counters["c"])
	}
	if s.Histograms["h"].Count != 8000 {
		t.Fatalf("hist count = %d, want 8000", s.Histograms["h"].Count)
	}
}

// spin burns a little CPU so attributed segments are non-zero even on
// coarse clocks.
func spin() {
	x := 0
	for i := 0; i < 20000; i++ {
		x += i * i
	}
	_ = x
}
