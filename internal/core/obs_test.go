package core

import (
	"sync"
	"testing"

	"cloudsuite/internal/obs"
)

// This file gates the observer contract of the observability layer:
// arming metrics, tracing, and phase attribution must leave every
// measurement byte-identical — the same differential standard the
// checkpoint harness (checkpoint_test.go) holds warm images to. The
// comparison is on the serialized measurement, so any counter an
// observer perturbs fails the harness.

// obsReqs builds one request per scale-out workload.
func obsReqs(o Options) []MeasureRequest {
	benches := ScaleOut()
	reqs := make([]MeasureRequest, len(benches))
	for i, b := range benches {
		reqs[i] = MeasureRequest{Bench: b, Options: o}
	}
	return reqs
}

// measureJSON runs reqs through r and serializes each result.
func measureJSON(t *testing.T, r *Runner, reqs []MeasureRequest) []string {
	t.Helper()
	ms, err := r.MeasureAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = mustJSON(t, m)
	}
	return out
}

func compareJSON(t *testing.T, mode string, want, got []string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: measurement %d differs from unarmed baseline\nunarmed = %s\narmed   = %s",
				mode, i, want[i], got[i])
		}
	}
}

// TestObsArmedVsUnarmedByteIdentity is the pure-observer gate: every
// scale-out workload, measured serial, parallel, sampled, and restored
// from a warm checkpoint, produces byte-identical results with the
// observability layer armed.
func TestObsArmedVsUnarmedByteIdentity(t *testing.T) {
	contiguous := diffOptions(1, false)
	sampled := diffOptions(1, true)

	// Unarmed baselines (serial; worker count never changes results).
	wantContig := measureJSON(t, NewRunner(1), obsReqs(contiguous))
	wantSampled := measureJSON(t, NewRunner(1), obsReqs(sampled))

	// Armed, serial.
	serial := NewRunner(1)
	serial.SetObserver(obs.New())
	compareJSON(t, "armed serial", wantContig, measureJSON(t, serial, obsReqs(contiguous)))

	// Armed, parallel.
	par := NewRunner(4)
	par.SetObserver(obs.New())
	compareJSON(t, "armed parallel", wantContig, measureJSON(t, par, obsReqs(contiguous)))

	// Armed, sampled.
	samp := NewRunner(2)
	samp.SetObserver(obs.New())
	compareJSON(t, "armed sampled", wantSampled, measureJSON(t, samp, obsReqs(sampled)))

	// Armed, restored from checkpoint: one armed runner populates the
	// store (cold runs, compared too), a second armed runner forks every
	// run from the cached warm images.
	store, err := NewCheckpointStore("")
	if err != nil {
		t.Fatal(err)
	}
	warm := NewRunner(2)
	warm.SetObserver(obs.New())
	warm.SetCheckpoints(store)
	compareJSON(t, "armed checkpoint-save", wantContig, measureJSON(t, warm, obsReqs(contiguous)))
	restored := NewRunner(2)
	obGot := obs.New()
	restored.SetObserver(obGot)
	restored.SetCheckpoints(store)
	compareJSON(t, "armed checkpoint-fork", wantContig, measureJSON(t, restored, obsReqs(contiguous)))

	// The restored sweep must actually have exercised the fork path and
	// recorded it: warm-source metrics and restore phases are non-zero.
	s := obGot.Registry().Snapshot()
	n := int64(len(ScaleOut()))
	if got := s.Counters["runner.runs.checkpoint_fork"]; got != n {
		t.Fatalf("runner.runs.checkpoint_fork = %d, want %d", got, n)
	}
	if s.Histograms["engine.phase.ckpt_restore"].SumNS == 0 {
		t.Fatal("armed restored runs recorded no ckpt_restore time")
	}
	if s.Counters["ckpt.hits.memory"] != n {
		t.Fatalf("ckpt.hits.memory = %d, want %d", s.Counters["ckpt.hits.memory"], n)
	}

	// The plain armed sweep recorded a sane accounting: every request
	// was a cold fresh run and phase time was attributed.
	s = par.Observer().Registry().Snapshot()
	if got := s.Counters["runner.requests"]; got != n {
		t.Fatalf("runner.requests = %d, want %d", got, n)
	}
	if got := s.Counters["runner.runs.cold"]; got != n {
		t.Fatalf("runner.runs.cold = %d, want %d", got, n)
	}
	totalNS, _ := s.PhaseBreakdown()
	if totalNS <= 0 {
		t.Fatal("armed sweep attributed no phase time")
	}
	wall := s.Histograms["runner.measure_wall"]
	if wall.Count != n || wall.SumNS < totalNS {
		t.Fatalf("runner.measure_wall count=%d sum=%dns must cover the %dns phase total",
			wall.Count, wall.SumNS, totalNS)
	}
}

// TestObsProgressProvenance checks the extended progress events: fresh
// runs report their warm source and duration, memoized requests report
// "memo".
func TestObsProgressProvenance(t *testing.T) {
	b, _ := FindBench("Web Search")
	o := diffOptions(1, false)
	r := NewRunner(1)
	var events []ProgressEvent
	r.SetProgress(func(ev ProgressEvent) { events = append(events, ev) })
	reqs := []MeasureRequest{
		{Bench: b, Options: o},
		{Bench: b, Options: o}, // duplicate: memo hit
	}
	if _, err := r.MeasureAll(reqs); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d progress events, want 2", len(events))
	}
	if events[0].Source != "cold" || events[0].Cached {
		t.Fatalf("fresh run event = %+v, want source cold", events[0])
	}
	if events[1].Source != "memo" || !events[1].Cached {
		t.Fatalf("duplicate event = %+v, want source memo", events[1])
	}
	for i, ev := range events {
		if ev.Duration <= 0 {
			t.Fatalf("event %d has no duration: %+v", i, ev)
		}
	}
}

// TestRunnerStatsConsistentUnderLoad hammers Stats() while a parallel
// MeasureAll with duplicates is in flight: every snapshot must satisfy
// Requests == Runs + CacheHits exactly and never go backwards. (The
// invariant is only guaranteed because every stats transition is a
// single critical section; meaningful under -race, which CI uses.)
func TestRunnerStatsConsistentUnderLoad(t *testing.T) {
	o := diffOptions(1, false)
	o.WarmupInsts, o.MeasureInsts = 10_000, 2_000
	var reqs []MeasureRequest
	for i := 0; i < 3; i++ { // duplicates drive the CacheHits path
		for _, b := range ScaleOut() {
			reqs = append(reqs, MeasureRequest{Bench: b, Options: o})
		}
	}
	r := NewRunner(4)
	r.SetObserver(obs.New()) // metric recording under the same load

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev RunnerStats
		for {
			s := r.Stats()
			if s.Requests != s.Runs+s.CacheHits {
				t.Errorf("torn stats snapshot: Requests=%d != Runs=%d + CacheHits=%d",
					s.Requests, s.Runs, s.CacheHits)
				return
			}
			if s.Requests < prev.Requests || s.Runs < prev.Runs ||
				s.CacheHits < prev.CacheHits || s.MeasuredInsts < prev.MeasuredInsts {
				t.Errorf("stats went backwards: %+v after %+v", s, prev)
				return
			}
			prev = s
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	_, err := r.MeasureAll(reqs)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	s := runnerStats(t, r)
	uniq := int64(len(ScaleOut()))
	if s.Requests != int64(len(reqs)) || s.Runs != uniq || s.CacheHits != int64(len(reqs))-uniq {
		t.Fatalf("final stats %+v, want %d requests = %d runs + %d hits",
			s, len(reqs), uniq, int64(len(reqs))-uniq)
	}
}
