package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"
)

// schemaEvent mirrors the trace_event fields the viewers require; the
// validation here is the same shape the CI obs job asserts with jq.
type schemaEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   *float64       `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  *int           `json:"pid"`
	TID  *int           `json:"tid"`
	Args map[string]any `json:"args"`
}

func TestTraceJSONSchema(t *testing.T) {
	o := New()
	ro := o.StartRun("Web Search", "cores=4")
	ro.Enter(PhaseFuncWarm)
	st := ro.SpanStart()
	time.Sleep(time.Millisecond)
	ro.SpanEnd("warm", st)
	ro.Enter(PhaseTimedWindow)
	ro.SetSource("cold")
	ro.Finish()

	var buf bytes.Buffer
	if err := o.Tracer().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []schemaEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	var spans, meta int
	var sawRun, sawWarm, sawThreadName bool
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ph == "" || ev.PID == nil {
			t.Fatalf("event %d missing required fields: %+v", i, ev)
		}
		switch ev.Ph {
		case "X":
			spans++
			if ev.TS == nil || ev.TID == nil {
				t.Fatalf("X event %d missing ts/tid: %+v", i, ev)
			}
			if ev.Dur < 0 {
				t.Fatalf("X event %d has negative duration", i)
			}
			if ev.Name == "Web Search" {
				sawRun = true
				if ev.Args["config"] != "cores=4" || ev.Args["source"] != "cold" {
					t.Fatalf("run span args = %v, want config and source", ev.Args)
				}
			}
			if ev.Name == "warm" {
				sawWarm = true
			}
		case "M":
			meta++
			if ev.Name == "thread_name" {
				sawThreadName = true
			}
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if spans < 2 || !sawRun || !sawWarm {
		t.Fatalf("expected run + warm spans, got %d spans (run=%t warm=%t)", spans, sawRun, sawWarm)
	}
	if meta < 2 || !sawThreadName {
		t.Fatalf("expected process_name + thread_name metadata, got %d", meta)
	}
}

// Concurrent runs get distinct tracks; released tracks are reused so a
// sweep renders one lane per worker slot, not one per run.
func TestTracerTrackPool(t *testing.T) {
	o := New()
	a := o.StartRun("a", "")
	b := o.StartRun("b", "")
	if a.track == b.track {
		t.Fatal("concurrent runs share a track")
	}
	aTrack := a.track
	a.Finish()
	c := o.StartRun("c", "")
	if c.track != aTrack {
		t.Fatalf("released track %d not reused (got %d)", aTrack, c.track)
	}
	b.Finish()
	c.Finish()
}

func TestServe(t *testing.T) {
	o := New()
	o.Registry().Counter("served").Add(9)
	addr, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) []byte {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	var s Snapshot
	if err := json.Unmarshal(get("/metrics"), &s); err != nil {
		t.Fatalf("/metrics is not a Snapshot: %v", err)
	}
	if s.Counters["served"] != 9 {
		t.Fatalf("/metrics counter = %d, want 9", s.Counters["served"])
	}
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Fatal("/debug/pprof/cmdline returned nothing")
	}
	// Heap statistics come from the pprof heap profile, not a second
	// metrics endpoint.
	if body := get("/debug/pprof/heap?debug=1"); !bytes.Contains(body, []byte("# HeapAlloc = ")) {
		t.Fatal("/debug/pprof/heap?debug=1 reports no heap statistics")
	}
}
