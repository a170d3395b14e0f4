package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"cloudsuite/internal/core"
)

// traceEvent is one Chrome trace_event record; times are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// spanRec keeps a traced run's spans in memory: one per pass, one per
// request and one per layer probe, all recorded from the benchmark's
// side of the calls. Passes and probes share lane 0; requests take the
// first lane free at their start.
type spanRec struct {
	epoch   time.Time
	events  []traceEvent
	laneEnd []float64 // end of the last request span on lanes 1, 2, ...
}

func newSpanRec() *spanRec { return &spanRec{epoch: time.Now()} }

func (s *spanRec) add(name, cat string, start time.Time, dur time.Duration, tid int, args map[string]any) {
	s.events = append(s.events, traceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS:  float64(start.Sub(s.epoch).Nanoseconds()) / 1e3,
		Dur: float64(dur.Nanoseconds()) / 1e3,
		TID: tid, Args: args,
	})
}

// pass records the span of pass id.
func (s *spanRec) pass(id int, start time.Time, wall time.Duration) {
	s.add(passName(id), "pass", start, wall, 0, map[string]any{"id": id})
}

// request records one request of pass id from its progress event: the
// span ends when the callback ran and starts Duration earlier.
func (s *spanRec) request(id int, ev core.ProgressEvent, end time.Time) {
	start := end.Add(-ev.Duration)
	ts := float64(start.Sub(s.epoch).Nanoseconds()) / 1e3
	lane := 0
	for lane < len(s.laneEnd) && s.laneEnd[lane] > ts {
		lane++
	}
	if lane == len(s.laneEnd) {
		s.laneEnd = append(s.laneEnd, 0)
	}
	s.laneEnd[lane] = float64(end.Sub(s.epoch).Nanoseconds()) / 1e3
	s.add(ev.Bench, "request", start, ev.Duration, lane+1,
		map[string]any{"id": id, "parent": passName(id), "source": ev.Source})
}

// probe times f and records its span.
func (s *spanRec) probe(name string, f func()) {
	start := time.Now()
	f()
	s.add(name, "probe", start, time.Since(start), 0, nil)
}

func passName(id int) string { return fmt.Sprintf("pass %d", id) }

// writeSpans writes every workload's spans as one trace, a process per
// workload.
func writeSpans(path string, names []string, spans [][]traceEvent) error {
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	for i, name := range names {
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: "process_name", Ph: "M", PID: i + 1, Args: map[string]any{"name": name},
		})
		for _, ev := range spans[i] {
			ev.PID = i + 1
			doc.TraceEvents = append(doc.TraceEvents, ev)
		}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
