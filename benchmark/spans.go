package main

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// spanRecorder keeps the benchmark's own host-time spans in memory; the
// run writes them as Chrome trace JSON when it ends. The tree is
// workload pass -> world -> build/run/harvest/export, and every world
// span and its stage spans carry the world's id.
type spanRecorder struct {
	spans []hostSpan
}

// hostSpan is one span in wall-clock nanoseconds, so spans recorded by
// different pass processes share one timeline.
type hostSpan struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	World int    `json:"world"` // -1 for a pass span
	Label string `json:"label,omitempty"`
}

// world records one world and its stages. A nil recorder ignores it, so
// untraced passes pay one nil check per world.
func (s *spanRecorder) world(id int, label string, r worldResult) {
	if s == nil || r.start.IsZero() {
		return
	}
	at := r.start.UnixNano()
	s.spans = append(s.spans, hostSpan{Name: "world", Start: at, End: at + int64(r.stages.total()), World: id, Label: label})
	for st, d := range r.stages {
		s.spans = append(s.spans, hostSpan{Name: stageNames[st], Start: at, End: at + int64(d), World: id})
		at += int64(d)
	}
}

func (s *spanRecorder) pass(workload string, start, end time.Time) {
	s.spans = append(s.spans, hostSpan{Name: workload, Start: start.UnixNano(), End: end.UnixNano(), World: -1})
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as a Chrome trace-event JSON array, in
// microseconds since the earliest span.
func (s *spanRecorder) writeChrome(w io.Writer, workload string) error {
	var origin int64
	for i, sp := range s.spans {
		if i == 0 || sp.Start < origin {
			origin = sp.Start
		}
	}
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "benchmark " + workload}}}
	for _, sp := range s.spans {
		ev := chromeEvent{
			Name: sp.Name, Cat: "stage", Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(sp.Start-origin) / 1e3, Dur: float64(sp.End-sp.Start) / 1e3,
		}
		switch {
		case sp.World < 0:
			ev.Cat = "workload"
		case sp.Label != "":
			ev.Cat = "world"
			ev.Args = map[string]any{"world": sp.World, "inputs": sp.Label}
		default:
			ev.Args = map[string]any{"world": sp.World}
		}
		events = append(events, ev)
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(events); err != nil {
		return err
	}
	return bw.Flush()
}
