package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call from the bench into a layer of the program. Spans
// are recorded in the bench's own code, around the call, and kept in memory
// until the run ends.
type span struct {
	ID     int
	Parent int // 0: a root
	Op     int // spans of one op (one job, one request) share it
	Lane   int // Perfetto row: spans of one lane never overlap except by nesting
	Layer  string
	Name   string
	Start  time.Duration // since the tracer was made
	End    time.Duration
	Rounds int // model rounds the span covered, where the program reports them
}

// tracer records spans. A nil tracer records nothing and costs nothing,
// which is how the untraced (end-to-end) run uses the same workload code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(layer, name string, parent, op, lane int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Lane: lane, Layer: layer, Name: name, Start: now, End: -1})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration { return t.endRounds(id, 0) }

// endRounds is end for a span known to have covered the given model rounds.
func (t *tracer) endRounds(id, rounds int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Rounds = now, rounds
	return s.End - s.Start
}

// record stores a span whose name was only known once it had ended (a
// request is a cache hit or a miss by its response).
func (t *tracer) record(layer, name string, parent, op, lane int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Lane: lane,
		Layer: layer, Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
}

// seconds returns the durations of the closed spans with the given name.
func (t *tracer) seconds(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(layer, name string, parent, op, lane int, fn func()) time.Duration {
	id := t.begin(layer, name, parent, op, lane)
	fn()
	return t.end(id)
}

// selfTimes returns each closed span's duration minus the part its child
// spans cover, by span id.
func (t *tracer) selfTimes() map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			self[s.ID] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if s.End >= 0 && s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as Chrome trace-event JSON at path.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		args := map[string]any{
			"id": s.ID, "parent": s.Parent, "op": s.Op,
			"self_us": float64(self[s.ID]) / float64(time.Microsecond),
		}
		if s.Rounds > 0 {
			args["rounds"] = s.Rounds
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Lane, Args: args,
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
