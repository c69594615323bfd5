// Coordinator-side observability state: the per-worker span streams of a
// traced job and the flight-recorder log backing -flight-dump.

package dist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"kmgraph/internal/core"
	"kmgraph/internal/transport"
)

// maxTraceSpansPerWorker bounds one worker's accumulated span stream
// (phase counts are O(log n); the cap only guards a runaway engine).
const maxTraceSpansPerWorker = 1 << 16

// spanLog collects the phase spans the workers of one traced job stream
// back on their control connections. Each run resets it, so after a
// recovered run it holds the clean replay's spans. A nil *spanLog is an
// untraced job: the spec carries no trace ID and workers record nothing.
type spanLog struct {
	// phase, when non-nil, sees the phase boundaries of the lowest
	// worker's spans as they arrive (every worker crosses the same phase
	// boundaries at the same rounds, so one stream is the job's progress).
	// It runs on that worker's gather goroutine.
	phase core.PhaseFunc

	mu      sync.Mutex
	workers []transport.WorkerSpans
}

// reset starts a fresh run: one empty span stream per worker.
func (t *spanLog) reset(ranges [][2]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.workers = make([]transport.WorkerSpans, len(ranges))
	for i, r := range ranges {
		t.workers[i] = transport.WorkerSpans{Index: i, Lo: r[0], Hi: r[1]}
	}
}

// add appends one worker's span batch (heartbeat or result tail).
func (t *spanLog) add(idx int, spans []transport.PhaseSpan) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	w := &t.workers[idx]
	if room := maxTraceSpansPerWorker - len(w.Spans); room < len(spans) {
		spans = spans[:max(room, 0)]
	}
	w.Spans = append(w.Spans, spans...)
	t.mu.Unlock()
	if idx == 0 && t.phase != nil {
		for _, s := range spans {
			if s.Phase >= 0 {
				t.phase(s.Phase, s.EndRound, 0, 0)
			}
		}
	}
}

// streams returns the per-worker span streams of the last run. Each
// is in time order: a worker's frames have one writer at a time and carry
// spans popped from one queue.
func (t *spanLog) streams() []transport.WorkerSpans {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.workers
}

// FlightLog is the coordinator's post-mortem state for one distributed
// run: a flight recorder per control link (every frame a worker sends
// is one "round" of that link) and any remote snapshot a worker's
// error frame carried. Hand one to CoordOptions.Flight; after a failed
// run, Dump writes one JSON file per populated side for -flight-dump.
type FlightLog struct {
	mu      sync.Mutex
	control map[int]*transport.FlightRecorder
	remote  map[int][]transport.RoundFlight
}

// reset starts a fresh residency (every one opens with it).
func (l *FlightLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.control = make(map[int]*transport.FlightRecorder)
	l.remote = make(map[int][]transport.RoundFlight)
}

// recorder returns (creating if needed) worker idx's control-link
// recorder.
func (l *FlightLog) recorder(idx int) *transport.FlightRecorder {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.control[idx]
	if !ok {
		r = transport.NewFlightRecorder(0)
		l.control[idx] = r
	}
	return r
}

// setRemote stores the flight snapshot worker idx's error frame carried.
func (l *FlightLog) setRemote(idx int, fl []transport.RoundFlight) {
	if len(fl) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.remote[idx] = fl
}

// FlightDump is the JSON schema of one -flight-dump file.
type FlightDump struct {
	// Side is "coordinator" (our view of the worker's control link) or
	// "worker" (the snapshot the worker's error frame carried — its
	// engine's view of its peer links).
	Side   string                  `json:"side"`
	Worker int                     `json:"worker"`
	Rounds []transport.RoundFlight `json:"rounds"`
}

// Dump writes the log as JSON files under dir (created if needed):
// coordinator-worker-<i>.json for each control link and
// remote-worker-<i>.json for each worker-reported snapshot.
func (l *FlightLog) Dump(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	type entry struct {
		name string
		d    FlightDump
	}
	var entries []entry
	for idx, r := range l.control {
		//kmvet:ignore each dump writes its own idx-keyed file; write order immaterial
		entries = append(entries, entry{
			name: fmt.Sprintf("coordinator-worker-%d.json", idx),
			d:    FlightDump{Side: "coordinator", Worker: idx, Rounds: r.Snapshot()},
		})
	}
	for idx, fl := range l.remote {
		//kmvet:ignore each dump writes its own idx-keyed file; write order immaterial
		entries = append(entries, entry{
			name: fmt.Sprintf("remote-worker-%d.json", idx),
			d:    FlightDump{Side: "worker", Worker: idx, Rounds: fl},
		})
	}
	l.mu.Unlock()
	for _, e := range entries {
		b, err := json.MarshalIndent(e.d, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, e.name), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
