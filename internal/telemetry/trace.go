package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"kmgraph/internal/kmachine"
	"kmgraph/internal/resident"
	"kmgraph/internal/transport"
)

// TraceEvent is one Chrome trace-event (the JSON schema Perfetto and
// chrome://tracing load). Ts and Dur are microseconds since the
// tracer's epoch.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace is a complete trace document (JSON object form, the variant
// that allows metadata alongside the event array).
type Trace struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// JobTracer turns a Cluster's Observer events into a Chrome trace: each
// job becomes a "job" span enclosing one "phase" span per merge phase
// plus a trailing "sync" span (the work between the last phase boundary
// and job completion — certificate sync, result collection), all on the
// pid of the engine that took the job (localPid). A job that ran on a
// worker fleet additionally renders each worker's own span stream — its
// clock, its wire frames and bytes, its barrier waits — on one pid per
// worker (WorkerPid).
//
// Round accounting telescopes exactly on every pid: phase i's rounds are
// the round counter delta since the previous event, the sync span covers
// the remainder, so the per-span round totals of a job sum to precisely
// the job's metered Metrics.Rounds. When the engine runs with
// PhaseMetrics, local spans are additionally annotated with per-phase
// message and payload deltas and the cumulative max-link-bits skew.
//
// A JobTracer is safe for concurrent use (Observer callbacks arrive on
// engine goroutines while Snapshot/WriteTo run on servers') and is
// attached via WithObserver / Config.Observer.
type JobTracer struct {
	mu        sync.Mutex
	epoch     time.Time
	meta      []TraceEvent // process/thread names, one pair per pid seen
	workers   int          // fleet workers 0..workers-1 are named in meta
	events    []TraceEvent
	jobs      map[int]*traceJob
	maxEvents int
	dropped   int
}

// localPid is the trace process of the engine that takes the jobs: a
// resident engine, or the coordinator of a fleet.
const localPid = 1

// WorkerPid returns the trace process fleet worker i renders on.
func WorkerPid(i int) int { return 100 + i }

// traceJob is the open-span state of one in-flight job.
type traceJob struct {
	name       string
	start      time.Time
	startRound int
	lastT      time.Time
	lastRound  int
	lastSnap   *kmachine.Metrics
	phases     int
}

// NewJobTracer returns a tracer whose time origin is now.
func NewJobTracer() *JobTracer {
	t := &JobTracer{
		epoch: time.Now(),
		jobs:  make(map[int]*traceJob),
	}
	t.name(localPid, "kmgraph", "engine")
	return t
}

// name records a pid's process and thread names.
func (t *JobTracer) name(pid int, process, thread string) {
	t.meta = append(t.meta,
		TraceEvent{Name: "process_name", Ph: "M", Pid: pid, Tid: 1,
			Args: map[string]any{"name": process}},
		TraceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: 1,
			Args: map[string]any{"name": thread}},
	)
}

// span appends one phase span — the trailing sync span when phase < 0 —
// of the local engine or of a fleet worker: the one place a phase is
// rendered, so every pid's spans carry the same name, category and round
// accounting and differ only in the annotations their source can supply.
func (t *JobTracer) span(pid, phase int, ts, dur float64, rounds, round int, args map[string]any) {
	name := "sync"
	if phase >= 0 {
		name = fmt.Sprintf("phase %d", phase)
		args["phase"] = phase
	}
	args["rounds"], args["round"] = rounds, round
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: "phase", Ph: "X", Ts: ts, Dur: dur, Pid: pid, Tid: 1, Args: args,
	})
}

// SetMaxEvents bounds the retained event buffer: when a completed job
// pushes the buffer past n, the oldest job spans are discarded (the
// serving layer uses this so a long-lived tenant's tracer holds the
// recent jobs, not the whole session).
func (t *JobTracer) SetMaxEvents(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.maxEvents = n
}

// us converts an absolute time to trace microseconds.
func (t *JobTracer) us(at time.Time) float64 {
	return float64(at.Sub(t.epoch).Nanoseconds()) / 1e3
}

// Observer returns the callback to register with the engine
// (resident.Config.Observer / kmgraph.WithObserver).
func (t *JobTracer) Observer() func(resident.Event) {
	return t.observe
}

func (t *JobTracer) observe(ev resident.Event) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case ev.Phase < 0 && !ev.Done:
		t.jobs[ev.Seq] = &traceJob{
			name:       ev.Job,
			start:      now,
			startRound: ev.Round,
			lastT:      now,
			lastRound:  ev.Round,
			lastSnap:   ev.Snap,
		}

	case ev.Phase >= 0:
		j := t.open(ev, now)
		args := map[string]any{"active": ev.Active, "failures": ev.Failures}
		t.annotate(args, j.lastSnap, ev.Snap)
		t.span(localPid, ev.Phase, t.us(j.lastT), t.us(now)-t.us(j.lastT), ev.Round-j.lastRound, ev.Round, args)
		j.lastT = now
		j.lastRound = ev.Round
		if ev.Snap != nil {
			j.lastSnap = ev.Snap
		}
		j.phases++

	case ev.Done:
		j := t.open(ev, now)
		if j.phases > 0 {
			// The remainder between the last phase boundary and job
			// completion (certificate sync, final collectives). Always
			// emitted — even 0-round — so span rounds telescope exactly
			// to the job's metered total.
			args := map[string]any{}
			t.annotate(args, j.lastSnap, ev.Snap)
			t.span(localPid, -1, t.us(j.lastT), t.us(now)-t.us(j.lastT), ev.Round-j.lastRound, ev.Round, args)
		}
		for _, w := range ev.Workers {
			t.workerSpans(j, w)
		}
		rounds := ev.Round - j.startRound
		args := map[string]any{
			"seq":    ev.Seq,
			"rounds": rounds,
			"phases": j.phases,
		}
		if ev.Delta != nil {
			args["rounds"] = ev.Delta.Rounds
			args["messages"] = ev.Delta.Messages
			args["payload_bytes"] = ev.Delta.PayloadBytes
		}
		if ev.Snap != nil {
			args["max_link_bits"] = ev.Snap.MaxLinkBits
			if mean := ev.Snap.MeanLinkBits(); mean > 0 {
				args["link_skew"] = float64(ev.Snap.MaxLinkBits) / mean
			}
		}
		if ev.Err != "" {
			args["err"] = ev.Err
		}
		t.events = append(t.events, TraceEvent{
			Name: fmt.Sprintf("%s #%d", ev.Job, ev.Seq), Cat: "job", Ph: "X",
			Ts: t.us(j.start), Dur: t.us(now) - t.us(j.start),
			Pid: localPid, Tid: 1, Args: args,
		})
		delete(t.jobs, ev.Seq)
		t.trim()
	}
}

// workerSpans renders one fleet worker's span stream on its own pid. A
// worker's clock starts when its engine range does and is not
// synchronized with anyone's, so its timeline is laid from the job's
// start: within-worker durations and cross-worker phase alignment are
// meaningful — what straggler attribution needs — absolute offsets are
// not. Rounds are the worker's own count, from 0 at job start.
func (t *JobTracer) workerSpans(j *traceJob, w transport.WorkerSpans) {
	pid := WorkerPid(w.Index)
	if w.Index >= t.workers { // streams arrive in index order
		t.workers = w.Index + 1
		t.name(pid, fmt.Sprintf("worker %d [%d,%d)", w.Index, w.Lo, w.Hi), "engine range")
	}
	for _, s := range w.Spans {
		t.span(pid, s.Phase, t.us(j.start)+float64(s.StartUs), float64(s.DurUs), s.Rounds(), s.EndRound,
			map[string]any{
				"frames":          s.Frames,
				"bytes":           s.Bytes,
				"barrier_wait_ms": float64(s.WaitNs) / 1e6,
			})
	}
}

// open returns the in-flight record for the event's job, synthesizing
// one when the tracer was attached mid-job (or, for the load job, when
// there is no start event at all: the load span then starts at the
// tracer's epoch with round origin 0, which is exact — the session
// round counter starts at 0).
func (t *JobTracer) open(ev resident.Event, now time.Time) *traceJob {
	if j, ok := t.jobs[ev.Seq]; ok {
		return j
	}
	start := now
	startRound := ev.Round
	if ev.Job == "load" {
		start = t.epoch
		startRound = 0
	}
	j := &traceJob{name: ev.Job, start: start, startRound: startRound,
		lastT: start, lastRound: startRound}
	t.jobs[ev.Seq] = j
	return j
}

// annotate adds PhaseMetrics-derived deltas to a span's args.
func (t *JobTracer) annotate(args map[string]any, prev, cur *kmachine.Metrics) {
	if cur == nil {
		return
	}
	if prev != nil {
		args["messages"] = cur.Messages - prev.Messages
		args["payload_bytes"] = cur.PayloadBytes - prev.PayloadBytes
	}
	args["max_link_bits"] = cur.MaxLinkBits
	if mean := cur.MeanLinkBits(); mean > 0 {
		args["link_skew"] = float64(cur.MaxLinkBits) / mean
	}
}

// trim enforces the event cap by dropping the oldest job spans (the
// metadata records are kept, and count against the cap).
func (t *JobTracer) trim() {
	keep := max(t.maxEvents-len(t.meta), 0)
	if t.maxEvents <= 0 || len(t.events) <= keep {
		return
	}
	t.dropped += len(t.events) - keep
	t.events = append(t.events[:0], t.events[len(t.events)-keep:]...)
}

// Dropped reports how many spans the event cap has evicted so far (the
// serving layer surfaces it in a response header, so a trimmed trace is
// distinguishable from a complete one).
func (t *JobTracer) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot returns a copy of the trace so far.
func (t *JobTracer) Snapshot() Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Trace{
		TraceEvents:     append(append([]TraceEvent(nil), t.meta...), t.events...),
		DisplayTimeUnit: "ms",
	}
}

// SnapshotSorted returns a copy of the trace with span events ordered
// by start timestamp (metadata records first). Events are appended in
// job-completion order, so after the ring trims, arrival order no
// longer matches time order for overlapping jobs — viewers cope, but
// diff-based tooling should get a canonical order.
func (t *JobTracer) SnapshotSorted() Trace {
	tr := t.Snapshot()
	sort.SliceStable(tr.TraceEvents, func(i, j int) bool {
		ei, ej := &tr.TraceEvents[i], &tr.TraceEvents[j]
		if mi, mj := ei.Ph == "M", ej.Ph == "M"; mi != mj {
			return mi
		}
		return ei.Ts < ej.Ts
	})
	return tr
}

// WriteFile writes the trace to path (the CLIs' -trace flag).
func (t *JobTracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
