package transport

import (
	"sync"
	"time"
)

// PhaseSpan is one phase of a distributed job as observed by a single
// worker: the engine rounds it covered, its wall-clock extent on the
// worker's own clock (microseconds since that worker started the run),
// and the local link traffic and barrier wait accumulated while
// it ran. Spans are streamed to the coordinator in bounded batches
// piggybacked on heartbeat frames, handed to the job's observer on its
// done event (resident.Event.Workers), and rendered by
// telemetry.JobTracer on one trace pid per worker.
type PhaseSpan struct {
	// Phase is the merge-phase index, or -1 for the trailing sync span
	// (the work between the last phase boundary and engine completion).
	Phase      int
	StartRound int
	EndRound   int
	StartUs    int64
	DurUs      int64
	// Frames and Bytes are the wire frames/bytes this worker exchanged
	// with its peers during the span; WaitNs is its accumulated round-
	// barrier wait. All are local observations, not cluster totals.
	Frames int64
	Bytes  int64
	WaitNs int64
}

// Rounds is the engine rounds the span covers. Per worker, span rounds
// telescope: they sum exactly to the engine's final round count.
func (s PhaseSpan) Rounds() int { return s.EndRound - s.StartRound }

// maxPendingSpans bounds a recorder's unsent backlog. Phase counts are
// O(log n) (a few hundred at n=1M), far below the cap; it only guards a
// runaway engine against unbounded memory. Overflow drops the newest
// span and counts it, so Dropped()>0 flags a trace that no longer
// telescopes.
const maxPendingSpans = 8192

// SpanRecorder collects a worker's phase spans. The engine's phase hook
// appends (engine machine goroutine); the heartbeat loop drains batches
// (its own goroutine); Finish seals the trailing sync span.
type SpanRecorder struct {
	// sample returns cumulative local (frames, bytes, waitNs) — the
	// transport flight recorder's totals. It must be safe to call from
	// any goroutine.
	sample func() (frames, bytes, waitNs int64)

	mu        sync.Mutex
	start     time.Time
	lastT     time.Time
	lastRound int
	lastFr    int64
	lastBy    int64
	lastWait  int64
	pending   []PhaseSpan
	dropped   int
}

// NewSpanRecorder returns a recorder of one run whose time origin is now
// and whose round and traffic origins are round and sample's present
// totals: where the previous run on the same links left them. sample may
// be nil (spans then carry no traffic annotations).
func NewSpanRecorder(sample func() (frames, bytes, waitNs int64), round int) *SpanRecorder {
	now := time.Now()
	if sample == nil {
		sample = func() (int64, int64, int64) { return 0, 0, 0 }
	}
	r := &SpanRecorder{sample: sample, start: now, lastT: now, lastRound: round}
	r.lastFr, r.lastBy, r.lastWait = sample()
	return r
}

// Hook returns the phase-boundary callback of a run (resident.Machines.Run
// takes it): the lowest hosted machine calls it after each phase's
// end-of-phase collective with the phase index and its round count.
func (r *SpanRecorder) Hook() func(phase, round int) {
	return func(phase, round int) { r.record(phase, round) }
}

// Finish seals the trailing sync span: the rounds between the last
// phase boundary and the engine's final round count. Always emitted —
// even 0-round — so per-worker span rounds telescope exactly to the
// job's metered Metrics.Rounds.
func (r *SpanRecorder) Finish(finalRound int) {
	r.record(-1, finalRound)
}

func (r *SpanRecorder) record(phase, round int) {
	now := time.Now()
	fr, by, wait := r.sample()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := PhaseSpan{
		Phase:      phase,
		StartRound: r.lastRound,
		EndRound:   round,
		StartUs:    r.lastT.Sub(r.start).Microseconds(),
		DurUs:      now.Sub(r.lastT).Microseconds(),
		Frames:     fr - r.lastFr,
		Bytes:      by - r.lastBy,
		WaitNs:     wait - r.lastWait,
	}
	r.lastT, r.lastRound = now, round
	r.lastFr, r.lastBy, r.lastWait = fr, by, wait
	if len(r.pending) >= maxPendingSpans {
		r.dropped++
		return
	}
	r.pending = append(r.pending, s)
}

// Drain pops up to max pending spans (all of them when max <= 0).
func (r *SpanRecorder) Drain(max int) []PhaseSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.pending)
	if n == 0 {
		return nil
	}
	if max > 0 && n > max {
		n = max
	}
	out := append([]PhaseSpan(nil), r.pending[:n]...)
	r.pending = r.pending[n:]
	return out
}

// Dropped reports spans lost to the backlog cap.
func (r *SpanRecorder) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// WorkerSpans is one worker's assembled span stream.
type WorkerSpans struct {
	Index  int
	Lo, Hi int
	Spans  []PhaseSpan
}
