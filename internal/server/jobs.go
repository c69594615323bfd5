package server

// Live job progress: GET /graphs/{name}/jobs lists the engine jobs the
// graph's observer funnel has seen (newest first, bounded retention),
// and GET /graphs/{name}/jobs/{id}/events streams one job's progress —
// phase and round-counter deltas, live component counts, terminal
// status — as Server-Sent Events. Subscribers get coalescing notify
// channels and re-read the record on each wakeup, so a slow client can
// never stall the engine's observer hook.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"kmgraph"
)

// maxJobRecords bounds the finished jobs retained per graph; the
// oldest finished records are evicted first (running jobs are never
// evicted).
const maxJobRecords = 64

// jobProgress is the wire form of one job's progress: one entry of the
// jobs listing and the data payload of every SSE delta.
type jobProgress struct {
	ID  int    `json:"id"` // engine job sequence number
	Job string `json:"job"`
	// Phase is the last merge-phase index observed, -1 before the first
	// phase boundary.
	Phase int `json:"phase"`
	// Round is the cluster-wide round counter at the last event
	// (cumulative across the session, so deltas between events are the
	// job's own consumption).
	Round int `json:"round"`
	// Active and Failures are the last phase-end collectives' values:
	// live component count and sketch failures.
	Active   uint64 `json:"active"`
	Failures uint64 `json:"failures"`
	Running  bool   `json:"running"`
	Err      string `json:"error,omitempty"`
	Started  string `json:"started"` // RFC 3339
	// DurationMs is the job's wall-clock duration, set on completion.
	DurationMs float64 `json:"duration_ms,omitempty"`
}

// jobRecord is one tracked job plus its subscribers. Guarded by the
// owning graphObs's mutex.
type jobRecord struct {
	p       jobProgress
	started time.Time
	subs    map[chan struct{}]struct{}
}

// notify wakes every subscriber (coalescing: a subscriber that hasn't
// drained its previous wakeup gets nothing new to drain).
func (j *jobRecord) notify() {
	for ch := range j.subs {
		select {
		case ch <- struct{}{}: //kmvet:ignore coalescing non-blocking wakeups; delivery order immaterial
		default:
		}
	}
}

// trackJob folds one observer event into the job records and wakes the
// job's subscribers (it takes o.mu itself). On the Done event of a job
// whose start it saw, it returns the job's wall-clock duration.
func (o *graphObs) trackJob(ev kmgraph.ClusterEvent) (dur time.Duration, timed bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	j := o.jobs[ev.Seq]
	switch {
	case ev.Phase < 0 && !ev.Done:
		if j != nil {
			return 0, false // duplicate start
		}
		now := time.Now()
		j = &jobRecord{
			p: jobProgress{
				ID:      ev.Seq,
				Job:     ev.Job,
				Phase:   -1,
				Round:   ev.Round,
				Running: true,
				Started: now.UTC().Format(time.RFC3339Nano),
			},
			started: now,
			subs:    make(map[chan struct{}]struct{}),
		}
		if o.jobs == nil {
			o.jobs = make(map[int]*jobRecord)
		}
		o.jobs[ev.Seq] = j
		o.pruneJobs()
		return 0, false
	case j == nil && ev.Done:
		// Jobs that report only at completion (the load job emits a
		// single Done event) get a terminal record directly.
		if o.jobs == nil {
			o.jobs = make(map[int]*jobRecord)
		}
		o.jobs[ev.Seq] = &jobRecord{
			p: jobProgress{
				ID:      ev.Seq,
				Job:     ev.Job,
				Phase:   -1,
				Round:   ev.Round,
				Err:     ev.Err,
				Started: time.Now().UTC().Format(time.RFC3339Nano),
			},
			subs: make(map[chan struct{}]struct{}),
		}
		o.pruneJobs()
		return 0, false
	case j == nil:
		return 0, false // phase event for a job that started before we looked
	case ev.Done:
		dur, timed = time.Since(j.started), true
		j.p.Round = ev.Round
		j.p.Running = false
		j.p.Err = ev.Err
		j.p.DurationMs = float64(dur.Nanoseconds()) / 1e6
	default: // phase boundary
		j.p.Phase = ev.Phase
		j.p.Round = ev.Round
		j.p.Active = ev.Active
		j.p.Failures = ev.Failures
	}
	j.notify()
	return dur, timed
}

// pruneJobs evicts the oldest finished records past maxJobRecords.
// Caller holds o.mu.
func (o *graphObs) pruneJobs() {
	excess := len(o.jobs) - maxJobRecords
	if excess <= 0 {
		return
	}
	var finished []*jobRecord
	for _, j := range o.jobs {
		if !j.p.Running {
			finished = append(finished, j)
		}
	}
	sort.Slice(finished, func(a, b int) bool { return finished[a].p.ID < finished[b].p.ID })
	for _, j := range finished {
		if excess == 0 {
			break
		}
		delete(o.jobs, j.p.ID)
		excess--
	}
}

// snapshotJobs returns the tracked jobs, newest first.
func (o *graphObs) snapshotJobs() []jobProgress {
	o.mu.Lock()
	out := make([]jobProgress, 0, len(o.jobs))
	for _, j := range o.jobs {
		out = append(out, j.p)
	}
	o.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID > out[b].ID })
	return out
}

// jobSnapshot returns one job's current progress.
func (o *graphObs) jobSnapshot(id int) (jobProgress, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	j, ok := o.jobs[id]
	if !ok {
		return jobProgress{}, false
	}
	return j.p, true
}

// subscribeJob registers a wakeup channel on the job; the returned
// cancel is idempotent and safe after the job record is evicted.
func (o *graphObs) subscribeJob(id int) (<-chan struct{}, func(), bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	j, ok := o.jobs[id]
	if !ok {
		return nil, nil, false
	}
	ch := make(chan struct{}, 1)
	j.subs[ch] = struct{}{}
	cancel := func() {
		o.mu.Lock()
		delete(j.subs, ch)
		o.mu.Unlock()
	}
	return ch, cancel, true
}

// handleJobs lists the graph's tracked jobs, newest first.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	t := s.tenant(w, r)
	if t == nil {
		return
	}
	o := s.obsFor(t.name)
	writeJSON(w, http.StatusOK, map[string]any{"graph": t.name, "jobs": o.snapshotJobs()})
}

// sseEvent writes one SSE frame ("progress" while running, "done" once
// finished) and flushes it.
func sseEvent(w http.ResponseWriter, rc *http.ResponseController, p jobProgress) error {
	name := "progress"
	if !p.Running {
		name = "done"
	}
	data, _ := json.Marshal(p)
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
	return rc.Flush()
}

// sseKeepalive separates comment frames that hold idle streams open
// through proxies.
const sseKeepalive = 15 * time.Second

// handleJobEvents streams one job's progress deltas as Server-Sent
// Events until the job finishes or the client disconnects. The first
// frame is the job's current state, so a subscriber that arrives late
// (or after completion) still sees the terminal snapshot.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	t := s.tenant(w, r)
	if t == nil {
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return
	}
	rc := http.NewResponseController(w)
	o := s.obsFor(t.name)
	p, found := o.jobSnapshot(id)
	if !found {
		writeError(w, http.StatusNotFound, "unknown job %d on graph %q", id, t.name)
		return
	}
	// Subscribe before the first read-and-send, so a delta landing
	// between them wakes us rather than being lost.
	ch, cancel, live := o.subscribeJob(id)
	if live {
		defer cancel()
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if err := sseEvent(w, rc, p); err != nil {
		return // the connection can't stream (or the client is gone)
	}
	if !p.Running || !live {
		return
	}
	keep := time.NewTicker(sseKeepalive)
	defer keep.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-keep.C:
			fmt.Fprint(w, ": keepalive\n\n")
			if rc.Flush() != nil {
				return
			}
		case <-ch:
			p, found = o.jobSnapshot(id)
			if !found {
				return // evicted mid-stream
			}
			if err := sseEvent(w, rc, p); err != nil {
				return
			}
			if !p.Running {
				return
			}
		}
	}
}
