package server

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"

	"kmgraph"
	"kmgraph/internal/telemetry"
)

// This file is the server's observability wiring: the Prometheus
// registry behind GET /metrics, the per-endpoint request funnel, the
// per-graph engine-job funnel fed by Observer events, the per-tenant
// trace buffer behind GET /graphs/{name}/trace, and GET /version.

// maxTraceEvents bounds each tenant's retained trace buffer (oldest job
// spans are dropped past it), so a long-lived server holds the recent
// jobs' spans, not the whole session's.
const maxTraceEvents = 4096

// Registry returns the server's metrics registry, for embedders that
// want to add their own series to the same GET /metrics exposition.
func (s *Server) Registry() *telemetry.Registry { return s.registry }

// graphObs funnels one named graph's engine Observer events into the
// registry and the tenant's trace buffer. It is created by JobObserver
// (possibly before the cluster exists — kmserve wires the observer into
// OpenCluster, so load-phase events are captured too) and linked to the
// tenant at Register.
type graphObs struct {
	name   string
	srv    *Server
	tracer *telemetry.JobTracer

	mu   sync.Mutex
	jobs map[int]*jobRecord // job seq -> live progress (see jobs.go)
}

// JobObserver returns (creating if needed) the observer hook for the
// named graph, to be passed as kmgraph.WithObserver when constructing
// the cluster that will be Registered under the same name. Events flow
// into the engine-job metrics (durations, rounds, messages, bytes by
// job family) and the graph's trace buffer.
func (s *Server) JobObserver(name string) func(kmgraph.ClusterEvent) {
	o := s.obsFor(name)
	return o.observe
}

func (s *Server) obsFor(name string) *graphObs {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	if o, ok := s.obs[name]; ok {
		return o
	}
	tr := telemetry.NewJobTracer()
	tr.SetMaxEvents(maxTraceEvents)
	o := &graphObs{name: name, srv: s, tracer: tr}
	s.obs[name] = o
	return o
}

// dropObs forgets a graph's observer state (unload/Close).
func (s *Server) dropObs(name string) {
	s.obsMu.Lock()
	delete(s.obs, name)
	s.obsMu.Unlock()
}

// dropUnregisteredObs forgets the observer state JobObserver created for
// a cluster that then failed to open — unless a graph of that name is
// registered: its jobs and trace live in the same funnel.
func (s *Server) dropUnregisteredObs(name string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, live := s.graphs[name]; !live {
		s.dropObs(name)
	}
}

func (o *graphObs) observe(ev kmgraph.ClusterEvent) {
	o.tracer.Observer()(ev)
	dur, timed := o.trackJob(ev)
	if !ev.Done {
		return
	}
	reg := o.srv.registry
	graph := telemetry.Label{Name: "graph", Value: o.name}
	job := telemetry.Label{Name: "job", Value: ev.Job}
	status := "ok"
	if ev.Err != "" {
		status = "error"
	}
	reg.Counter("kmgraph_jobs_total",
		"Engine jobs completed, by graph, job family, and outcome.",
		graph, job, telemetry.Label{Name: "status", Value: status}).Inc()
	if timed {
		reg.Histogram("kmgraph_job_seconds",
			"Engine job wall-clock duration in seconds.",
			graph, job).Observe(dur.Seconds())
	}
	if ev.Delta != nil {
		reg.Counter("kmgraph_job_rounds_total",
			"Engine rounds consumed by completed jobs.",
			graph, job).Add(int64(ev.Delta.Rounds))
		reg.Counter("kmgraph_job_messages_total",
			"Engine messages sent by completed jobs.",
			graph, job).Add(ev.Delta.Messages)
		reg.Counter("kmgraph_job_payload_bytes_total",
			"Engine payload bytes sent by completed jobs.",
			graph, job).Add(ev.Delta.PayloadBytes)
	}
}

// registerTenantMetrics wires the scrape-time series of one registered
// graph: admission-queue depth, running jobs, epoch, cache hit/miss
// counters, coalesced followers, and 429 sheds. All are read live from
// the tenant at scrape; DropLabeled unregisters them at unload.
func (s *Server) registerTenantMetrics(t *tenant) {
	g := telemetry.Label{Name: "graph", Value: t.name}
	s.registry.GaugeFunc("kmserve_queue_depth",
		"Jobs queued on the graph's admission semaphore.",
		func() float64 { q, _ := t.c.Queue(); return float64(q) }, g)
	s.registry.GaugeFunc("kmserve_running_jobs",
		"Jobs currently running on the graph (0 or 1).",
		func() float64 { _, r := t.c.Queue(); return float64(r) }, g)
	s.registry.GaugeFunc("kmserve_graph_epoch",
		"The graph's mutation epoch (bumped by every effective batch).",
		func() float64 { return float64(t.c.Epoch()) }, g)
	s.registry.CounterFunc("kmserve_cache_hits_total",
		"Result-cache hits served for the graph.",
		func() float64 { h, _, _ := t.cache.stats(); return float64(h) }, g)
	s.registry.CounterFunc("kmserve_cache_misses_total",
		"Result-cache misses for the graph.",
		func() float64 { _, m, _ := t.cache.stats(); return float64(m) }, g)
	s.registry.CounterFunc("kmserve_cache_coalesced_total",
		"Requests that waited behind an identical in-flight request.",
		func() float64 { return float64(t.coalesced.Load()) }, g)
	s.registry.CounterFunc("kmserve_shed_total",
		"Requests refused with 429 by the graph's admission queue.",
		func() float64 { return float64(t.shed.Load()) }, g)
	s.registry.CounterFunc("kmgraph_observer_panics_total",
		"Recovered panics out of the graph's observer hook.",
		func() float64 { return float64(t.c.Metrics().ObserverPanics) }, g)
	s.registry.GaugeFunc("kmgraph_bank_kept_sums",
		"Sketch-bank (part, bank) sums held across the graph's machines.",
		func() float64 { return float64(t.c.Metrics().Banks.KeptSums) }, g)
	s.registry.GaugeFunc("kmgraph_bank_kept_bytes",
		"Bytes of sketch cells held by the kept sketch-bank sums.",
		func() float64 { return float64(t.c.Metrics().Banks.KeptBytes) }, g)
	s.registry.CounterFunc("kmgraph_bank_reads_kept_total",
		"Part-sketch reads served from a kept sketch-bank sum.",
		func() float64 { return float64(t.c.Metrics().Banks.ReadsKept) }, g)
	s.registry.CounterFunc("kmgraph_bank_reads_rebuilt_total",
		"Part reads served from the part's adjacency.",
		func() float64 { return float64(t.c.Metrics().Banks.ReadsRebuilt) }, g)
	s.registry.CounterFunc("kmgraph_bank_dropped_total",
		"Kept sketch-bank sums released without a successor.",
		func() float64 { return float64(t.c.Metrics().Banks.Dropped) }, g)
}

// handlePrometheus serves the whole registry in Prometheus text
// exposition format.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.registry.WritePrometheus(w)
}

// versionResponse is the GET /version body.
type versionResponse struct {
	Module    string `json:"module"`
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision"`
	BuildTime string `json:"build_time,omitempty"`
	Dirty     bool   `json:"dirty,omitempty"`
}

// handleVersion reports the build's identity for deploy tooling: module
// path, Go toolchain, and the VCS revision stamped by `go build` (absent
// under `go test` or when built outside a checkout).
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	resp := versionResponse{Module: "unknown", GoVersion: "unknown", Revision: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		resp.Module = bi.Main.Path
		if resp.Module == "" {
			resp.Module = bi.Path
		}
		resp.GoVersion = bi.GoVersion
		for _, st := range bi.Settings {
			switch st.Key {
			case "vcs.revision":
				resp.Revision = st.Value
			case "vcs.time":
				resp.BuildTime = st.Value
			case "vcs.modified":
				resp.Dirty = st.Value == "true"
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTrace serves a graph's recent job spans as Chrome trace-event
// JSON (loadable in Perfetto / chrome://tracing), ordered by start
// timestamp. The buffer holds the most recent maxTraceEvents spans;
// events are recorded in job-completion order, so once the buffer has
// trimmed, arrival order no longer matches time order for overlapping
// jobs — hence the sorted snapshot. The X-Kmserve-Trace-Dropped header
// reports how many older spans the trim discarded (0 = the trace is
// complete).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	t := s.tenant(w, r)
	if t == nil {
		return
	}
	o := s.obsFor(t.name)
	w.Header().Set("X-Kmserve-Trace-Dropped", strconv.Itoa(o.tracer.Dropped()))
	w.Header().Set("X-Kmserve-Trace-Limit", strconv.Itoa(maxTraceEvents))
	writeJSON(w, http.StatusOK, o.tracer.SnapshotSorted())
}

// newRequestID mints a 16-hex-char request identifier.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
