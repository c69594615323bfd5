package server

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kmgraph"
	"kmgraph/internal/telemetry"
)

// A fleet-backed graph is an ordinary registry graph — a kmgraph.Cluster
// opened with OpenFleet, served by every /graphs/{name}/… handler through
// the same cache, coalescing, admission and job funnel as a resident one.
// This file holds the one thing that is specific to it: its health. A
// prober keeps a per-fleet state gauge (kmserve_graph_state: 2 healthy,
// 1 degraded, 0 down); a request that would have to run a job on a down
// fleet is shed with 503 + Retry-After before it is admitted or anything
// is dialed, degraded fleets are attempted under FleetSpec.Coord.Retry,
// and every recovery attempt is visible on GET /metrics
// (kmgraph_dist_retries_total, kmgraph_dist_heartbeats_missed_total,
// kmgraph_dist_recovery_seconds — the dist layer's telemetry lands in
// this server's registry).

// Fleet states, in ascending health.
const (
	fleetDown     = 0 // no worker reachable
	fleetDegraded = 1 // some, but not all, workers reachable
	fleetHealthy  = 2 // full fleet reachable
)

var fleetStateNames = [...]string{fleetDown: "down", fleetDegraded: "degraded", fleetHealthy: "healthy"}

const (
	probeInterval = 5 * time.Second // between fleet health probes
	probeTimeout  = 2 * time.Second // one worker dial during a probe
	// fleetRetryAfter is the Retry-After hint on 503s: the next probe may
	// flip the fleet back to healthy.
	fleetRetryAfter = "6"
)

// fleet is the health prober of one fleet-backed graph.
type fleet struct {
	name   string
	source string
	addrs  []string

	state atomic.Int64 // fleetDown / fleetDegraded / fleetHealthy
	nUp   atomic.Int64 // workers reachable at the last probe
	// jobRounds holds each worker's live heartbeat round count during (and
	// after) the most recent job, surfaced as kmserve_fleet_job_rounds.
	jobRounds []atomic.Uint64

	mu sync.Mutex
	up []bool // per-address reachability from the last probe

	stop      chan struct{}
	probeDone chan struct{}
}

// RegisterFleet opens spec as a Cluster (opts carry its k and seed) and
// registers it under name like any other graph; the health prober starts
// immediately and stops when the graph is unloaded or the server closed.
func (s *Server) RegisterFleet(name string, spec kmgraph.FleetSpec, opts ...kmgraph.ClusterOption) error {
	f := &fleet{
		name:      name,
		source:    spec.Source,
		addrs:     spec.Addrs,
		jobRounds: make([]atomic.Uint64, len(spec.Addrs)),
		up:        make([]bool, len(spec.Addrs)),
		stop:      make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	spec.Coord.Progress = func(worker int, rounds uint64) {
		if worker < len(f.jobRounds) { // a Respawn may have grown the fleet
			f.jobRounds[worker].Store(rounds)
		}
	}
	c, err := kmgraph.OpenFleet(spec, append(opts,
		kmgraph.WithObserver(s.JobObserver(name)), kmgraph.WithPhaseMetrics())...)
	if err != nil {
		s.dropUnregisteredObs(name)
		return fmt.Errorf("server: fleet %q: %w", name, err)
	}
	f.probeOnce()
	go f.probeLoop()
	if _, err := s.register(name, c, f); err != nil {
		f.close()
		c.Close()
		return err
	}

	g := telemetry.Label{Name: "graph", Value: name}
	s.registry.GaugeFunc("kmserve_graph_state",
		"Fleet-backed graph health: 2 healthy, 1 degraded, 0 down.",
		func() float64 { return float64(f.state.Load()) }, g)
	s.registry.GaugeFunc("kmserve_fleet_workers_up",
		"Workers reachable at the last fleet health probe.",
		func() float64 { return float64(f.nUp.Load()) }, g)
	for i := range f.jobRounds {
		w := i
		s.registry.GaugeFunc("kmserve_fleet_job_rounds",
			"Engine round count last reported by each worker's heartbeats during a fleet job.",
			func() float64 { return float64(f.jobRounds[w].Load()) },
			g, telemetry.Label{Name: "worker", Value: strconv.Itoa(w)})
	}
	return nil
}

// close stops the prober and waits for it.
func (f *fleet) close() {
	close(f.stop)
	<-f.probeDone
}

// probeOnce dials every worker once and folds the result into the
// state gauge.
func (f *fleet) probeOnce() {
	up := make([]bool, len(f.addrs))
	n := 0
	for i, a := range f.addrs {
		c, err := net.DialTimeout("tcp", a, probeTimeout)
		if err == nil {
			c.Close()
			up[i] = true
			n++
		}
	}
	f.mu.Lock()
	f.up = up
	f.mu.Unlock()
	f.nUp.Store(int64(n))
	switch {
	case n == len(up):
		f.state.Store(fleetHealthy)
	case n > 0:
		f.state.Store(fleetDegraded)
	default:
		f.state.Store(fleetDown)
	}
}

func (f *fleet) probeLoop() {
	defer close(f.probeDone)
	tick := time.NewTicker(probeInterval)
	defer tick.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-tick.C:
			f.probeOnce()
		}
	}
}

// gate sheds a request that would run a job on a known-down fleet with
// 503 + Retry-After, before admission and without a dial. Degraded fleets
// pass: the job runs under the retry policy, which may respawn or re-dial
// its way to a full mesh. A nil fleet is a resident graph: always open.
func (f *fleet) gate(w http.ResponseWriter) bool {
	if f == nil || f.state.Load() != fleetDown {
		return true
	}
	w.Header().Set("Retry-After", fleetRetryAfter)
	writeError(w, http.StatusServiceUnavailable,
		"fleet %q unavailable (0/%d workers reachable)", f.name, len(f.addrs))
	return false
}

// fleetTenant resolves {name} to a fleet-backed graph; a miss writes 404
// and returns nil.
func (s *Server) fleetTenant(w http.ResponseWriter, r *http.Request) *tenant {
	t := s.tenant(w, r)
	if t != nil && t.fleet == nil {
		writeError(w, http.StatusNotFound, "graph %q is not fleet-backed", t.name)
		return nil
	}
	return t
}

// fleetRoutes registers the fleet health endpoints.
func (s *Server) fleetRoutes() {
	s.handle("GET /fleet", "fleet_list", s.handleFleetList)
	s.handle("GET /fleet/{name}", "fleet_info", s.handleFleetInfo)
}

// fleetWorker is one worker's registry entry.
type fleetWorker struct {
	Addr string `json:"addr"`
	Up   bool   `json:"up"`
}

// fleetInfo is one fleet's registry entry.
type fleetInfo struct {
	Name    string        `json:"name"`
	Source  string        `json:"source"`
	K       int           `json:"k"`
	State   string        `json:"state"`
	Workers []fleetWorker `json:"workers"`
}

func (t *tenant) fleetInfo() fleetInfo {
	f := t.fleet
	f.mu.Lock()
	up := append([]bool(nil), f.up...)
	f.mu.Unlock()
	ws := make([]fleetWorker, len(f.addrs))
	for i, a := range f.addrs {
		ws[i] = fleetWorker{Addr: a, Up: up[i]}
	}
	return fleetInfo{
		Name:    f.name,
		Source:  f.source,
		K:       t.c.K(),
		State:   fleetStateNames[f.state.Load()],
		Workers: ws,
	}
}

func (s *Server) handleFleetList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := []fleetInfo{}
	for _, t := range s.graphs {
		if t.fleet != nil {
			infos = append(infos, t.fleetInfo())
		}
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"fleets": infos})
}

func (s *Server) handleFleetInfo(w http.ResponseWriter, r *http.Request) {
	t := s.fleetTenant(w, r)
	if t == nil {
		return
	}
	status := http.StatusOK
	if t.fleet.state.Load() == fleetDown {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, t.fleetInfo())
}
