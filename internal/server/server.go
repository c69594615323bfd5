// Package server is the network serving layer: an HTTP/JSON front end
// hosting a registry of named Clusters — resident in this process, or
// backed by a kmworker fleet (fleet.go) — and exposing every job family —
// connectivity, spanning-tree, MST, approximate min-cut, the Theorem 4
// verifications, dynamic edge batches, and metrics — as endpoints over
// the cancellable-job API. Both kinds of graph are served by the same
// handlers, and serve every family.
//
// Three serving concerns layer over the Cluster:
//
//   - Admission and backpressure: each graph has a bounded admission
//     queue (Config.MaxQueue) layered over the engine's one-job
//     semaphore. A request that would overflow the queue is refused
//     immediately with 429 and a Retry-After header instead of piling
//     onto the cluster, so latency under overload stays bounded.
//   - Deadlines: every job runs under a context derived from the HTTP
//     request (client disconnects cancel the job at the next phase
//     boundary) with a per-request ?timeout= deadline, defaulting to
//     Config.DefaultTimeout.
//   - Result caching: finished results are cached per graph, keyed on
//     (graph epoch, job, canonical args). ApplyBatch bumps the epoch,
//     so mutations invalidate implicitly; repeated queries on an
//     unchanged graph are served with zero simulation rounds.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kmgraph"
	"kmgraph/internal/resident"
	"kmgraph/internal/telemetry"
	"kmgraph/internal/transport/tcp"
	"kmgraph/internal/verify"
)

// Config parameterizes a Server. The zero value is usable: every field
// falls back to the stated default.
type Config struct {
	// MaxQueue bounds each graph's admission queue (running job
	// included); a request beyond it is refused with 429. Default 16.
	MaxQueue int
	// DefaultTimeout is the job deadline applied when a request carries
	// no ?timeout= parameter. Default 60s. It also raises the 10-minute
	// cap on ?timeout= when larger.
	DefaultTimeout time.Duration
	// CacheEntries bounds each graph's result cache; 0 selects the
	// default 128, negative disables caching entirely.
	CacheEntries int
	// AllowLoad enables POST /graphs (loading stores from server-local
	// paths) and DELETE /graphs/{name}. kmserve enables it; embedders
	// that pre-register every graph can leave it off.
	AllowLoad bool
	// DefaultK and DefaultSeed apply to graphs loaded at runtime via
	// POST /graphs when the request omits k or seed, so runtime loads
	// match the operator's startup loads (kmserve plumbs its -k/-seed
	// flags here). DefaultK 0 falls back to the library default.
	DefaultK    int
	DefaultSeed int64
	// Logger, when non-nil, receives one structured record per request:
	// request ID, method, path, status, duration, and cache disposition.
	// The request ID (client-provided X-Request-Id or minted) is echoed
	// on the response.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	return c
}

// Server hosts named resident Clusters behind an HTTP/JSON API. It
// implements http.Handler; mount it on any mux or serve it directly.
type Server struct {
	cfg Config
	mux *http.ServeMux

	registry *telemetry.Registry
	inflight atomic.Int64

	mu     sync.RWMutex
	graphs map[string]*tenant

	// obs maps graph name -> observer funnel; populated by JobObserver
	// (possibly before the cluster exists) and consulted by Register.
	obsMu sync.Mutex
	obs   map[string]*graphObs
}

// tenant is one hosted graph: the cluster, its bounded admission queue,
// its epoch-keyed result cache, and — for a fleet-backed cluster — the
// fleet's health prober.
type tenant struct {
	name   string
	c      *kmgraph.Cluster
	fleet  *fleet // nil for a resident graph
	slots  chan struct{}
	cache  *resultCache
	flight flightGroup

	// shed counts 429 refusals; coalesced counts requests that waited
	// behind an identical in-flight request. Both feed the registry via
	// scrape-time CounterFuncs.
	shed      atomic.Int64
	coalesced atomic.Int64
}

// New returns a Server hosting no graphs yet; Register graphs (or
// enable Config.AllowLoad and POST them) before serving traffic.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg.withDefaults(),
		graphs:   make(map[string]*tenant),
		obs:      make(map[string]*graphObs),
		registry: telemetry.NewRegistry(),
	}
	telemetry.RegisterProcessMetrics(s.registry)
	// Distributed-transport series (per-link bytes/frames, reconnects,
	// handshake failures, barrier waits) join the same exposition, so a
	// server that also coordinates TCP jobs surfaces them on GET /metrics.
	tcp.RegisterTelemetry(s.registry)
	s.registry.GaugeFunc("kmserve_inflight_requests",
		"HTTP requests currently being served.",
		func() float64 { return float64(s.inflight.Load()) })
	s.registry.GaugeFunc("kmserve_graphs",
		"Graphs currently hosted.",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(len(s.graphs))
		})
	s.routes()
	return s
}

// Register adds a loaded cluster under name. The server owns the
// cluster from here on (Close/DELETE will close it).
func (s *Server) Register(name string, c *kmgraph.Cluster) error {
	_, err := s.register(name, c, nil)
	return err
}

// register adds the cluster (with its prober, for a fleet) and returns
// its tenant, so in-process callers (handleLoad) need no post-registration
// lookup that could race a concurrent DELETE.
func (s *Server) register(name string, c *kmgraph.Cluster, f *fleet) (*tenant, error) {
	if name == "" {
		return nil, errors.New("server: empty graph name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.graphs[name]; dup {
		return nil, fmt.Errorf("server: graph %q already registered", name)
	}
	t := &tenant{
		name:  name,
		c:     c,
		fleet: f,
		slots: make(chan struct{}, s.cfg.MaxQueue),
		cache: newResultCache(s.cfg.CacheEntries),
	}
	s.graphs[name] = t
	s.registerTenantMetrics(t)
	return t, nil
}

// close stops the fleet prober, if any, and closes the cluster (waiting
// for its in-flight job).
func (t *tenant) close() error {
	if t.fleet != nil {
		t.fleet.close()
	}
	return t.c.Close()
}

// Close closes every hosted cluster (waiting for in-flight jobs) and
// stops every fleet prober.
func (s *Server) Close() error {
	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.graphs))
	for _, t := range s.graphs {
		ts = append(ts, t) //kmvet:ignore shutdown fan-out; tenant close order immaterial
	}
	s.graphs = make(map[string]*tenant)
	s.mu.Unlock()
	var err error
	for _, t := range ts {
		if cerr := t.close(); err == nil {
			err = cerr
		}
		s.registry.DropLabeled("graph", t.name)
		s.dropObs(t.name)
	}
	return err
}

// statusWriter captures the response status and lets the matched route
// tag itself with an endpoint name for per-endpoint metrics (go.mod
// targets a Go version without http.Request.Pattern, so routes
// self-identify instead).
type statusWriter struct {
	http.ResponseWriter
	code     int
	endpoint string
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// streaming handlers (SSE) can flush through the instrumentation.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// ServeHTTP instruments every request: request-ID threading, in-flight
// gauge, per-endpoint latency histogram and status-labeled counter, and
// (when Config.Logger is set) one structured log record per request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := r.Header.Get("X-Request-Id")
	if rid == "" {
		rid = newRequestID()
	}
	w.Header().Set("X-Request-Id", rid)
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.inflight.Add(1)
	s.mux.ServeHTTP(sw, r)
	s.inflight.Add(-1)
	dur := time.Since(start)
	endpoint := sw.endpoint
	if endpoint == "" {
		endpoint = "other"
	}
	ep := telemetry.Label{Name: "endpoint", Value: endpoint}
	s.registry.Histogram("kmserve_request_seconds",
		"HTTP request latency in seconds, by endpoint.", ep).Observe(dur.Seconds())
	s.registry.Counter("kmserve_requests_total",
		"HTTP requests served, by endpoint and status code.",
		ep, telemetry.Label{Name: "code", Value: strconv.Itoa(sw.code)}).Inc()
	if s.cfg.Logger != nil {
		s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("id", rid),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("endpoint", endpoint),
			slog.Int("status", sw.code),
			slog.Duration("duration", dur),
			slog.String("cache", sw.Header().Get("X-Kmserve-Cache")),
		)
	}
}

// handle registers a route whose requests are tagged with the endpoint
// name for the per-endpoint series.
func (s *Server) handle(pattern, endpoint string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if sw, ok := w.(*statusWriter); ok {
			sw.endpoint = endpoint
		}
		h(w, r)
	})
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.handle("GET /healthz", "healthz", s.handleHealth)
	s.handle("GET /metrics", "metrics", s.handlePrometheus)
	s.handle("GET /version", "version", s.handleVersion)
	s.handle("GET /graphs", "list", s.handleList)
	s.handle("POST /graphs", "load", s.handleLoad)
	s.handle("DELETE /graphs/{name}", "unload", s.handleUnload)
	s.handle("GET /graphs/{name}", "info", s.handleInfo)
	s.handle("GET /graphs/{name}/metrics", "graph_metrics", s.handleMetrics)
	s.handle("GET /graphs/{name}/trace", "trace", s.handleTrace)
	s.handle("GET /graphs/{name}/jobs", "jobs", s.handleJobs)
	s.handle("GET /graphs/{name}/jobs/{id}/events", "job_events", s.handleJobEvents)
	for _, m := range []string{"GET", "POST"} {
		s.handle(m+" /graphs/{name}/connectivity", "connectivity", s.handleConnectivity)
		s.handle(m+" /graphs/{name}/spanning-tree", "spanning-tree", s.handleSpanningTree)
		s.handle(m+" /graphs/{name}/mst", "mst", s.handleMST)
		s.handle(m+" /graphs/{name}/mincut", "mincut", s.handleMinCut)
	}
	s.handle("POST /graphs/{name}/verify", "verify", s.handleVerify)
	s.handle("POST /graphs/{name}/batch", "batch", s.handleBatch)
	s.fleetRoutes()
}

// ---- plumbing ----------------------------------------------------------

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes caps a JSON request body (load, verify, batch). A batch op
// is a few dozen bytes, so this admits batches of hundreds of thousands
// of ops and refuses what would otherwise be decoded without bound.
const maxBodyBytes = 8 << 20

// decodeBody decodes the request's JSON body into v, reading at most
// maxBodyBytes. On failure it writes the error response — 413 for an
// oversized body, 400 for a malformed one — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBodyBytes)
	case err != nil:
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return err == nil
}

// jobError maps a job error to an HTTP status.
func (t *tenant) jobError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, kmgraph.ErrLinkDown):
		// A lost worker (retries exhausted) is degraded service, not a broken
		// request — the fleet may come back. Re-probe now, so the state gauge
		// and the gate see the loss before the next scheduled probe.
		if t.fleet != nil {
			go t.fleet.probeOnce()
		}
		w.Header().Set("Retry-After", fleetRetryAfter)
		writeError(w, http.StatusServiceUnavailable, "graph %q degraded: %v", t.name, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "job deadline exceeded: %v", err)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusRequestTimeout, "job cancelled: %v", err)
	case errors.Is(err, kmgraph.ErrClusterClosed):
		writeError(w, http.StatusGone, "%v", err)
	case errors.Is(err, resident.ErrBadConfig), errors.Is(err, verify.ErrBadArgs):
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// tenant resolves {name}; a miss writes 404 and returns nil.
func (s *Server) tenant(w http.ResponseWriter, r *http.Request) *tenant {
	name := r.PathValue("name")
	s.mu.RLock()
	t := s.graphs[name]
	s.mu.RUnlock()
	if t == nil {
		writeError(w, http.StatusNotFound, "unknown graph %q", name)
	}
	return t
}

// admit claims an admission slot, or writes 429 + Retry-After and
// returns false. The caller must release() after the job.
func (t *tenant) admit(w http.ResponseWriter) bool {
	select {
	case t.slots <- struct{}{}:
		return true
	default:
		t.shed.Add(1)
		queued, running := t.c.Queue()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"graph %q admission queue full (%d queued, %d running)", t.name, queued, running)
		return false
	}
}

func (t *tenant) release() { <-t.slots }

// parseTimeout resolves the ?timeout= parameter (validated before any
// cache lookup, so malformed requests fail even when an answer is
// cached), clamped to 10 minutes — or to Config.DefaultTimeout, when an
// operator raised it past that: jobs that long are then expected.
func (s *Server) parseTimeout(r *http.Request) (time.Duration, error) {
	d := s.cfg.DefaultTimeout
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		var err error
		d, err = time.ParseDuration(raw)
		if err != nil {
			return 0, fmt.Errorf("bad timeout %q: %v", raw, err)
		}
		if d <= 0 {
			return 0, fmt.Errorf("bad timeout %q: must be positive", raw)
		}
	}
	return min(d, max(10*time.Minute, s.cfg.DefaultTimeout)), nil
}

func boolParam(r *http.Request, name string) bool {
	v := r.URL.Query().Get(name)
	return v == "1" || v == "true" || v == "yes"
}

func intParam(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, raw)
	}
	return v, nil
}

// jsonEdge is the wire form of one undirected edge.
type jsonEdge struct {
	U int   `json:"u"`
	V int   `json:"v"`
	W int64 `json:"w,omitempty"`
}

func toJSONEdges(es []kmgraph.Edge) []jsonEdge {
	out := make([]jsonEdge, len(es))
	for i, e := range es {
		out[i] = jsonEdge{U: e.U, V: e.V, W: e.W}
	}
	return out
}

func fromJSONEdges(es []jsonEdge) []kmgraph.Edge {
	out := make([]kmgraph.Edge, len(es))
	for i, e := range es {
		w := e.W
		if w == 0 {
			w = 1
		}
		out[i] = kmgraph.Edge{U: e.U, V: e.V, W: w}
	}
	return out
}

// ---- registry endpoints ------------------------------------------------

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.graphs)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "graphs": n})
}

// graphInfo is one graph's registry entry.
type graphInfo struct {
	Name    string `json:"name"`
	N       int    `json:"n"`
	Edges   int    `json:"edges"`
	K       int    `json:"k"`
	Epoch   uint64 `json:"epoch"`
	Jobs    int    `json:"jobs"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
}

func (t *tenant) info() graphInfo {
	met := t.c.Metrics()
	queued, running := t.c.Queue()
	return graphInfo{
		Name:    t.name,
		N:       t.c.N(),
		Edges:   met.Edges,
		K:       t.c.K(),
		Epoch:   met.Epoch,
		Jobs:    met.Jobs,
		Queued:  queued,
		Running: running,
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := make([]graphInfo, 0, len(s.graphs))
	for _, t := range s.graphs {
		infos = append(infos, t.info())
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"graphs": infos})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	t := s.tenant(w, r)
	if t == nil {
		return
	}
	writeJSON(w, http.StatusOK, t.info())
}

// loadRequest is the POST /graphs body: load a kmgs store or text edge
// list from a server-local path onto a fresh resident cluster.
type loadRequest struct {
	Name string `json:"name"`
	Path string `json:"path"`
	// K and Seed default to the server's Config.DefaultK/DefaultSeed
	// when omitted (nil/0), so one server hosts consistently-partitioned
	// graphs unless a request explicitly asks otherwise.
	K    int    `json:"k,omitempty"`
	Seed *int64 `json:"seed,omitempty"`
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.AllowLoad {
		writeError(w, http.StatusForbidden, "graph loading is disabled on this server")
		return
	}
	var req loadRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" || req.Path == "" {
		writeError(w, http.StatusBadRequest, "name and path are required")
		return
	}
	s.mu.RLock()
	_, dup := s.graphs[req.Name]
	s.mu.RUnlock()
	if dup {
		writeError(w, http.StatusConflict, "graph %q already registered", req.Name)
		return
	}
	seed := s.cfg.DefaultSeed
	if req.Seed != nil {
		seed = *req.Seed
	}
	k := req.K
	if k <= 0 {
		k = s.cfg.DefaultK
	}
	opts := []kmgraph.ClusterOption{
		kmgraph.WithSeed(seed),
		// Runtime loads get the same observability as startup loads:
		// job metrics and phase-annotated traces from the first event on.
		kmgraph.WithObserver(s.JobObserver(req.Name)),
		kmgraph.WithPhaseMetrics(),
	}
	if k > 0 {
		opts = append(opts, kmgraph.WithK(k))
	}
	c, err := kmgraph.OpenCluster(req.Path, opts...)
	if err != nil {
		// Whatever failed — missing path, corrupt store, bad options —
		// the request named an unusable input: a client error.
		s.dropUnregisteredObs(req.Name)
		writeError(w, http.StatusBadRequest, "loading %q: %v", req.Path, err)
		return
	}
	t, err := s.register(req.Name, c, nil)
	if err != nil {
		c.Close()
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, t.info())
}

func (s *Server) handleUnload(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.AllowLoad {
		writeError(w, http.StatusForbidden, "graph unloading is disabled on this server")
		return
	}
	name := r.PathValue("name")
	s.mu.Lock()
	t := s.graphs[name]
	delete(s.graphs, name)
	s.mu.Unlock()
	if t == nil {
		writeError(w, http.StatusNotFound, "unknown graph %q", name)
		return
	}
	s.registry.DropLabeled("graph", name)
	s.dropObs(name)
	if err := t.close(); err != nil {
		writeError(w, http.StatusInternalServerError, "close: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"unloaded": name})
}

// ---- job endpoints -----------------------------------------------------

// hitMarker is implemented by every cacheable response type: hit
// returns a copy marked as served from cache.
type hitMarker interface{ hit() any }

// runCached is the shared protocol around every cacheable job: validate
// the timeout (before the cache lookup, so malformed requests fail even
// when an answer is cached), look up (admission-time epoch, job, args),
// and on a miss admit, run, and store the result — but only when it
// provably ran at the looked-up epoch, so a batch that slipped in while
// the job was queued can never poison the old key.
//
// One deadline covers the whole request — waiting on a coalesced
// leader, queueing, and running — so a follower that outlives its
// leader never restarts the clock.
//
// run returns the response plus the epoch the job ran at: exact where
// the engine reports it (connectivity and batches carry it on their
// results), otherwise the caller's freshest post-job re-read — for
// read-only jobs a re-read equal to the admission-time key proves the
// run epoch, and an unequal one is reported but never cached.
//
// shape, when non-nil, trims a full cached/computed response down to
// what this particular request asked for (connectivity's labels/forest
// flags); the cache always stores the untrimmed value.
func (s *Server) runCached(w http.ResponseWriter, r *http.Request, t *tenant, job, args string,
	shape func(any) any,
	run func(ctx context.Context, epoch uint64) (hitMarker, uint64, error)) {
	timeout, err := s.parseTimeout(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if shape == nil {
		shape = func(v any) any { return v }
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	key := cacheKey{epoch: t.c.Epoch(), job: job, args: args}
	if v, ok := t.cache.get(key); ok {
		w.Header().Set("X-Kmserve-Cache", "hit")
		writeJSON(w, http.StatusOK, shape(v.(hitMarker).hit()))
		return
	}
	if !t.fleet.gate(w) {
		return
	}
	// Coalesce concurrent identical misses: one leader runs the job,
	// followers wait (under the same request deadline) and re-check the
	// cache, so a cold expensive answer is computed once, not once per
	// concurrent requester. With caching disabled there is nothing for
	// followers to re-check, so every request runs its own job.
	if t.cache.enabled() {
		waited := false
		for {
			done, leader := t.flight.join(key)
			if leader {
				defer t.flight.leave(key)
				break
			}
			if !waited {
				waited = true
				t.coalesced.Add(1)
			}
			select {
			case <-done:
				if v, ok := t.cache.get(key); ok {
					w.Header().Set("X-Kmserve-Cache", "hit")
					writeJSON(w, http.StatusOK, shape(v.(hitMarker).hit()))
					return
				}
				// The leader failed or its result was not cacheable (a
				// batch raced it): contend for leadership and run.
			case <-ctx.Done():
				t.jobError(w, ctx.Err())
				return
			}
		}
	}
	if !t.admit(w) {
		return
	}
	defer t.release()
	resp, runEpoch, err := run(ctx, key.epoch)
	if err != nil {
		t.jobError(w, err)
		return
	}
	if runEpoch == key.epoch {
		t.cache.put(key, resp)
	}
	w.Header().Set("X-Kmserve-Cache", "miss")
	writeJSON(w, http.StatusOK, shape(resp))
}

// connectivityResponse answers connectivity and spanning-tree requests.
// Epoch is exact: the engine stamps every query with the epoch it ran
// at (jobs serialize, so it cannot change mid-query).
type connectivityResponse struct {
	Graph             string     `json:"graph"`
	Epoch             uint64     `json:"epoch"`
	Components        int        `json:"components"`
	Phases            int        `json:"phases"`
	Rounds            int        `json:"rounds"`
	SketchFailures    int64      `json:"sketch_failures"`
	RelabeledVertices int        `json:"relabeled_vertices"`
	Cached            bool       `json:"cached"`
	Labels            []uint64   `json:"labels,omitempty"`
	Forest            []jsonEdge `json:"forest,omitempty"`
}

func (c connectivityResponse) hit() any { c.Cached = true; return c }

// handleConnectivity serves connectivity; with forest=true (the
// spanning-tree endpoint's default) the response carries the forest,
// with labels=true the per-vertex labels. Results are cached per epoch;
// a cached response reports the rounds the original computation cost
// but consumes zero new simulation rounds.
func (s *Server) handleConnectivity(w http.ResponseWriter, r *http.Request) {
	s.serveConnectivity(w, r, boolParam(r, "forest"))
}

func (s *Server) handleSpanningTree(w http.ResponseWriter, r *http.Request) {
	s.serveConnectivity(w, r, true)
}

func (s *Server) serveConnectivity(w http.ResponseWriter, r *http.Request, forest bool) {
	t := s.tenant(w, r)
	if t == nil {
		return
	}
	labels := boolParam(r, "labels")
	// Every variant — /connectivity, ?labels=true, ?forest=true, and
	// /spanning-tree — is the same engine computation, so they all share
	// one cache key per epoch: the full result (labels and forest
	// included, O(n) per graph, current epoch only) is cached once and
	// shaped down to what each request asked for. A cold query is paid
	// exactly once across all variants.
	shape := func(v any) any {
		c := v.(connectivityResponse)
		if !labels {
			c.Labels = nil
		}
		if !forest {
			c.Forest = nil
		}
		return c
	}
	s.runCached(w, r, t, "connectivity", "", shape, func(ctx context.Context, _ uint64) (hitMarker, uint64, error) {
		q, err := t.c.Connectivity(ctx)
		if err != nil {
			return nil, 0, err
		}
		return connectivityResponse{
			Graph:             t.name,
			Epoch:             q.Epoch,
			Components:        q.Components,
			Phases:            q.Phases,
			Rounds:            q.Rounds,
			SketchFailures:    q.SketchFailures,
			RelabeledVertices: q.RelabeledVertices,
			Labels:            q.Labels,
			Forest:            toJSONEdges(q.Forest),
		}, q.Epoch, nil
	})
}

// mstResponse answers MST requests. Epoch is the freshest epoch
// observed for this answer; it equals the true run epoch whenever no
// batch raced the request (and only such answers are cached).
type mstResponse struct {
	Graph       string     `json:"graph"`
	Epoch       uint64     `json:"epoch"`
	TotalWeight int64      `json:"total_weight"`
	EdgeCount   int        `json:"edge_count"`
	Phases      int        `json:"phases"`
	Rounds      int        `json:"rounds"`
	Cached      bool       `json:"cached"`
	Edges       []jsonEdge `json:"edges,omitempty"`
}

func (m mstResponse) hit() any { m.Cached = true; return m }

func (s *Server) handleMST(w http.ResponseWriter, r *http.Request) {
	t := s.tenant(w, r)
	if t == nil {
		return
	}
	strong := boolParam(r, "strong")
	edges := boolParam(r, "edges")
	// strong changes the engine computation (Theorem 2(b) dissemination)
	// and so forks the cache key; edges is pure output shaping, handled
	// like connectivity's labels/forest — the full edge list is cached
	// once per (epoch, strong) and trimmed per request.
	shape := func(v any) any {
		m := v.(mstResponse)
		if !edges {
			m.Edges = nil
		}
		return m
	}
	args := fmt.Sprintf("strong=%t", strong)
	s.runCached(w, r, t, "mst", args, shape, func(ctx context.Context, _ uint64) (hitMarker, uint64, error) {
		var opts []kmgraph.MSTOption
		if strong {
			opts = append(opts, kmgraph.StrongOutput())
		}
		res, err := t.c.MST(ctx, opts...)
		if err != nil {
			return nil, 0, err
		}
		runEpoch := t.c.Epoch()
		return mstResponse{
			Graph:       t.name,
			Epoch:       runEpoch,
			TotalWeight: res.TotalWeight,
			EdgeCount:   len(res.Edges),
			Phases:      res.Phases,
			Rounds:      res.Metrics.Rounds,
			Edges:       toJSONEdges(res.Edges),
		}, runEpoch, nil
	})
}

// mincutResponse answers approximate min-cut requests (Epoch semantics
// as in mstResponse).
type mincutResponse struct {
	Graph    string  `json:"graph"`
	Epoch    uint64  `json:"epoch"`
	Estimate float64 `json:"estimate"`
	Level    int     `json:"level"`
	Runs     int     `json:"runs"`
	Rounds   int     `json:"rounds"`
	Cached   bool    `json:"cached"`
}

func (m mincutResponse) hit() any { m.Cached = true; return m }

func (s *Server) handleMinCut(w http.ResponseWriter, r *http.Request) {
	t := s.tenant(w, r)
	if t == nil {
		return
	}
	trials, err := intParam(r, "trials", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	maxLevel, err := intParam(r, "maxlevel", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	args := fmt.Sprintf("trials=%d&maxlevel=%d", trials, maxLevel)
	s.runCached(w, r, t, "mincut", args, nil, func(ctx context.Context, _ uint64) (hitMarker, uint64, error) {
		res, err := t.c.ApproxMinCut(ctx, kmgraph.WithTrials(trials), kmgraph.WithMaxLevel(maxLevel))
		if err != nil {
			return nil, 0, err
		}
		runEpoch := t.c.Epoch()
		return mincutResponse{
			Graph:    t.name,
			Epoch:    runEpoch,
			Estimate: res.Estimate,
			Level:    res.Level,
			Runs:     res.Runs,
			Rounds:   res.Rounds,
		}, runEpoch, nil
	})
}

// verifyRequest is the POST /graphs/{name}/verify body.
type verifyRequest struct {
	// Problem is one of: scs, cut, stconn, allpaths, stcut, bipartite,
	// cycle, ecycle.
	Problem string     `json:"problem"`
	H       []jsonEdge `json:"h,omitempty"`
	Cut     []jsonEdge `json:"cut,omitempty"`
	S       int        `json:"s,omitempty"`
	T       int        `json:"t,omitempty"`
	E       *jsonEdge  `json:"e,omitempty"`
}

// verifyResponse answers verification requests (Epoch semantics as in
// mstResponse).
type verifyResponse struct {
	Graph   string `json:"graph"`
	Epoch   uint64 `json:"epoch"`
	Problem string `json:"problem"`
	Holds   bool   `json:"holds"`
	Runs    int    `json:"runs"`
	Rounds  int    `json:"rounds"`
	Cached  bool   `json:"cached"`
}

func (v verifyResponse) hit() any { v.Cached = true; return v }

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	t := s.tenant(w, r)
	if t == nil {
		return
	}
	var req verifyRequest
	if !decodeBody(w, r, &req) {
		return
	}
	p, ok := verify.ParseProblem(req.Problem)
	if !ok {
		writeError(w, http.StatusBadRequest, "unknown problem %q", req.Problem)
		return
	}
	args := kmgraph.VerifyArgs{
		H:   fromJSONEdges(req.H),
		Cut: fromJSONEdges(req.Cut),
		S:   req.S,
		T:   req.T,
	}
	if req.E != nil {
		args.E = kmgraph.Edge{U: req.E.U, V: req.E.V, W: req.E.W}
	}
	// The canonical args key is the normalized request itself.
	rawKey, _ := json.Marshal(req)
	s.runCached(w, r, t, "verify", string(rawKey), nil, func(ctx context.Context, _ uint64) (hitMarker, uint64, error) {
		out, err := t.c.Verify(ctx, p, args)
		if err != nil {
			return nil, 0, err
		}
		runEpoch := t.c.Epoch()
		return verifyResponse{
			Graph:   t.name,
			Epoch:   runEpoch,
			Problem: req.Problem,
			Holds:   out.Holds,
			Runs:    out.Runs,
			Rounds:  out.Rounds,
		}, runEpoch, nil
	})
}

// batchRequest is the POST /graphs/{name}/batch body.
type batchRequest struct {
	Ops []jsonOp `json:"ops"`
}

// jsonOp is one dynamic edge operation.
type jsonOp struct {
	U   int   `json:"u"`
	V   int   `json:"v"`
	W   int64 `json:"w,omitempty"`
	Del bool  `json:"del,omitempty"`
}

// batchResponse reports one applied batch.
type batchResponse struct {
	Graph           string `json:"graph"`
	Epoch           uint64 `json:"epoch"` // epoch after the batch
	Ops             int    `json:"ops"`
	Applied         int    `json:"applied"`
	RejectedInserts int    `json:"rejected_inserts"`
	RejectedDeletes int    `json:"rejected_deletes"`
	RejectedInvalid int    `json:"rejected_invalid"`
	Rounds          int    `json:"rounds"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	t := s.tenant(w, r)
	if t == nil {
		return
	}
	timeout, err := s.parseTimeout(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req batchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	ops := make([]kmgraph.EdgeOp, len(req.Ops))
	for i, op := range req.Ops {
		wt := op.W
		if wt == 0 && !op.Del {
			wt = 1
		}
		ops[i] = kmgraph.EdgeOp{U: op.U, V: op.V, W: wt, Del: op.Del}
	}
	if !t.admit(w) {
		return
	}
	defer t.release()
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	br, err := t.c.ApplyBatch(ctx, ops)
	if err != nil {
		t.jobError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, batchResponse{
		Graph:           t.name,
		Epoch:           br.Epoch, // exact: stamped while the batch held the job slot
		Ops:             br.Ops,
		Applied:         br.Applied,
		RejectedInserts: br.RejectedInserts,
		RejectedDeletes: br.RejectedDeletes,
		RejectedInvalid: br.RejectedInvalid,
		Rounds:          br.Rounds,
	})
}

// metricsResponse is the per-graph observability snapshot.
type metricsResponse struct {
	Graph       string `json:"graph"`
	N           int    `json:"n"`
	K           int    `json:"k"`
	Edges       int    `json:"edges"`
	Epoch       uint64 `json:"epoch"`
	LoadRounds  int    `json:"load_rounds"`
	TotalRounds int    `json:"total_rounds"`
	Jobs        int    `json:"jobs"`
	Batches     int    `json:"batches"`
	Queries     int    `json:"queries"`
	Queued      int    `json:"queued"`
	Running     int    `json:"running"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	CacheSize   int    `json:"cache_size"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	t := s.tenant(w, r)
	if t == nil {
		return
	}
	met := t.c.Metrics()
	queued, running := t.c.Queue()
	hits, misses, size := t.cache.stats()
	writeJSON(w, http.StatusOK, metricsResponse{
		Graph:       t.name,
		N:           t.c.N(),
		K:           t.c.K(),
		Edges:       met.Edges,
		Epoch:       met.Epoch,
		LoadRounds:  met.LoadRounds,
		TotalRounds: met.Total.Rounds,
		Jobs:        met.Jobs,
		Batches:     met.Batches,
		Queries:     met.Queries,
		Queued:      queued,
		Running:     running,
		CacheHits:   hits,
		CacheMisses: misses,
		CacheSize:   size,
	})
}
