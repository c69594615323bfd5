package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kmgraph/internal/kmachine"
	"kmgraph/internal/resident"
	"kmgraph/internal/transport"
	"kmgraph/internal/transport/tcp"
	"kmgraph/internal/wire"
)

// WorkerOptions tune a worker process.
type WorkerOptions struct {
	// MeshTimeout bounds forming the full peer mesh for one job
	// (default 60s).
	MeshTimeout time.Duration
	// HeartbeatInterval separates the liveness beats a worker writes on
	// each job's control connection (default 2s; negative disables). The
	// coordinator's HeartbeatTimeout must comfortably exceed it.
	HeartbeatInterval time.Duration
	// Logger, when non-nil, receives structured records for job
	// failures — link-down failures include the engine's flight-recorder
	// snapshot, so a dead mesh leaves a greppable last-K-rounds
	// post-mortem in the worker's log.
	Logger *slog.Logger
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.MeshTimeout == 0 {
		o.MeshTimeout = 60 * time.Second
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 2 * time.Second
	}
	return o
}

// Worker serves distributed k-machine jobs: it accepts control
// connections carrying job specs and peer connections opening transport
// links, routes each by its first frame, and keeps one residency per
// control connection over the hosted machine range the spec assigns it.
// Jobs are independent — a worker serves concurrent jobs from different
// coordinators, each with its own mesh keyed by cluster ID.
type Worker struct {
	ln   net.Listener
	opts WorkerOptions

	mu     sync.Mutex
	meshes map[uint64]*meshInbox
	active map[*jobState]bool // in-flight jobs

	drainOnce sync.Once
	closed    chan struct{}   // stop accepting (drain or close)
	aborted   context.Context // cancelled to abort in-flight jobs (close only)
	abort     context.CancelFunc
	wg        sync.WaitGroup
}

// JobStatus describes one in-flight job for supervision and drain
// reporting.
type JobStatus struct {
	ClusterID uint64
	TraceID   uint64 // 0 when the coordinator is not tracing
	Lo, Hi    int    // hosted machine range
	Rounds    uint64
	Started   time.Time
}

// jobState is the worker's supervision record for one running job. The
// cluster pointer is set once the engine exists; heartbeats and Jobs()
// snapshot live round counts through it.
type jobState struct {
	JobStatus
	cluster atomic.Pointer[kmachine.Cluster]
	seen    atomic.Uint64                          // the last live round count
	spans   atomic.Pointer[transport.SpanRecorder] // set for traced jobs
}

// rounds reports the job's live round count: 0 before the engine starts,
// and after it finishes the last count seen — a beat that fires between
// the run's end and the result frame must not report the job back at 0.
func (s *jobState) rounds() uint64 {
	if c := s.cluster.Load(); c != nil {
		if m, ok := c.Snapshot(); ok {
			s.seen.Store(uint64(m.Rounds))
		}
	}
	return s.seen.Load()
}

// drainSpans pops up to max freshly completed phase spans for the next
// heartbeat (nil for untraced jobs).
func (s *jobState) drainSpans(max int) []transport.PhaseSpan {
	if r := s.spans.Load(); r != nil {
		return r.Drain(max)
	}
	return nil
}

// inboundPeer is a routed peer connection whose hello has been read.
type inboundPeer struct {
	conn  net.Conn
	hello *tcp.Hello
}

type meshInbox struct {
	ch      chan inboundPeer
	created time.Time
}

// NewWorker wraps a listener. Call Serve to start accepting.
func NewWorker(ln net.Listener, opts WorkerOptions) *Worker {
	w := &Worker{ln: ln, opts: opts.withDefaults(), meshes: make(map[uint64]*meshInbox),
		active: make(map[*jobState]bool), closed: make(chan struct{})}
	w.aborted, w.abort = context.WithCancel(context.Background())
	return w
}

// Addr returns the listener address (dialable by coordinator and peers).
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Serve accepts and routes connections until Close. It returns nil
// after a clean Close.
func (w *Worker) Serve() error {
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			select {
			case <-w.closed:
				return nil
			default:
				return err
			}
		}
		w.wg.Add(1)
		go w.route(conn)
	}
}

// Close stops accepting, aborts in-flight jobs, and waits for them to
// finish their connection handling.
func (w *Worker) Close() error {
	w.stopAccepting()
	w.abort()
	w.wg.Wait()
	return nil
}

// Drain stops accepting new connections but lets in-flight jobs run to
// completion: each residency to the end of the command sent to it — a
// residency caught in its load, to the end of the job it was opened for —
// then no further. It returns nil once the worker is idle; if ctx
// expires first, the remaining jobs are aborted (as Close would) and ctx's
// error is returned after they unwind. A job still forming its mesh
// when Drain fires cannot complete (the listener no longer routes peer
// links) and fails with its mesh timeout.
func (w *Worker) Drain(ctx context.Context) error {
	w.stopAccepting()
	idle := make(chan struct{})
	go func() {
		w.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		w.abort()
		<-idle
		return ctx.Err()
	}
}

func (w *Worker) stopAccepting() {
	w.drainOnce.Do(func() {
		close(w.closed)
		w.ln.Close()
	})
}

// Jobs snapshots the in-flight jobs, oldest first. Round counts are
// live (engine snapshots), so a supervisor can log per-cluster progress
// while draining.
func (w *Worker) Jobs() []JobStatus {
	w.mu.Lock()
	states := make([]*jobState, 0, len(w.active))
	for st := range w.active {
		states = append(states, st)
	}
	w.mu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].Started.Before(states[j].Started) })
	out := make([]JobStatus, len(states))
	for i, st := range states {
		out[i] = st.JobStatus
		out[i].Rounds = st.rounds()
	}
	return out
}

// track registers a job's supervision record (on), or retires it.
func (w *Worker) track(st *jobState, on bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if on {
		w.active[st] = true
	} else {
		delete(w.active, st)
	}
}

// route reads a connection's first frame and dispatches: a Hello opens
// a peer link (parked on its cluster's mesh inbox until the job claims
// it), a Job serves a job with this connection as the control channel.
func (w *Worker) route(conn net.Conn) {
	defer w.wg.Done()
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	var buf []byte
	t, body, err := tcp.ReadFrame(conn, &buf)
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	switch t {
	case tcp.FrameHello:
		h, err := tcp.DecodeHello(body)
		if err != nil {
			conn.Close()
			return
		}
		inbox := w.inboxFor(h.ClusterID)
		select {
		case inbox <- inboundPeer{conn: conn, hello: h}:
		default:
			conn.Close() // inbox full: a runaway dialer, drop it
		}
	case tcp.FrameJob:
		job, err := DecodeJob(body)
		if err != nil {
			writeError(conn, err)
			conn.Close()
			return
		}
		w.serve(conn, job)
	default:
		conn.Close()
	}
}

// inboxFor returns (creating if needed) the mesh inbox for a cluster,
// pruning inboxes abandoned for longer than two mesh timeouts.
func (w *Worker) inboxFor(clusterID uint64) chan inboundPeer {
	w.mu.Lock()
	defer w.mu.Unlock()
	cutoff := time.Now().Add(-2 * w.opts.MeshTimeout)
	for id, m := range w.meshes {
		if id != clusterID && m.created.Before(cutoff) {
			drainInbox(m.ch)
			delete(w.meshes, id)
		}
	}
	m, ok := w.meshes[clusterID]
	if !ok {
		m = &meshInbox{ch: make(chan inboundPeer, 256), created: time.Now()}
		w.meshes[clusterID] = m
	}
	return m.ch
}

func (w *Worker) dropInbox(clusterID uint64) {
	w.mu.Lock()
	m, ok := w.meshes[clusterID]
	delete(w.meshes, clusterID)
	w.mu.Unlock()
	if ok {
		drainInbox(m.ch)
	}
}

func drainInbox(ch chan inboundPeer) {
	for {
		select {
		case ip := <-ch:
			ip.conn.Close()
		default:
			return
		}
	}
}

// serve hosts one job with conn as its control connection: its machines
// stay resident — mesh, cluster, shards, kept state — for exactly as long
// as conn is open, each command frame that follows the spec is one run of
// them, answered by a result frame, and a failure ends the residency with
// an error frame (a drain, between commands).
func (w *Worker) serve(conn net.Conn, job *Job) {
	defer conn.Close()
	me := job.Workers[job.Index]
	st := &jobState{JobStatus: JobStatus{ClusterID: job.ClusterID, TraceID: job.TraceID, Lo: me.Lo, Hi: me.Hi, Started: time.Now()}}
	w.track(st, true)
	defer w.track(st, false)
	// An aborting worker (Close, or an expired Drain) cancels its jobs; a
	// plain Drain lets the run in flight finish.
	ctx, cancel := context.WithCancel(w.aborted)
	defer cancel()
	cmds := make(chan command, 1)
	go control(ctx, conn, cmds, cancel)

	// Heartbeats flow while the worker is busy (opening or running), and
	// stop before each answer, so the connection has one writer at a time.
	stop := w.beat(conn, st, cancel)
	r, err := w.open(ctx, job, st)
	if err == nil {
		defer r.close()
	}
	var body []byte
	for served := 0; ; served++ {
		stop()
		if err != nil {
			// A job this worker aborted by shutting down is a lost worker
			// from the coordinator's point of view: report it as link-down,
			// so the failure classifies as retryable, not as a bad job.
			if w.aborted.Err() != nil && !errors.Is(err, transport.ErrLinkDown) {
				err = &transport.LinkDownError{Peer: -1, Reason: transport.ReasonCrash,
					Err: fmt.Errorf("dist: worker shutting down: %w", err)}
			}
			w.logFailure(job, err)
			writeError(conn, err)
			return
		}
		if body != nil {
			tcp.WriteFrame(conn, tcp.FrameResult, body)
		}
		var c command
		select {
		case c = <-cmds:
		case <-ctx.Done():
			return
		case <-w.closed:
			// A drain lets a command already sent run, and a residency that
			// has run fewer than two waits for its next: the first is the
			// load, which a coordinator sends only ahead of a job's own.
			if len(cmds) == 0 && served >= 2 {
				return
			}
			select {
			case c = <-cmds:
			case <-ctx.Done():
				return
			}
		}
		stop = w.beat(conn, st, cancel)
		body, err = r.run(ctx, c)
	}
}

// command is a command frame, with the flag a Bye that follows it sets.
type command struct {
	body      []byte
	cancelled *atomic.Bool
}

// control reads the coordinator's frames until conn closes. Each command
// frame is the next command, with a fresh cancel flag that a following Bye
// sets — the machines agree on it through PhaseSync and stop at the same
// phase boundary. Anything else, and the connection's end, cancels ctx.
func control(ctx context.Context, conn net.Conn, cmds chan<- command, cancel context.CancelFunc) {
	defer cancel()
	var buf []byte
	var flag *atomic.Bool
	for {
		t, body, err := tcp.ReadFrame(conn, &buf)
		switch {
		case err != nil:
			return
		case t == tcp.FrameJob:
			flag = &atomic.Bool{}
			select {
			case cmds <- command{body: append([]byte(nil), body...), cancelled: flag}:
			case <-ctx.Done():
				return
			}
		case t == tcp.FrameBye && flag != nil:
			flag.Store(true)
		default:
			return
		}
	}
}

// logFailure emits a structured record for a failed job. Link-down
// failures carry the engine's flight-recorder snapshot: the same last-
// K-rounds history the coordinator receives in the error frame, logged
// locally so a worker's log is a self-contained post-mortem.
func (w *Worker) logFailure(job *Job, err error) {
	lg := w.opts.Logger
	if lg == nil {
		return
	}
	attrs := []any{slog.String("cluster", fmt.Sprintf("%#x", job.ClusterID)), slog.Int("worker", job.Index)}
	var ld *transport.LinkDownError
	if errors.As(err, &ld) {
		attrs = append(attrs,
			slog.Int("peer", ld.Peer),
			slog.String("reason", string(ld.Reason)),
			slog.Uint64("round", ld.Round),
			slog.Int("flight_rounds", len(ld.Flight)),
			slog.Any("flight", ld.Flight),
		)
		lg.Error("dist: job link down", attrs...)
		return
	}
	attrs = append(attrs, slog.String("err", err.Error()))
	lg.Error("dist: job failed", attrs...)
}

// beat writes a liveness beat on conn every heartbeat interval until stop.
// A failed write means the coordinator is gone: cancel the job.
func (w *Worker) beat(conn net.Conn, st *jobState, cancel context.CancelFunc) (stop func()) {
	interval := w.opts.HeartbeatInterval
	if interval <= 0 {
		return func() {}
	}
	halt, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var buf []byte
		for {
			select {
			case <-halt:
				return
			case <-tick.C:
				buf = tcp.AppendFrame(buf[:0], tcp.FrameHeartbeat,
					appendHeartbeat(nil, st.ClusterID, st.rounds(), st.drainSpans(maxSpanBatch)))
				// Not less than a second: at a millisecond interval (tests) the
				// deadline can pass between setting it and the write being
				// scheduled, and a failed beat cancels the job.
				conn.SetWriteDeadline(time.Now().Add(max(interval, time.Second)))
				if _, err := conn.Write(buf); err != nil {
					cancel()
					return
				}
			}
		}
	}()
	return func() {
		close(halt)
		<-done
	}
}

// residency is what a worker keeps of a job while its control connection
// is open: its machine range of the residency, and what a traced run needs.
type residency struct {
	lo, hi int
	part   *kmachine.ShardPartition
	ms     *resident.Machines
	peers  []*tcp.Peer // the mesh, until the transport takes it
	flight *transport.FlightRecorder
	st     *jobState
	traced bool
	rounds int // the cluster's rounds after the last run
}

// open forms the job's mesh, loads this worker's range of the graph from
// the job's source — refusing a k beyond n before anything is sized by k —
// and builds the cluster its machines run on, published into st so that
// heartbeats carry live round counts.
func (w *Worker) open(ctx context.Context, job *Job, st *jobState) (*residency, error) {
	me := job.Workers[job.Index]
	peers, err := w.formMesh(ctx, job)
	if err != nil {
		return nil, fmt.Errorf("dist: forming mesh: %w", err)
	}
	r := &residency{lo: me.Lo, hi: me.Hi, peers: peers, st: st, traced: job.TraceID != 0}
	cfg := resident.Config{Config: job.Config}
	src, closer, err := OpenJobSource(job.Source)
	if err == nil {
		r.part, err = resident.Load(src, cfg, me.Lo, me.Hi)
		closer.Close()
	}
	if err == nil {
		r.ms, err = resident.NewMachines(r.part, cfg, func(p transport.Params, met *transport.Metrics) (transport.Transport, error) {
			tr, err := tcp.New(p, met, r.lo, r.hi, r.peers)
			if err == nil {
				r.peers, r.flight = nil, tr.Flight()
			}
			return tr, err
		})
	}
	if err != nil {
		r.close()
		return nil, err
	}
	st.cluster.Store(r.ms.Cluster())
	return r, nil
}

// run runs one command frame as one run of the residency's cluster and
// encodes its result frame body: the hosted range, this worker's partial
// Metrics, its machines' outputs and, traced, the spans
// the heartbeats have not carried — the trailing sync span sealed, so that
// they telescope to the run's rounds.
func (r *residency) run(ctx context.Context, c command) ([]byte, error) {
	// A traced run records phase spans: the phase hook of the lowest hosted
	// machine marks each phase boundary, annotated with local wire traffic
	// and barrier wait from the transport's flight recorder.
	var rec *transport.SpanRecorder
	var hook func(phase, round int)
	if r.traced {
		rec = transport.NewSpanRecorder(func() (int64, int64, int64) {
			if r.flight == nil {
				return 0, 0, 0
			}
			_, fr, by, wait := r.flight.Totals()
			return fr, by, wait
		}, r.rounds)
		r.st.spans.Store(rec)
		hook = rec.Hook()
	}
	res, err := r.ms.Run(ctx, c.body, c.cancelled.Load, hook)
	if err != nil {
		return nil, err
	}
	var tail []transport.PhaseSpan
	if rec != nil {
		rec.Finish(res.Metrics.Rounds)
		tail = rec.Drain(0)
	}
	r.rounds = res.Metrics.Rounds
	body := wire.AppendInts(nil, r.lo, r.hi)
	body = transport.AppendMetrics(body, &res.Metrics)
	for id := r.lo; id < r.hi; id++ {
		if body, err = resident.AppendOutput(body, res.Outputs[id]); err != nil {
			return nil, err
		}
	}
	return appendSpans(body, tail), nil
}

// close ends the residency: the machines' kept state, the cluster's peer
// links (a peer whose residency goes on aborts on seeing them go), and any
// mesh link no transport took.
func (r *residency) close() {
	if r.ms != nil {
		r.ms.Close()
	}
	for _, p := range r.peers {
		p.Close()
	}
}

// formMesh establishes this worker's peer links: dial every lower-index
// participant, accept from every higher-index one (routed here by the
// listener via the cluster's mesh inbox).
func (w *Worker) formMesh(ctx context.Context, job *Job) ([]*tcp.Peer, error) {
	me := job.Workers[job.Index]
	base := job.Config
	ours := &tcp.Hello{
		ClusterID:           job.ClusterID,
		K:                   base.K,
		Seed:                base.Seed,
		Index:               job.Index,
		Lo:                  me.Lo,
		Hi:                  me.Hi,
		BandwidthBits:       base.BandwidthBits,
		MessageOverheadBits: base.MessageOverheadBits,
	}
	var peers []*tcp.Peer
	fail := func(err error) ([]*tcp.Peer, error) {
		for _, p := range peers {
			p.Close()
		}
		w.dropInbox(job.ClusterID)
		return nil, err
	}

	inbox := w.inboxFor(job.ClusterID)
	for j := 0; j < job.Index; j++ {
		p, err := tcp.Dial(ctx, job.Workers[j].Addr, ours, j)
		if err != nil {
			return fail(err)
		}
		peers = append(peers, p)
	}

	have := make(map[int]bool)
	deadline := time.NewTimer(w.opts.MeshTimeout)
	defer deadline.Stop()
	for need := len(job.Workers) - 1 - job.Index; need > 0; {
		select {
		case ip := <-inbox:
			if ip.hello.Index <= job.Index || ip.hello.Index >= len(job.Workers) || have[ip.hello.Index] {
				ip.conn.Close()
				continue
			}
			p, err := tcp.AcceptPeer(ip.conn, ip.hello, ours)
			if err != nil {
				// A stale retry or a mismatched hello; keep waiting for a
				// good link from that index.
				ip.conn.Close()
				continue
			}
			have[p.Index] = true
			peers = append(peers, p)
			need--
		case <-deadline.C:
			return fail(fmt.Errorf("dist: mesh incomplete after %v: %w",
				w.opts.MeshTimeout, transport.ErrLinkDown))
		case <-ctx.Done():
			return fail(ctx.Err())
		}
	}
	w.dropInbox(job.ClusterID)
	return peers, nil
}

func writeError(conn net.Conn, jobErr error) {
	tcp.WriteFrame(conn, tcp.FrameError, appendErrorFrame(nil, jobErr))
}
