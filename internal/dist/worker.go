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

	"kmgraph/internal/core"
	"kmgraph/internal/kmachine"
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
// links, routes each by its first frame, and runs one engine instance
// per job over the hosted machine range the spec assigns it. Jobs are
// independent — a worker serves concurrent jobs from different
// coordinators, each with its own mesh keyed by cluster ID.
type Worker struct {
	ln   net.Listener
	opts WorkerOptions

	mu     sync.Mutex
	meshes map[uint64]*meshInbox
	active map[uint64]*jobState // in-flight jobs by serial
	serial uint64

	drainOnce sync.Once
	abortOnce sync.Once
	closed    chan struct{} // stop accepting (drain or close)
	aborted   chan struct{} // cancel in-flight jobs (close only)
	wg        sync.WaitGroup
}

// JobStatus describes one in-flight job for supervision and drain
// reporting.
type JobStatus struct {
	ClusterID uint64
	TraceID   uint64 // 0 when the coordinator is not tracing
	Kind      Kind
	Lo, Hi    int // hosted machine range
	Rounds    uint64
	Started   time.Time
}

// jobState is the worker's supervision record for one running job. The
// cluster pointer is set once the engine exists; heartbeats and Jobs()
// snapshot live round counts through it.
type jobState struct {
	clusterID uint64
	traceID   uint64
	kind      Kind
	lo, hi    int
	started   time.Time
	cluster   atomic.Pointer[kmachine.Cluster]
	seen      atomic.Uint64                          // the last live round count
	spans     atomic.Pointer[transport.SpanRecorder] // set for traced jobs
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
	return &Worker{
		ln:      ln,
		opts:    opts.withDefaults(),
		meshes:  make(map[uint64]*meshInbox),
		active:  make(map[uint64]*jobState),
		closed:  make(chan struct{}),
		aborted: make(chan struct{}),
	}
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
	w.abortOnce.Do(func() { close(w.aborted) })
	w.wg.Wait()
	return nil
}

// Drain stops accepting new connections but lets in-flight jobs run to
// completion. It returns nil once the worker is idle; if ctx expires
// first, the remaining jobs are aborted (as Close would) and ctx's
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
		w.abortOnce.Do(func() { close(w.aborted) })
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
	for _, st := range w.active {
		states = append(states, st)
	}
	w.mu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].started.Before(states[j].started) })
	out := make([]JobStatus, len(states))
	for i, st := range states {
		out[i] = JobStatus{
			ClusterID: st.clusterID,
			TraceID:   st.traceID,
			Kind:      st.kind,
			Lo:        st.lo,
			Hi:        st.hi,
			Rounds:    st.rounds(),
			Started:   st.started,
		}
	}
	return out
}

func (w *Worker) registerJob(job *Job) (uint64, *jobState) {
	me := job.Workers[job.Index]
	st := &jobState{
		clusterID: job.ClusterID,
		traceID:   job.TraceID,
		kind:      job.Kind,
		lo:        me.Lo,
		hi:        me.Hi,
		started:   time.Now(),
	}
	w.mu.Lock()
	w.serial++
	id := w.serial
	w.active[id] = st
	w.mu.Unlock()
	return id, st
}

func (w *Worker) unregisterJob(id uint64) {
	w.mu.Lock()
	delete(w.active, id)
	w.mu.Unlock()
}

// route reads a connection's first frame and dispatches: a Hello opens
// a peer link (parked on its cluster's mesh inbox until the job claims
// it), a Job runs a job with this connection as the control channel.
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
		w.runJob(conn, job)
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

// runJob executes one job with conn as the control channel: the result
// (or error) frame goes back on it, and the job aborts if the
// coordinator hangs up.
func (w *Worker) runJob(conn net.Conn, job *Job) {
	defer conn.Close()
	id, st := w.registerJob(job)
	defer w.unregisterJob(id)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The coordinator stays silent until the job ends; any frame (Bye =
	// explicit cancel) or a closed connection aborts the job.
	go func() {
		var buf []byte
		for {
			if _, _, err := tcp.ReadFrame(conn, &buf); err != nil {
				cancel()
				return
			}
		}
	}()
	go func() {
		// An aborting worker (Close, or an expired Drain) cancels its
		// jobs; a plain Drain lets them finish.
		select {
		case <-w.aborted:
			cancel()
		case <-ctx.Done():
		}
	}()

	// Heartbeats flow from job start (mesh formation and shard loading
	// count as liveness too). The beater is stopped before the result
	// write so the control connection has a single writer at a time.
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	if iv := w.opts.HeartbeatInterval; iv > 0 {
		go w.heartbeat(conn, st, iv, hbStop, hbDone, cancel)
	} else {
		close(hbDone)
	}

	body, err := w.execute(ctx, job, st)
	close(hbStop)
	<-hbDone
	if err != nil {
		// A job this worker aborted by shutting down is a lost worker
		// from the coordinator's point of view: report it as link-down
		// so the failure classifies as retryable, not as a bad job.
		select {
		case <-w.aborted:
			if !errors.Is(err, transport.ErrLinkDown) {
				err = &transport.LinkDownError{Peer: -1, Reason: transport.ReasonCrash,
					Err: fmt.Errorf("dist: worker shutting down: %w", err)}
			}
		default:
		}
		w.logFailure(job, err)
		writeError(conn, err)
		return
	}
	tcp.WriteFrame(conn, tcp.FrameResult, body)
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
	attrs := []any{
		slog.String("cluster", fmt.Sprintf("%#x", job.ClusterID)),
		slog.String("kind", job.Kind.String()),
		slog.Int("worker", job.Index),
	}
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

// heartbeat writes a liveness beat on the control connection every
// interval until stopped. A failed write means the coordinator is gone:
// the job is cancelled rather than left running unobserved.
func (w *Worker) heartbeat(conn net.Conn, st *jobState, interval time.Duration,
	stop <-chan struct{}, done chan<- struct{}, cancel context.CancelFunc) {
	defer close(done)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var buf []byte
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			buf = tcp.AppendFrame(buf[:0], tcp.FrameHeartbeat,
				appendHeartbeat(nil, st.clusterID, st.rounds(), st.drainSpans(maxSpanBatch)))
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
}

// execute runs the job's hosted slice and returns the encoded result
// frame body. The engine is published into st once it exists, so
// heartbeats carry live round counts.
func (w *Worker) execute(ctx context.Context, job *Job, st *jobState) ([]byte, error) {
	me := job.Workers[job.Index]
	lo, hi := me.Lo, me.Hi
	k := job.K()
	base := job.config()

	peers, err := w.formMesh(ctx, job)
	if err != nil {
		return nil, fmt.Errorf("dist: forming mesh: %w", err)
	}
	peersOwned := true // until the transport takes them
	defer func() {
		if peersOwned {
			for _, p := range peers {
				p.Close()
			}
		}
	}()

	src, closer, err := OpenJobSource(job.Source)
	if err != nil {
		return nil, err
	}
	pseed := uint64(base.Seed) ^ 0x9e37
	part, err := kmachine.LoadShardsRange(src, k, func(v int) int { return kmachine.HomeOf(pseed, k, v) }, lo, hi)
	closer.Close()
	if err != nil {
		return nil, err
	}
	n := part.N()

	// Traced jobs record phase spans: the engine's phase hook (on the
	// lowest hosted machine) marks each phase boundary, annotated with
	// local wire-traffic and barrier-wait deltas read from the tcp
	// transport's flight recorder. The heartbeat loop streams the spans
	// back in bounded batches; the remainder rides the result frame.
	var rec *transport.SpanRecorder
	var flight *transport.FlightRecorder // set by the transport factory below
	if job.TraceID != 0 {
		rec = transport.NewSpanRecorder(func() (int64, int64, int64) {
			if flight == nil {
				return 0, 0, 0
			}
			_, fr, by, wait := flight.Totals()
			return fr, by, wait
		})
		st.spans.Store(rec)
	}

	// A decoded job carries the shared configuration in both Conn and
	// MST.Config, so one resolution serves either kind.
	cfg := job.MST.WithDefaults(n)
	if rec != nil {
		cfg.PhaseHook, cfg.PhaseHookID = rec.Hook(), lo
	}
	handler := core.ConnectivityHandler(part.Shard, cfg.Config)
	if job.Kind == KindMST {
		handler = core.MSTHandler(part.Shard, cfg)
	}

	cluster, err := kmachine.NewWithTransport(cfg.MachineConfig(), func(p transport.Params, met *transport.Metrics) (transport.Transport, error) {
		tr, err := tcp.New(p, met, lo, hi, peers)
		if err == nil {
			peersOwned = false
			flight = tr.Flight()
		}
		return tr, err
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close() // the peer links; a cancelled job's peers abort on seeing them go
	st.cluster.Store(cluster)
	kres, err := cluster.RunContext(ctx, handler)
	if err != nil {
		return nil, err
	}
	var tail []transport.PhaseSpan
	if rec != nil {
		// Seal the trailing sync span so per-worker span rounds
		// telescope exactly to the merged Metrics.Rounds, then flush
		// whatever the heartbeats have not yet carried.
		rec.Finish(kres.Metrics.Rounds)
		tail = rec.Drain(0)
	}

	body := wire.AppendUvarint(nil, uint64(n))
	body = wire.AppendUvarint(body, uint64(lo))
	body = wire.AppendUvarint(body, uint64(hi))
	body = transport.AppendMetrics(body, &kres.Metrics)
	for id := lo; id < hi; id++ {
		body, err = core.AppendOutput(body, kres.Outputs[id])
		if err != nil {
			return nil, err
		}
	}
	body = appendSpans(body, tail)
	return body, nil
}

// formMesh establishes this worker's peer links: dial every lower-index
// participant, accept from every higher-index one (routed here by the
// listener via the cluster's mesh inbox).
func (w *Worker) formMesh(ctx context.Context, job *Job) ([]*tcp.Peer, error) {
	me := job.Workers[job.Index]
	base := job.config()
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
