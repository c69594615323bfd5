package dist

import (
	"context"
	"fmt"
	"net"
	"time"

	"kmgraph/internal/core"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/resident"
	"kmgraph/internal/transport"
	"kmgraph/internal/transport/tcp"
)

// FleetSpec names a graph served by a kmworker fleet.
type FleetSpec struct {
	// Source is the source spec every worker loads its shards from
	// (store:<path>, gnm:<n>:<m>:<seed>, rmat:<n>:<m>:<seed>). Store
	// paths must be readable by the workers.
	Source string
	// Addrs are the kmworker addresses. A residency needs the whole fleet.
	Addrs []string
	// Coord tunes the heartbeat deadline, retry recovery, flight log and
	// per-worker progress hook of the residency's commands. The zero value
	// uses coordinator defaults (30s heartbeat deadline, no retries).
	Coord CoordOptions
}

// OpenFleet returns the resident engine whose k machines live on the
// kmworkers of spec, each keeping its range's residency — loaded from
// spec.Source by the first job — for as long as its control connection is
// open, so answers and Metrics are a local engine's on the same graph and
// cfg. The workers receive cfg.Config, the algorithm's parameters; the
// engine's own fields stay here. A worker lost while the epoch is
// 0 costs a reopen from the source under spec.Coord.Retry; after an
// applied batch it ends the residency with ErrLinkDown.
func OpenFleet(spec FleetSpec, cfg resident.Config) (*resident.Engine, error) {
	if len(spec.Addrs) == 0 || cfg.K < len(spec.Addrs) {
		return nil, fmt.Errorf("dist: %w: k=%d machines over %d workers (need 1 <= workers <= k)",
			resident.ErrBadConfig, cfg.K, len(spec.Addrs))
	}
	f := &fleet{addrs: spec.Addrs, opts: spec.Coord.withDefaults(), job: Job{Source: spec.Source, Config: cfg.Config}}
	if cfg.Observer != nil {
		f.tr = &spanLog{}
	}
	n := 0 // where this process can read the source, k is checked against n now
	if src, c, err := OpenJobSource(spec.Source); err == nil {
		n = src.N()
		c.Close()
	}
	return resident.NewRemote(cfg, n, f)
}

// fleet is the host of a fleet-backed engine (resident.Remote): the
// control connections of its residency's workers, each of which keeps the
// residency for exactly as long as its connection is open.
type fleet struct {
	addrs    []string // Respawn may replace them
	job      Job
	opts     CoordOptions
	tr       *spanLog   // nil: untraced
	conns    []net.Conn // nil: no residency open
	ranges   [][2]int
	failedAt time.Time // the first failure of a recovery in progress
}

// Run ships one command to every worker — opening a fresh residency first
// when none is open — and gathers their outputs. A cancelled ctx sends a
// Bye, which the machines agree on at their next phase boundary; a
// residency still opening is hung up on.
func (f *fleet) Run(ctx context.Context, cmd []byte, phase core.PhaseFunc) (*kmachine.Result, []transport.WorkerSpans, error) {
	opening := f.conns == nil
	err := f.open()
	conns := f.conns
	cancel := func() {
		for _, c := range conns {
			if opening {
				c.Close()
			} else {
				tcp.WriteFrame(c, tcp.FrameBye, nil)
			}
		}
	}
	if f.tr != nil {
		f.tr.phase = phase
	}
	var res *kmachine.Result
	if err == nil {
		if err = f.send(tcp.FrameJob, cmd); err == nil {
			res, err = f.gather(ctx, cancel)
		}
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if !f.failedAt.IsZero() {
		recoveryHistogram().Observe(time.Since(f.failedAt).Seconds())
		f.failedAt = time.Time{}
	}
	return res, f.tr.streams(), nil
}

// open ships the job to every worker with its machine range, under a
// fresh cluster ID (and, traced, a trace ID), unless a residency is open.
func (f *fleet) open() error {
	if f.conns != nil {
		return nil
	}
	ranges, err := SplitRanges(f.job.Config.K, len(f.addrs))
	if err != nil {
		return err
	}
	job := f.job
	job.ClusterID = newClusterID()
	job.Workers = make([]WorkerSpec, len(f.addrs))
	for i, a := range f.addrs {
		job.Workers[i] = WorkerSpec{Addr: a, Lo: ranges[i][0], Hi: ranges[i][1]}
	}
	if f.tr != nil {
		job.TraceID = newClusterID()
	}
	if f.opts.Flight != nil {
		f.opts.Flight.reset()
	}
	f.conns, f.ranges = make([]net.Conn, len(f.addrs)), ranges
	for i, a := range f.addrs {
		conn, err := net.DialTimeout("tcp", a, 10*time.Second)
		if err == nil {
			f.conns[i] = conn
			job.Index = i
			err = tcp.WriteFrame(conn, tcp.FrameJob, AppendJob(nil, &job))
		}
		if err != nil {
			return f.crashed(i, fmt.Errorf("dist: starting job on worker: %w", err))
		}
	}
	return nil
}

// crashed classifies a worker that could not be reached, or was gone
// before it took a frame, as a crashed one, so the retry policy (and
// Respawn) can recover from it.
func (f *fleet) crashed(i int, err error) error {
	workerFailuresCounter(transport.ReasonCrash).Inc()
	return &transport.LinkDownError{Peer: i, Addr: f.addrs[i], Reason: transport.ReasonCrash, Err: err}
}

// send writes one frame to every worker.
func (f *fleet) send(t tcp.FrameType, body []byte) error {
	for i, c := range f.conns {
		if err := tcp.WriteFrame(c, t, body); err != nil {
			return f.crashed(i, fmt.Errorf("dist: sending to worker: %w", err))
		}
	}
	return nil
}

// hangUp closes the residency's control connections: the workers end it,
// and one still running a command aborts, which propagates through the
// mesh as closing links.
func (f *fleet) hangUp() {
	for _, c := range f.conns {
		if c != nil {
			c.Close()
		}
	}
}

// Retry applies the fleet's retry policy to a lost residency.
func (f *fleet) Retry(ctx context.Context, attempt int, cause error) error {
	if f.failedAt.IsZero() {
		f.failedAt = time.Now()
	}
	return f.opts.Retry.again(ctx, attempt, cause, &f.addrs)
}

// Close hangs up on the workers, which end the residency.
func (f *fleet) Close() error {
	f.hangUp()
	f.conns = nil
	return nil
}

type gathered struct {
	idx int
	rf  *resultFrame
	err error
}

// gather reads one result frame from every worker and merges the partials
// into the run's Result. If ctx ends first, cancel runs. The first failure
// hangs up at once, so the other gathers wake on their closed connections
// instead of waiting the run out; later errors are self-inflicted by that
// and are not recorded.
func (f *fleet) gather(ctx context.Context, cancel func()) (*kmachine.Result, error) {
	if f.tr != nil {
		f.tr.reset(f.ranges)
	}
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			cancel()
		case <-watchDone:
		}
	}()
	results := make(chan gathered, len(f.conns))
	for i, conn := range f.conns {
		go func(i int, conn net.Conn) {
			rf, err := gatherOne(conn, i, f.addrs[i], f.opts, f.tr)
			results <- gathered{idx: i, rf: rf, err: err}
		}(i, conn)
	}
	k := f.job.Config.K
	met, outputs := transport.NewMetrics(k), make([]any, k)
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			f.hangUp()
		}
	}
	for range f.conns {
		g := <-results
		if g.err != nil {
			fail(fmt.Errorf("dist: worker %d (%s): %w", g.idx, f.addrs[g.idx], g.err))
			continue
		}
		rf, want := g.rf, f.ranges[g.idx]
		if rf.lo != want[0] || rf.hi != want[1] {
			fail(fmt.Errorf("dist: worker %d reported range [%d,%d), want [%d,%d)",
				g.idx, rf.lo, rf.hi, want[0], want[1]))
			continue
		}
		if err := transport.MergeMetrics(met, rf.metrics); err != nil {
			fail(err)
			continue
		}
		copy(outputs[rf.lo:], rf.outputs)
	}
	if firstErr != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, firstErr
	}
	met.Finish()
	return &kmachine.Result{Metrics: *met, Outputs: outputs}, nil
}
