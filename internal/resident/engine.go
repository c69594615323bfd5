package resident

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/mincut"
	"kmgraph/internal/transport"
	"kmgraph/internal/verify"
)

// Engine is a resident k-machine cluster: the graph is loaded and
// partitioned once, then every algorithm family runs as a job against the
// residency. Its machines are its own (New, NewFromSource) or a kmworker
// fleet's (NewRemote); nothing else about it depends on which. Jobs are
// serialized through an admission semaphore, so an Engine is safe for
// concurrent use; callers queue in submission order and a queued caller
// whose context is cancelled never runs.
type Engine struct {
	cfg  Config
	n, k int

	// The host, exactly one of the two: the machines the engine holds
	// itself, or the fleet holding them. Every command is one ordinary run
	// of the host's cluster over the machines' kept state; between commands
	// they are memory and nothing else.
	local  *Machines
	remote Remote

	// sem admits one job at a time; every field below the semaphore is
	// guarded by holding it (New initializes them before any job can run).
	sem    chan struct{}
	closed bool
	dead   error // the run error that ended the residency, if one did
	jobSeq int

	cancel atomic.Pointer[atomic.Bool] // current job's cancel flag

	// observerPanics counts recovered Observer panics for the session;
	// obsTripped marks that one fired during the current job (reset at
	// job begin, checked at job end — jobs serialize, so a trip always
	// belongs to the job that observes it).
	observerPanics atomic.Uint64
	obsTripped     atomic.Bool

	// epoch counts graph mutations (ApplyBatch calls that changed the
	// edge set); it is readable while a job is in flight.
	epoch atomic.Uint64
	// queued/running snapshot the admission queue; guarded by statMu so
	// a Queue()/Metrics() reader never sees one job counted twice (or
	// not at all) mid-transition.
	queued, running int

	// statMu guards the counters surfaced by Metrics (and n, which a
	// fleet's first load learns), which must be readable while a job is in
	// flight.
	statMu      sync.Mutex
	loadMetrics kmachine.Metrics
	total       kmachine.Metrics // the cluster's Result.Metrics after the last run
	jobs        int
	batches     int
	queries     int
	edges       int
	banks       BankMetrics
}

// errNotOpen is a fleet engine's state until a job opens its residency.
var errNotOpen = errors.New("resident: residency not open")

// New loads g across a fresh cluster: NewFromSource on the graph's own
// edge stream.
func New(g *graph.Graph, cfg Config) (*Engine, error) { return NewFromSource(g.Source(), cfg) }

// NewFromSource loads a streamed graph under a random vertex partition and
// blocks until every machine finishes the load phase (shared randomness,
// bank seeds, resident adjacency): src is consumed by the kmachine shard
// loader (two streaming passes), each endpoint hashed to its home machine,
// and each machine adopts its shard as its live graph without copying. No
// global graph.Graph is ever materialized — this is the out-of-core
// serving path. The load is the only time the graph is distributed; its
// cost is recorded in Metrics().Load.
func NewFromSource(src graph.EdgeSource, cfg Config) (*Engine, error) { return newOn(src, cfg, nil) }

// newOn is NewFromSource with the rounds carried by the transport mk
// builds (nil: transport/local); tests use it to put a residency on
// another backend. No answer or cost depends on it.
func newOn(src graph.EdgeSource, cfg Config, mk kmachine.TransportMaker) (*Engine, error) {
	part, err := Load(src, cfg, 0, cfg.K)
	if err != nil {
		return nil, err
	}
	h, err := NewMachines(part, cfg, mk)
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, n: part.N(), k: cfg.K, local: h, sem: make(chan struct{}, 1)}
	if err := e.load(context.Background()); err != nil {
		h.Close()
		return nil, err
	}
	return e, nil
}

// NewRemote returns an engine whose machines r hosts in other processes
// (internal/dist's kmworker fleet) for a graph of n vertices — or, n = 0,
// of a count the load learns (and k's own bounds are all there is to check
// before it). Nothing runs until the first job, which opens the residency.
func NewRemote(cfg Config, n int, r Remote) (*Engine, error) {
	if err := validConfig(cmp.Or(n, cfg.K), cfg); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, n: n, k: cfg.K, remote: r, dead: errNotOpen, sem: make(chan struct{}, 1)}, nil
}

// load opens the residency — on a fleet, a fresh one from the immutable
// source — with its first command, in which every machine adopts its shard
// and the shared randomness is set up. Its cost is Metrics().Load.
func (e *Engine) load(ctx context.Context) error {
	outs, _, err := e.exec(&jobToken{e: e, ctx: ctx}, &command{kind: cmdLoad})
	if err != nil {
		return err
	}
	e.statMu.Lock()
	e.n, e.edges, e.loadMetrics = outs[0].n, outs[0].m, e.total
	e.statMu.Unlock()
	ev := Event{Job: "load", Seq: 0, Phase: -1, Round: e.total.Rounds, Done: true}
	if e.cfg.PhaseMetrics {
		snap := e.loadMetrics
		ev.Snap = &snap
		ev.Delta = &kmachine.Metrics{Rounds: snap.Rounds, Messages: snap.Messages, PayloadBytes: snap.PayloadBytes}
	}
	e.notify(ev)
	return nil
}

// notify delivers an event to the user Observer. The callback runs on
// engine goroutines (the lowest machine's, or a fleet's control link, for
// phase events; the submitter for job events), so a panic out of it would
// otherwise take the whole cluster down; instead it is recovered here,
// counted, and latched so the current job fails with ErrObserverPanic.
func (e *Engine) notify(ev Event) {
	if e.cfg.Observer == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			e.observerPanics.Add(1)
			e.obsTripped.Store(true)
		}
	}()
	e.cfg.Observer(ev)
}

// jobCancelled reports whether the currently running job has been asked to
// stop; the engine's own machines poll it through the phase sums PhaseSync
// carries on its relabel exchange (a fleet's hear it from Remote.Run's
// context).
func (e *Engine) jobCancelled() bool {
	p := e.cancel.Load()
	return p != nil && p.Load()
}

// exec runs c on every machine as one run of the host for job t and
// returns the machines' outputs with the rounds the run cost. A run that
// fails ends the residency: its error is latched.
func (e *Engine) exec(t *jobToken, c *command) ([]*output, int, error) {
	var res *kmachine.Result
	var err error
	if e.remote != nil {
		var workers []transport.WorkerSpans
		res, workers, err = e.remote.Run(t.ctx, appendCommand(nil, c), t.phases())
		t.addWorkers(workers)
	} else {
		res, err = e.local.run(context.Background(), c, e.jobCancelled, t.phases())
	}
	if err != nil {
		e.dead = err
		return nil, 0, err
	}
	outs := make([]*output, len(res.Outputs))
	var banks BankMetrics
	for i, o := range res.Outputs {
		outs[i] = o.(*output)
		banks.add(outs[i].banks)
	}
	rounds := res.Metrics.Rounds - e.total.Rounds
	e.statMu.Lock()
	e.banks, e.total = banks, res.Metrics
	e.statMu.Unlock()
	return outs, rounds, nil
}

// ready returns the error that ended the residency, if one did, for job t
// to fail with — except on a fleet while the epoch is 0, with nothing lost:
// the residency (re)opens from the immutable source, at once when a job
// finds it not open or lost, and after a lost worker (ErrLinkDown) fails an
// attempt of the job as often as the fleet's retry policy allows.
func (e *Engine) ready(t *jobToken, failed bool) error {
	for e.dead != nil && e.remote != nil && e.epoch.Load() == 0 {
		if failed {
			if !errors.Is(e.dead, transport.ErrLinkDown) {
				break
			}
			if err := e.remote.Retry(t.ctx, t.attempt, e.dead); err != nil {
				return err
			}
			t.attempt++
		}
		failed = true
		if e.dead = e.load(t.ctx); e.dead == nil {
			t.before, t.workers = e.total, nil
		}
	}
	return e.dead
}

// run executes command c of job t — on a fleet's reopened residency when
// ready reopens a lost one — and returns the outputs and the rounds it cost.
func (e *Engine) run(t *jobToken, c *command) ([]*output, int, error) {
	for {
		outs, rounds, err := e.exec(t, c)
		if err == nil {
			return outs, rounds, nil
		}
		if err := e.ready(t, true); err != nil {
			return nil, 0, err
		}
	}
}

// jobToken is the admission record of one running job.
type jobToken struct {
	e         *Engine
	name      string
	seq       int
	ctx       context.Context
	cancelFn  context.CancelFunc // non-nil when begin applied Config.JobTimeout
	epoch     uint64             // graph epoch at admission (stable for read-only jobs)
	before    kmachine.Metrics
	stopWatch chan struct{}
	attempt   int                     // the job's tries on a fleet so far
	lastPhase int                     // the round of the last phase boundary reported
	workers   []transport.WorkerSpans // a fleet's phase spans of the job
}

// begin admits a job: it waits on the semaphore (honoring ctx while
// queued), makes the residency ready (a fleet's first job opens it),
// installs the cancellation flag the machines poll, and records the
// metrics baseline for the job's cost delta. A job on a residency that a
// run error ended fails at once, with that error.
func (e *Engine) begin(ctx context.Context, name string) (*jobToken, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var cancelFn context.CancelFunc
	if d := e.cfg.JobTimeout; d > 0 {
		if _, has := ctx.Deadline(); !has {
			ctx, cancelFn = context.WithTimeout(ctx, d)
		}
	}
	e.statMu.Lock()
	e.queued++
	e.statMu.Unlock()
	admitted := false
	defer func() {
		if !admitted {
			e.statMu.Lock()
			e.queued--
			e.statMu.Unlock()
			if cancelFn != nil {
				cancelFn()
			}
		}
	}()
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	err := ctx.Err()
	if e.closed {
		err = ErrClosed
	}
	if err != nil {
		<-e.sem
		return nil, err
	}
	admitted = true
	e.jobSeq++
	t := &jobToken{e: e, name: name, seq: e.jobSeq, ctx: ctx, cancelFn: cancelFn, attempt: 1}
	err = e.ready(t, false)
	t.epoch = e.epoch.Load()
	e.statMu.Lock()
	e.queued--
	e.running = 1
	t.before = e.total
	e.statMu.Unlock()
	if ctx.Done() != nil {
		// Only cancellable contexts need the watcher; Background-context
		// jobs (the common serving path) skip the goroutine entirely.
		flag := &atomic.Bool{}
		e.cancel.Store(flag)
		t.stopWatch = make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				flag.Store(true)
			case <-t.stopWatch:
			}
		}()
	}
	e.obsTripped.Store(false)
	startEv := Event{Job: name, Seq: t.seq, Phase: -1, Round: t.before.Rounds}
	if e.cfg.PhaseMetrics {
		snap := t.before
		startEv.Snap = &snap
	}
	e.notify(startEv)
	if err != nil {
		t.end(err)
		return nil, err
	}
	return t, nil
}

// phases is job t's phase hook: an observer event per phase boundary,
// with a metrics snapshot under PhaseMetrics where the machines are the
// engine's own (served by the coordinator out-of-band: snapshot requests
// ride the event channel but are not barrier events, so fetching one
// mid-run cannot wedge the round loop or change any metered quantity). A
// retry on a fleet replays the boundaries it had reached at the same
// rounds; each is reported once.
func (t *jobToken) phases() core.PhaseFunc {
	e := t.e
	if e.cfg.Observer == nil {
		return nil
	}
	return func(phase, round int, active, failures uint64) {
		if round <= t.lastPhase {
			return
		}
		t.lastPhase = round
		ev := Event{Job: t.name, Seq: t.seq, Phase: phase, Round: round, Active: active, Failures: failures}
		if e.cfg.PhaseMetrics && e.local != nil {
			if met, ok := e.local.kc.Snapshot(); ok {
				ev.Snap = &met
			}
		}
		e.notify(ev)
	}
}

// addWorkers appends one run's per-worker span streams to the job's.
func (t *jobToken) addWorkers(ws []transport.WorkerSpans) {
	for i, w := range ws {
		if i < len(t.workers) {
			t.workers[i].Spans = append(t.workers[i].Spans, w.Spans...)
		} else {
			t.workers = append(t.workers, w)
		}
	}
}

// end releases the job: stops the watcher, bumps counters, emits the done
// event, and frees the semaphore. It returns the job's engine-cost delta:
// the cluster's running total after the job's last run against the total
// at admission.
func (t *jobToken) end(jobErr error) kmachine.Metrics {
	e := t.e
	if t.stopWatch != nil {
		close(t.stopWatch)
		e.cancel.Store(nil)
	}
	if t.cancelFn != nil {
		t.cancelFn()
	}
	e.statMu.Lock()
	after := e.total
	delta := kmachine.Metrics{
		Rounds:       after.Rounds - t.before.Rounds,
		Messages:     after.Messages - t.before.Messages,
		PayloadBytes: after.PayloadBytes - t.before.PayloadBytes,
	}
	e.jobs++
	e.statMu.Unlock()
	errStr := ""
	if jobErr != nil {
		errStr = jobErr.Error()
	}
	doneEv := Event{Job: t.name, Seq: t.seq, Phase: -1, Round: after.Rounds, Done: true, Err: errStr, Workers: t.workers}
	if e.cfg.Observer != nil {
		// The delta is already computed; handing the observer its own
		// copy costs one small allocation per job end, never per round.
		d := delta
		doneEv.Delta = &d
		if e.cfg.PhaseMetrics {
			snap := after
			doneEv.Snap = &snap
		}
	}
	e.notify(doneEv)
	e.statMu.Lock()
	e.running = 0
	e.statMu.Unlock()
	<-e.sem
	return delta
}

// finish ends the job with *err and returns its cost delta — unless it
// succeeded on its own terms but the Observer panicked somewhere during it:
// then *err becomes ErrObserverPanic (the result stands, but the caller's
// progress stream is incomplete and must not be trusted silently).
func (t *jobToken) finish(err *error) kmachine.Metrics {
	if *err == nil && t.e.obsTripped.Load() {
		*err = ErrObserverPanic
	}
	return t.end(*err)
}

// cancelErr maps a machine-reported cancellation to the caller's context
// error.
func (t *jobToken) cancelErr() error {
	if err := t.ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// ApplyBatch applies a batch of edge operations in order. Self-loops and
// out-of-range endpoints are rejected at ingress; duplicate insertions and
// deletions of absent edges are rejected by the endpoint home machines
// (and counted), leaving the graph, sketches, and certificate untouched.
func (e *Engine) ApplyBatch(ctx context.Context, ops []graph.EdgeOp) (_ *BatchResult, err error) {
	t, err := e.begin(ctx, "batch")
	if err != nil {
		return nil, err
	}
	defer t.finish(&err) // an applied batch stands whatever the observer did
	clean := make([]graph.EdgeOp, 0, len(ops))
	invalid := 0
	for _, op := range ops {
		op = op.Canon()
		if op.U == op.V || op.U < 0 || op.V >= e.n {
			invalid++
			continue
		}
		clean = append(clean, op)
	}
	outs, rounds, err := e.run(t, &command{kind: cmdApply, ops: clean})
	if err != nil {
		return nil, err
	}
	r0 := outs[0].batch
	e.statMu.Lock()
	e.batches++
	e.edges += r0.appliedIns - r0.appliedDel
	e.statMu.Unlock()
	if r0.applied > 0 {
		// The edge set changed: cached answers for the previous epoch are
		// stale. A fully-rejected batch leaves the epoch (and caches) alive.
		e.epoch.Add(1)
	}
	return &BatchResult{
		Ops:             len(ops),
		Applied:         r0.applied,
		RejectedInserts: r0.rejIns,
		RejectedDeletes: r0.rejDel,
		RejectedInvalid: invalid,
		Rounds:          rounds,
		Epoch:           e.epoch.Load(), // exact: read while still holding the job slot
	}, nil
}

// Query answers connectivity on the current graph: component labels, the
// component count, and a spanning forest, plus this query's incremental
// cost accounting. A cancelled query returns ctx.Err(); the engine stays
// consistent and serviceable.
func (e *Engine) Query(ctx context.Context) (_ *QueryResult, err error) {
	t, err := e.begin(ctx, "connectivity")
	if err != nil {
		return nil, err
	}
	defer t.finish(&err)
	rs, outs, rounds, err := e.phased(t, &command{kind: cmdQuery})
	if err != nil {
		return nil, err
	}
	e.statMu.Lock()
	e.queries++
	e.statMu.Unlock()
	cr, err := core.Assemble(e.n, outs)
	if cr == nil {
		return nil, err
	}
	q := rs[0].query
	return &QueryResult{
		Labels:            cr.Labels,
		Components:        cr.Components,
		Forest:            q.forest,
		Phases:            cr.Phases,
		Rounds:            rounds,
		SketchFailures:    cr.SketchFailures,
		CollapseIters:     cr.CollapseIters,
		RelabeledVertices: q.relabeled,
		CertificateEdges:  q.certEdges,
		MergeEdges:        q.mergeEdges,
		Epoch:             t.epoch,
	}, err // ErrNotConverged: the partial answer goes back with it
}

// phased is run for a phase-driven command, adding the outputs core
// assembles — or the caller's context error, when the machines stopped on
// a cancel request (jointly, so any one output carries it).
func (e *Engine) phased(t *jobToken, c *command) ([]*output, []any, int, error) {
	rs, rounds, err := e.run(t, c)
	if err != nil {
		return nil, nil, 0, err
	}
	if rs[0].cancelled {
		return nil, nil, 0, t.cancelErr()
	}
	outs := make([]any, len(rs))
	for i, r := range rs {
		outs[i] = r.machine
	}
	return rs, outs, rounds, nil
}

// MST constructs the minimum spanning forest of the current graph
// (Theorem 2) as a job against the residency: fresh singleton labels, the
// same MWOE machinery as the one-shot algorithm, no graph re-load. With
// strong set, every MST edge is also delivered to both endpoints' home
// machines (Theorem 2(b)).
func (e *Engine) MST(ctx context.Context, strong bool) (out *core.MSTResult, err error) {
	t, err := e.begin(ctx, "mst")
	if err != nil {
		return nil, err
	}
	defer func() {
		if m := t.finish(&err); out != nil {
			out.Metrics = m
		}
	}()
	_, outs, rounds, err := e.phased(t, &command{kind: cmdMST, strong: strong})
	if err != nil {
		return nil, err
	}
	// With ErrNotConverged the edges decided so far are MST edges; the
	// forest is not whole.
	if out, err = core.AssembleMST(e.n, outs); out != nil {
		out.WeakRounds -= e.total.Rounds - rounds // machines report session-cumulative rounds
	}
	return out, err
}

// Static answers connectivity on the current graph with core's Theorem 1
// job from scratch — singleton labels and fresh sketches over the full
// live view, none of the maintained state — and returns core's assembly
// of it, its Metrics the run's cost. On a residency opened for it, the
// load plus this run cost what core.RunSource does on the same graph,
// bit for bit (Metrics().Total). A job that ran out of phases returns its
// partial result with core.ErrNotConverged.
func (e *Engine) Static(ctx context.Context) (out *core.Result, err error) {
	t, err := e.begin(ctx, "connectivity")
	if err != nil {
		return nil, err
	}
	defer func() {
		if m := t.finish(&err); out != nil {
			out.Metrics = m
		}
	}()
	_, outs, _, err := e.phased(t, &command{kind: cmdDerived, spec: newRunSpec(viewFull)})
	if err != nil {
		return nil, err
	}
	return core.Assemble(e.n, outs)
}

// runDerived executes one derived-view connectivity run under an admitted
// job and returns what the reductions read off it, plus the rounds it cost.
func (e *Engine) runDerived(t *jobToken, spec *runSpec) (verify.Run, int, error) {
	if err := t.ctx.Err(); err != nil {
		return verify.Run{}, 0, err
	}
	rs, outs, rounds, err := e.phased(t, &command{kind: cmdDerived, spec: spec})
	if err != nil {
		return verify.Run{}, 0, err
	}
	nView := e.n
	if spec.kind == viewCover {
		nView = 2 * e.n
	}
	cr, err := core.Assemble(nView, outs)
	if err != nil {
		return verify.Run{}, 0, err
	}
	run := verify.Run{Components: cr.Components, Labels: cr.Labels}
	for _, r := range rs {
		run.ProbePresent = run.ProbePresent || r.probePresent
	}
	return run, rounds, nil
}

// MinCut estimates the edge connectivity of the current graph within an
// O(log n) factor (Theorem 3): the resident host of mincut.Search, each
// sampling trial a derived-view connectivity run on the residency. trials
// and maxLevel are mincut.Search's (0 selects 3 and 40); a negative trials,
// or a maxLevel outside [0, 64] (the rate 2^-level needs a threshold), is
// refused with ErrBadConfig before the job starts.
func (e *Engine) MinCut(ctx context.Context, trials, maxLevel int) (res *mincut.Result, err error) {
	if trials < 0 || maxLevel < 0 || maxLevel > 64 {
		return nil, fmt.Errorf("resident: %w: mincut trials %d, max level %d (need trials >= 0, max level in [0, 64])",
			ErrBadConfig, trials, maxLevel)
	}
	t, err := e.begin(ctx, "mincut")
	if err != nil {
		return nil, err
	}
	defer func() {
		if m := t.finish(&err); res != nil {
			res.Metrics = m
		}
	}()
	total := 0
	res, err = mincut.Search(e.n, e.cfg.Seed, trials, maxLevel, func(level, _ int, tseed, threshold uint64) (int, error) {
		spec := newRunSpec(viewFull)
		if level > 0 {
			spec.kind, spec.tseed, spec.threshold = viewSample, tseed, threshold
		}
		run, rounds, err := e.runDerived(t, spec)
		total += rounds
		return run.Components, err
	})
	if err != nil {
		return nil, err
	}
	res.Rounds = total
	return res, nil
}

// Verify runs one of the Theorem 4 verification problems against the
// current graph: the resident host of verify.Decide, each run of the
// reduction a derived-view connectivity run on the residency.
func (e *Engine) Verify(ctx context.Context, p Problem, args VerifyArgs) (out *verify.Outcome, err error) {
	t, err := e.begin(ctx, "verify")
	if err != nil {
		return nil, err
	}
	defer func() {
		if m := t.finish(&err); out != nil {
			out.Metrics = m
		}
	}()
	e.statMu.Lock()
	m := e.edges // stable for the job: only ApplyBatch changes it, and jobs serialize
	e.statMu.Unlock()
	total := 0
	out, err = verify.Decide(p, args, e.n, m, func(v verify.View) (verify.Run, error) {
		run, rounds, err := e.runDerived(t, specForView(v, e.n))
		total += rounds
		return run, err
	})
	if err != nil {
		return nil, err
	}
	out.Rounds = total
	return out, nil
}

// Metrics reports the engine's cumulative cost accounting. It is safe to
// call concurrently with running jobs; Total reflects the state at the
// last completed job (plus the load). A fleet that reopens its residency
// starts its Load and Total over with it.
func (e *Engine) Metrics() Metrics {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	return Metrics{
		Load:           e.loadMetrics,
		Total:          e.total,
		LoadRounds:     e.loadMetrics.Rounds,
		Jobs:           e.jobs,
		Batches:        e.batches,
		Queries:        e.queries,
		Edges:          e.edges,
		Epoch:          e.epoch.Load(),
		QueuedJobs:     e.queued,
		RunningJobs:    e.running,
		ObserverPanics: e.observerPanics.Load(),
		Banks:          e.banks,
	}
}

// Epoch returns the graph's mutation epoch: 0 at load, bumped by every
// ApplyBatch that changed the edge set. Safe to call concurrently with
// running jobs; a result computed and tagged with epoch x is valid for
// as long as Epoch() still returns x.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// Queue snapshots the admission queue: jobs waiting on the semaphore and
// the in-flight job count (0 or 1). Safe to call concurrently with
// running jobs — the snapshot is consistent (one job is never counted
// as both queued and running); the serving layer uses it for
// backpressure decisions and introspection.
func (e *Engine) Queue() (queued, running int) {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	return e.queued, e.running
}

// N returns the (fixed) vertex count — on a fleet whose source this
// process cannot read, 0 until the first job has loaded it.
func (e *Engine) N() int {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	return e.n
}

// K returns the machine count.
func (e *Engine) K() int { return e.k }

// Close ends the residency and returns the session-wide engine metrics
// (with the run error that ended it early, if one did). Further jobs
// return ErrClosed; Close is idempotent and waits for the in-flight job,
// if any, to finish.
func (e *Engine) Close() (*kmachine.Metrics, error) {
	e.sem <- struct{}{}
	defer func() { <-e.sem }()
	if !e.closed {
		e.closed = true
		if e.remote != nil {
			e.remote.Close()
		} else {
			e.local.Close()
		}
	}
	total := e.total
	if e.dead == errNotOpen {
		return &total, nil
	}
	return &total, e.dead
}
