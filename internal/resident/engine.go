package resident

import (
	"context"
	"sync"
	"sync/atomic"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/mincut"
	"kmgraph/internal/verify"
)

// Engine is a resident k-machine cluster: the graph is loaded and
// partitioned once at New, then every algorithm family runs as a job
// against the residency. Jobs are serialized through an admission
// semaphore, so an Engine is safe for concurrent use; callers queue in
// submission order and a queued caller whose context is cancelled never
// runs.
type Engine struct {
	cfg    Config
	ccfg   core.Config
	n      int
	k      int
	banksN int

	// The residency: the cluster (each machine's Ctx, the link queues, the
	// cumulative Metrics) and one rmachine of kept state per machine. Every
	// command is one ordinary run of the cluster over them; between
	// commands they are memory and nothing else.
	kc *kmachine.Cluster
	ms []*rmachine

	// sem admits one job at a time; every field below the semaphore is
	// guarded by holding it (New initializes them before any job can run).
	sem          chan struct{}
	closed       bool
	dead         error // the run error that ended the residency, if one did
	lastMaxRound int
	jobSeq       int

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

	// statMu guards the counters surfaced by Metrics, which must be
	// readable while a job is in flight.
	statMu      sync.Mutex
	loadMetrics kmachine.Metrics
	total       kmachine.Metrics // the cluster's Result.Metrics after the last run
	jobs        int
	batches     int
	queries     int
	edges       int
	banks       BankMetrics
}

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
// another backend. No answer or cost depends on it. The load is the first
// command, in which every machine adopts its shard.
func newOn(src graph.EdgeSource, cfg Config, mk kmachine.TransportMaker) (*Engine, error) {
	n := src.N()
	if err := validConfig(n, cfg); err != nil {
		return nil, err
	}
	part, err := kmachine.LoadShards(src, cfg.K, uint64(cfg.Seed)^0x9e37)
	if err != nil {
		return nil, err
	}
	ccfg := cfg.coreConfig(n)
	banksN := cfg.Banks
	if banksN <= 0 {
		banksN = defaultBanks(n)
	}
	kc, err := kmachine.NewWithTransport(ccfg.MachineConfig(), mk)
	if err != nil {
		return nil, err
	}

	e := &Engine{
		cfg:    cfg,
		ccfg:   ccfg,
		n:      n,
		k:      ccfg.K,
		banksN: banksN,
		kc:     kc,
		ms:     make([]*rmachine, ccfg.K),
		sem:    make(chan struct{}, 1),
		edges:  part.M(),
	}
	_, _, err = e.run(func(ctx *kmachine.Ctx) error {
		view := part.Shard(ctx.ID())
		m := &rmachine{
			e:      e,
			ctx:    ctx,
			mg:     core.NewMerger(ctx, view, ccfg),
			view:   view,
			ccfg:   ccfg,
			banksN: banksN,
		}
		e.ms[ctx.ID()] = m
		return m.load()
	})
	if err != nil {
		kc.Close()
		return nil, err
	}
	e.loadMetrics = e.total
	loadEv := Event{Job: "load", Seq: 0, Phase: -1, Round: e.lastMaxRound, Done: true}
	if cfg.PhaseMetrics {
		snap := e.loadMetrics
		loadEv.Snap = &snap
		delta := kmachine.Metrics{Rounds: snap.Rounds, Messages: snap.Messages, PayloadBytes: snap.PayloadBytes}
		loadEv.Delta = &delta
	}
	e.notify(loadEv)
	return e, nil
}

// notify delivers an event to the user Observer. The callback runs on
// engine goroutines (machine 0 for phase events, the submitter for job
// events), so a panic out of it would otherwise take the whole cluster
// down; instead it is recovered here, counted, and latched so the
// current job fails with ErrObserverPanic.
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
// stop; resident machines poll it through PhaseSync's collectives.
func (e *Engine) jobCancelled() bool {
	p := e.cancel.Load()
	return p != nil && p.Load()
}

// run executes one command — h over the machines' kept state — as one
// ordinary run of the cluster, and returns the machines' outputs plus the
// cluster-round delta it cost. A run that fails ends the residency: the
// machines are wherever the failure caught them, so this command and
// every later one return its error.
func (e *Engine) run(h kmachine.Handler) ([]any, int, error) {
	if e.dead != nil {
		return nil, 0, e.dead
	}
	res, err := e.kc.Run(h)
	if err != nil {
		e.dead = err
		return nil, 0, err
	}
	maxR := e.lastMaxRound
	var banks BankMetrics
	for _, m := range e.ms {
		if r := m.ctx.Round(); r > maxR {
			maxR = r
		}
		banks.add(m.banks.stats)
		banks.PoolPeak += m.mg.Pool().Peak()
	}
	banks.KeptBytes = int64(banks.KeptSums) * int64(e.ccfg.Sketch.Cells()) * cellBytes
	e.statMu.Lock()
	e.banks = banks
	e.total = res.Metrics
	e.statMu.Unlock()
	delta := maxR - e.lastMaxRound
	e.lastMaxRound = maxR
	return res.Outputs, delta, nil
}

// command is run for a program over one machine's kept state whose return
// value is that machine's output.
func (e *Engine) command(prog func(m *rmachine) any) ([]any, int, error) {
	return e.run(func(ctx *kmachine.Ctx) error {
		ctx.SetOutput(prog(e.ms[ctx.ID()]))
		return nil
	})
}

// jobToken is the admission record of one running job.
type jobToken struct {
	e         *Engine
	name      string
	seq       int
	ctx       context.Context
	cancelFn  context.CancelFunc // non-nil when begin applied Config.JobTimeout
	startR    int
	epoch     uint64 // graph epoch at admission (stable for read-only jobs)
	before    kmachine.Metrics
	stopWatch chan struct{}
}

// begin admits a job: it waits on the semaphore (honoring ctx while
// queued), installs the cancellation flag the machines poll, and records
// the metrics baseline for the job's cost delta.
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
	} else if e.dead != nil {
		err = e.dead
	}
	if err != nil {
		<-e.sem
		return nil, err
	}
	admitted = true
	e.jobSeq++
	t := &jobToken{e: e, name: name, seq: e.jobSeq, ctx: ctx, cancelFn: cancelFn,
		startR: e.lastMaxRound, epoch: e.epoch.Load()}
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
	startEv := Event{Job: name, Seq: t.seq, Phase: -1, Round: t.startR}
	if e.cfg.PhaseMetrics {
		snap := t.before
		startEv.Snap = &snap
	}
	e.notify(startEv)
	return t, nil
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
	doneEv := Event{Job: t.name, Seq: t.seq, Phase: -1, Round: e.lastMaxRound, Done: true, Err: errStr}
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

// endOK completes a job that succeeded on its own terms, unless the
// Observer panicked somewhere during it — then the job fails with
// ErrObserverPanic instead (the caller's progress stream is incomplete
// and must not be trusted silently). Returns the job's cost delta and
// the final job error.
func (t *jobToken) endOK() (kmachine.Metrics, error) {
	var jobErr error
	if t.e.obsTripped.Load() {
		jobErr = ErrObserverPanic
	}
	return t.end(jobErr), jobErr
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
func (e *Engine) ApplyBatch(ctx context.Context, ops []graph.EdgeOp) (*BatchResult, error) {
	t, err := e.begin(ctx, "batch")
	if err != nil {
		return nil, err
	}
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
	outs, rounds, err := e.command(func(m *rmachine) any { return m.applyBatch(clean) })
	if err != nil {
		t.end(err)
		return nil, err
	}
	r0 := outs[0].(*batchOutput)
	e.statMu.Lock()
	e.batches++
	e.edges += r0.appliedIns - r0.appliedDel
	e.statMu.Unlock()
	if r0.applied > 0 {
		// The edge set changed: cached answers for the previous epoch are
		// stale. A fully-rejected batch leaves the epoch (and caches) alive.
		e.epoch.Add(1)
	}
	epochAfter := e.epoch.Load() // exact: read while still holding the job slot
	res := &BatchResult{
		Ops:             len(ops),
		Applied:         r0.applied,
		RejectedInserts: r0.rejIns,
		RejectedDeletes: r0.rejDel,
		RejectedInvalid: invalid,
		Rounds:          rounds,
		Epoch:           epochAfter,
	}
	if _, oerr := t.endOK(); oerr != nil {
		// The batch is applied (the result is real); the error reports
		// the broken observer hook, not a rejected mutation.
		return res, oerr
	}
	return res, nil
}

// Query answers connectivity on the current graph: component labels, the
// component count, and a spanning forest, plus this query's incremental
// cost accounting. A cancelled query returns ctx.Err(); the engine stays
// consistent and serviceable.
func (e *Engine) Query(ctx context.Context) (*QueryResult, error) {
	t, err := e.begin(ctx, "connectivity")
	if err != nil {
		return nil, err
	}
	rs, rounds, err := e.command(func(m *rmachine) any { return m.query(t) })
	if err != nil {
		t.end(err)
		return nil, err
	}
	e.statMu.Lock()
	e.queries++
	e.statMu.Unlock()
	outs, cancelled := jobOutputs(rs)
	if cancelled {
		err := t.cancelErr()
		t.end(err)
		return nil, err
	}
	cr, err := core.Assemble(e.n, outs)
	if cr == nil {
		t.end(err)
		return nil, err
	}
	q := rs[0].(*jobOutput).query
	res := &QueryResult{
		Labels:            cr.Labels,
		Components:        q.components,
		Forest:            q.forest,
		Phases:            cr.Phases,
		Rounds:            rounds,
		SketchFailures:    cr.SketchFailures,
		CollapseIters:     cr.CollapseIters,
		RelabeledVertices: q.relabeled,
		CertificateEdges:  q.certEdges,
		MergeEdges:        q.mergeEdges,
		Epoch:             t.epoch,
	}
	if err != nil { // ErrNotConverged: the partial answer goes back with it
		t.end(err)
		return res, err
	}
	if _, oerr := t.endOK(); oerr != nil {
		return res, oerr
	}
	return res, nil
}

// jobOutputs splits one phase-driven job's machine outputs into the
// per-machine outputs core assembles and whether the job was cancelled
// (which the machines observe jointly, so any one output carries it).
func jobOutputs(rs []any) (outs []any, cancelled bool) {
	outs = make([]any, len(rs))
	for i, r := range rs {
		outs[i] = r.(*jobOutput).machine
	}
	return outs, rs[0].(*jobOutput).cancelled
}

// MST constructs the minimum spanning forest of the current graph
// (Theorem 2) as a job against the residency: fresh singleton labels, the
// same MWOE machinery as the one-shot algorithm, no graph re-load. With
// strong set, every MST edge is also delivered to both endpoints' home
// machines (Theorem 2(b)).
func (e *Engine) MST(ctx context.Context, strong bool) (*core.MSTResult, error) {
	t, err := e.begin(ctx, "mst")
	if err != nil {
		return nil, err
	}
	startR := e.lastMaxRound
	rs, _, err := e.command(func(m *rmachine) any { return m.runMST(t, strong) })
	if err != nil {
		t.end(err)
		return nil, err
	}
	outs, cancelled := jobOutputs(rs)
	if cancelled {
		err := t.cancelErr()
		t.end(err)
		return nil, err
	}
	out, err := core.AssembleMST(e.n, outs)
	if out == nil {
		t.end(err)
		return nil, err
	}
	out.WeakRounds -= startR // machines report session-cumulative rounds
	if err != nil {
		// ErrNotConverged: the edges decided so far are MST edges; the
		// forest is not whole.
		out.Metrics = t.end(err)
		return out, err
	}
	var oerr error
	out.Metrics, oerr = t.endOK()
	return out, oerr
}

// runDerived executes one derived-view connectivity run under an admitted
// job and returns what the reductions read off it, plus the rounds it cost.
func (e *Engine) runDerived(t *jobToken, spec *runSpec) (verify.Run, int, error) {
	if err := t.ctx.Err(); err != nil {
		return verify.Run{}, 0, err
	}
	rs, rounds, err := e.command(func(m *rmachine) any { return m.runDerived(t, spec) })
	if err != nil {
		return verify.Run{}, 0, err
	}
	outs, cancelled := jobOutputs(rs)
	if cancelled {
		return verify.Run{}, 0, t.cancelErr()
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
		run.ProbePresent = run.ProbePresent || r.(*jobOutput).probePresent
	}
	return run, rounds, nil
}

// MinCut estimates the edge connectivity of the current graph within an
// O(log n) factor (Theorem 3): the resident host of mincut.Search, each
// sampling trial a derived-view connectivity run on the residency. trials
// and maxLevel are mincut.Search's (0 selects 3 and 40).
func (e *Engine) MinCut(ctx context.Context, trials, maxLevel int) (*mincut.Result, error) {
	t, err := e.begin(ctx, "mincut")
	if err != nil {
		return nil, err
	}
	total := 0
	res, err := mincut.Search(e.n, e.ccfg.Seed, trials, maxLevel, func(level, _ int, tseed, threshold uint64) (int, error) {
		spec := newRunSpec(viewFull)
		if level > 0 {
			spec.kind, spec.tseed, spec.threshold = viewSample, tseed, threshold
		}
		run, rounds, err := e.runDerived(t, spec)
		total += rounds
		return run.Components, err
	})
	if err != nil {
		t.end(err)
		return nil, err
	}
	res.Rounds = total
	var oerr error
	res.Metrics, oerr = t.endOK()
	return res, oerr
}

// Verify runs one of the Theorem 4 verification problems against the
// current graph: the resident host of verify.Decide, each run of the
// reduction a derived-view connectivity run on the residency.
func (e *Engine) Verify(ctx context.Context, p Problem, args VerifyArgs) (*verify.Outcome, error) {
	t, err := e.begin(ctx, "verify")
	if err != nil {
		return nil, err
	}
	e.statMu.Lock()
	m := e.edges // stable for the job: only ApplyBatch changes it, and jobs serialize
	e.statMu.Unlock()
	total := 0
	out, err := verify.Decide(p, args, e.n, m, func(v verify.View) (verify.Run, error) {
		run, rounds, err := e.runDerived(t, specForView(v, e.n))
		total += rounds
		return run, err
	})
	if err != nil {
		t.end(err)
		return nil, err
	}
	out.Rounds = total
	var oerr error
	out.Metrics, oerr = t.endOK()
	return out, oerr
}

// Metrics reports the engine's cumulative cost accounting. It is safe to
// call concurrently with running jobs; Total reflects the state at the
// last completed job (plus the load).
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

// N returns the (fixed) vertex count.
func (e *Engine) N() int { return e.n }

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
		if e.dead == nil {
			for _, m := range e.ms {
				m.banks.close()
				m.mg.ReleasePools()
			}
		}
		e.ms = nil
		e.kc.Close()
	}
	total := e.total
	return &total, e.dead
}
