package dist

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/mincut"
	"kmgraph/internal/resident"
	"kmgraph/internal/transport"
	"kmgraph/internal/verify"
)

// FleetSpec names a graph served by a kmworker fleet.
type FleetSpec struct {
	// Source is the source spec every worker rematerializes its shard
	// from (store:<path>, gnm:<n>:<m>:<seed>, rmat:<n>:<m>:<seed>). Store
	// paths must be readable by the workers.
	Source string
	// Addrs are the kmworker addresses. Jobs need the whole fleet.
	Addrs []string
	// Coord tunes the heartbeat deadline, retry recovery, flight log and
	// per-worker progress hook of jobs against this fleet. The zero value
	// uses coordinator defaults (30s heartbeat deadline, no retries).
	Coord CoordOptions
}

// Fleet is the engine behind a fleet-backed Cluster: resident.Engine's
// method set with the k machines hosted by kmworker processes. Every
// connectivity or MST job is one coordinator run (runRetry) — workers
// build their shards from the source spec, run, and forget — so results
// and Metrics are bit-identical to core.RunSource / core.RunMST on the
// same source, and there is no residency: the epoch stays 0 and the job
// families that mutate or derive views of a resident graph answer
// resident.ErrUnsupported. Jobs are admitted one at a time and reported
// through the same Config.Observer stream a resident engine feeds.
type Fleet struct {
	spec   FleetSpec
	cfg    resident.Config
	sem    chan struct{} // admits one job at a time; its holder owns seq
	closed chan struct{}
	once   sync.Once
	queued atomic.Int32
	panics atomic.Uint64 // recovered Observer panics
	seq    int

	mu            sync.Mutex // guards what Metrics reads while a job runs
	n             int
	jobs, queries int
	total         kmachine.Metrics // Σ completed jobs' merged Metrics
}

// OpenFleet returns the engine for spec. Of cfg it honours what a job
// spec carries (K, Seed, BandwidthBits, MessageOverheadBits, the phase,
// round and elimination caps, the three ablation switches) plus
// JobTimeout, Observer and PhaseMetrics; sketch dimensions and bank counts
// do not cross the wire. Nothing is dialed until the first job.
func OpenFleet(spec FleetSpec, cfg resident.Config) (*Fleet, error) {
	if len(spec.Addrs) == 0 || cfg.K < len(spec.Addrs) {
		return nil, fmt.Errorf("dist: %w: k=%d machines over %d workers (need 1 <= workers <= k)",
			resident.ErrBadConfig, cfg.K, len(spec.Addrs))
	}
	f := &Fleet{spec: spec, cfg: cfg, sem: make(chan struct{}, 1), closed: make(chan struct{}),
		total: *transport.NewMetrics(cfg.K)}
	// Where this process can read the source, N is known from the start;
	// otherwise the first job's result brings it.
	if src, c, err := OpenJobSource(spec.Source); err == nil {
		f.n = src.N()
		c.Close()
	}
	return f, nil
}

// notify delivers ev to the Observer, if any, containing a panic out of
// it the way a resident engine does: counted, and failing the job it
// fired in.
func (f *Fleet) notify(ev resident.Event) {
	if f.cfg.Observer == nil {
		return
	}
	defer func() {
		if recover() != nil {
			f.panics.Add(1)
		}
	}()
	f.cfg.Observer(ev)
}

// run admits one job, runs it under the observer protocol — start, one
// phase event per phase boundary the lowest worker reports, done with
// the merged Metrics as Delta and every worker's spans — and accounts
// for it. job returns the merged Metrics and the vertex count of a job the
// workers ran to its end — also beside an error, when that end was short of
// convergence.
func (f *Fleet) run(ctx context.Context, name string, job func(context.Context, *spanLog) (*kmachine.Metrics, int, error)) error {
	if d := f.cfg.JobTimeout; d > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
	}
	err := ctx.Err()
	if err == nil {
		f.queued.Add(1)
		select {
		case f.sem <- struct{}{}:
			defer func() { <-f.sem }()
		case <-ctx.Done():
			err = ctx.Err()
		case <-f.closed:
		}
		f.queued.Add(-1)
	}
	select {
	case <-f.closed:
		err = resident.ErrClosed
	default:
	}
	if err != nil {
		return err
	}
	f.seq++
	seq, base, panics := f.seq, f.total.Rounds, f.panics.Load()

	var tr *spanLog
	last := base
	if f.cfg.Observer != nil {
		// A retry replays the same phases at the same rounds: report each
		// boundary once, so the stream's round counter never runs backwards.
		tr = &spanLog{phase: func(s transport.PhaseSpan) {
			if r := base + s.EndRound; r > last {
				last = r
				f.notify(resident.Event{Job: name, Seq: seq, Phase: s.Phase, Round: r})
			}
		}}
	}
	f.notify(resident.Event{Job: name, Seq: seq, Phase: -1, Round: base})
	met, n, err := job(ctx, tr)
	if err == nil && f.panics.Load() != panics {
		err = resident.ErrObserverPanic
	}
	done := resident.Event{Job: name, Seq: seq, Phase: -1, Round: last, Done: true}
	f.mu.Lock()
	f.jobs++
	if err != nil {
		done.Err = err.Error()
	}
	if met != nil {
		// A fresh sum per job, never mutated once published: Metrics()
		// readers and observers may keep what they were handed.
		sum := transport.SumMetrics(&f.total, met)
		f.n, f.total = n, *sum
		done.Round, done.Delta, done.Workers = sum.Rounds, met, tr.streams()
		if f.cfg.PhaseMetrics {
			done.Snap = sum
		}
	}
	f.mu.Unlock()
	f.notify(done)
	return err
}

// coreConfig is the part of the engine config a job spec carries.
func (f *Fleet) coreConfig() core.Config {
	c := f.cfg
	return core.Config{K: c.K, BandwidthBits: c.BandwidthBits, Seed: c.Seed, MaxPhases: c.MaxPhasesPerQuery,
		MaxRounds: c.MaxRounds, MessageOverheadBits: c.MessageOverheadBits,
		CollapseLevelWise: c.CollapseLevelWise, CoinMerge: c.CoinMerge, FaithfulRandomness: c.FaithfulRandomness}
}

// Query runs one distributed connectivity job. The one-shot algorithm
// keeps no certificate, so the result carries no Forest.
func (f *Fleet) Query(ctx context.Context) (*resident.QueryResult, error) {
	var out *core.Result
	err := f.run(ctx, "connectivity", func(ctx context.Context, tr *spanLog) (_ *kmachine.Metrics, _ int, err error) {
		if out, err = runConnectivity(ctx, f.spec.Addrs, f.spec.Source, f.coreConfig(), f.spec.Coord, tr); out == nil {
			return nil, 0, err
		}
		return &out.Metrics, len(out.Labels), err
	})
	if out == nil {
		return nil, err
	}
	f.mu.Lock()
	f.queries++
	f.mu.Unlock()
	return &resident.QueryResult{Labels: out.Labels, Components: out.Components, Phases: out.Phases,
		Rounds: out.Metrics.Rounds, SketchFailures: out.SketchFailures, CollapseIters: out.CollapseIters}, err
}

// MST runs one distributed MST job (Theorem 2; strong selects 2(b)).
func (f *Fleet) MST(ctx context.Context, strong bool) (out *core.MSTResult, err error) {
	cfg := core.MSTConfig{Config: f.coreConfig(), StrongOutput: strong, MaxElimIters: f.cfg.MaxElimIters}
	err = f.run(ctx, "mst", func(ctx context.Context, tr *spanLog) (_ *kmachine.Metrics, _ int, err error) {
		if out, err = runMST(ctx, f.spec.Addrs, f.spec.Source, cfg, f.spec.Coord, tr); out == nil {
			return nil, 0, err
		}
		return &out.Metrics, len(out.Labels), err
	})
	return out, err
}

func unsupported(job string) error {
	return fmt.Errorf("dist: %s on a worker fleet: %w", job, resident.ErrUnsupported)
}

func (f *Fleet) ApplyBatch(context.Context, []graph.EdgeOp) (*resident.BatchResult, error) {
	return nil, unsupported("batch")
}

func (f *Fleet) MinCut(context.Context, int, int) (*mincut.Result, error) {
	return nil, unsupported("mincut")
}

func (f *Fleet) Verify(context.Context, resident.Problem, resident.VerifyArgs) (*verify.Outcome, error) {
	return nil, unsupported("verify")
}

// Metrics reports the fleet's cumulative accounting: no load phase, the
// summed Metrics of its completed jobs, and the admission queue.
func (f *Fleet) Metrics() resident.Metrics {
	f.mu.Lock()
	defer f.mu.Unlock()
	queued, running := f.Queue()
	return resident.Metrics{Total: f.total, Jobs: f.jobs, Queries: f.queries,
		QueuedJobs: queued, RunningJobs: running, ObserverPanics: f.panics.Load()}
}

// Epoch is always 0: a fleet's source is immutable.
func (f *Fleet) Epoch() uint64 { return 0 }

// Queue snapshots the admission queue (waiting jobs, in-flight 0 or 1).
func (f *Fleet) Queue() (queued, running int) { return int(f.queued.Load()), len(f.sem) }

// N returns the vertex count (0 until known: see OpenFleet).
func (f *Fleet) N() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// K returns the machine count.
func (f *Fleet) K() int { return f.cfg.K }

// Close refuses further jobs (resident.ErrClosed), waits for the
// in-flight one and returns the fleet's total Metrics. It is idempotent.
func (f *Fleet) Close() (*kmachine.Metrics, error) {
	f.once.Do(func() { close(f.closed) })
	f.sem <- struct{}{}
	defer func() { <-f.sem }()
	tot := f.Metrics().Total
	return &tot, nil
}
