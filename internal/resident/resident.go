// Package resident is the shared resident-cluster substrate: it loads and
// partitions a graph across a k-machine cluster exactly once, then serves
// every algorithm family in the library as a job against that residency —
// incremental connectivity queries, update batches, MST construction,
// min-cut approximation, and the Theorem 4 verification problems — without
// ever re-distributing the graph.
//
// A residency is state, not a host: one kmachine.Cluster (each machine's
// Ctx, the link queues, the cumulative Metrics) and one rmachine of kept
// state per machine, held in this process (Machines) or by the kmworkers of
// a fleet (Remote) alike. Every command — the load, a batch, a query, a
// derived run, an MST — is data, run as one ordinary run of the cluster
// over the kept state: outputs come back through Ctx.SetOutput (across the
// wire, in AppendOutput's form), costs through Result.Metrics. Between
// commands the residency is memory and holds no goroutine. Three things
// survive across jobs:
//
//   - The loaded state: each machine's kmachine.Shard — the object the
//     shard loader hands every host, adopted here and mutated in place by
//     batches — and the shared randomness established at load
//     (proxy.Setup, the FaithfulRandomness polynomial, bank seeds). Jobs
//     never pay the load phase again — the engine meters it exactly once
//     and reports it in Metrics.Load.
//   - The maintained state: sketch-bank sums of the parts heavy enough to
//     be worth summarizing (updated in O(1) per edge op by linearity) and
//     the certificate forest at machine 0, so
//     connectivity queries after churn run ~log(#affected pieces) phases
//     instead of ~log(n).
//   - The session communicator: one proxy.Comm per machine, with
//     cluster-global frame sequencing, shared by every job's merge engine
//     (fresh Mergers are created per job via core.NewMergerOn; creating a
//     second Comm would desynchronize frame sequence numbers).
//
// Jobs are serialized: a semaphore admits one at a time, callers queue on
// it, and a caller whose context is cancelled while queued never runs.
// A running job observes cancellation cooperatively at phase boundaries —
// the verdict rides the phase-end collectives (core.Merger.PhaseSync), so
// every machine stops at the same point of the protocol, the barrier is
// never wedged, and the cluster stays serviceable for the next job. A
// run that fails — a machine program that panics, a session past
// MaxRounds — ends the residency instead: that job and every later one
// return the run's error.
// Per-phase freshness across jobs comes from a session-global phase
// counter: proxy assignments h_{j,ρ}, DRR ranks, and sketch seeds never
// repeat within a session.
package resident

import (
	"errors"
	"fmt"
	"time"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/sketch"
	"kmgraph/internal/transport"
	"kmgraph/internal/verify"
)

// Config parameterizes a resident engine. The zero value of everything
// except K is sensible.
type Config struct {
	// K is the number of machines.
	K int
	// BandwidthBits is the per-link budget; 0 selects kmachine.Bandwidth(n).
	BandwidthBits int
	// Seed drives the vertex partition and all private coins.
	Seed int64
	// MaxPhasesPerQuery caps Boruvka phases per job; 0 selects the
	// static default, 12·ceil(log2 n) + 4.
	MaxPhasesPerQuery int
	// Sketch overrides sketch parameters; zero selects
	// sketch.DefaultParams(n).
	Sketch sketch.Params
	// CollapseLevelWise, CoinMerge, and FaithfulRandomness select the same
	// ablations as the static core.Config.
	CollapseLevelWise  bool
	CoinMerge          bool
	FaithfulRandomness bool
	// MessageOverheadBits models per-message framing (0 = 64).
	MessageOverheadBits int
	// MaxRounds aborts runaway sessions (0 = 5,000,000 cumulative rounds).
	MaxRounds int
	// MaxElimIters caps MST elimination iterations per phase; 0 selects
	// 2·ceil(log2 n) + 8.
	MaxElimIters int
	// JobTimeout, when positive, is the default wall-clock deadline applied
	// to every job whose context carries no earlier deadline. It covers the
	// whole job — time queued on the admission semaphore included — and a
	// job that exceeds it returns context.DeadlineExceeded at the next
	// phase boundary, leaving the engine serviceable.
	JobTimeout time.Duration
	// Observer, when non-nil, receives per-phase progress events. It is
	// invoked from the engine's machine-0 goroutine (phase events; on a
	// fleet, the lowest worker's control-link goroutine) and the
	// submitting goroutine (job start/done events); it must be safe for
	// that and should return quickly — it runs between metered rounds.
	// A panicking Observer does not kill the engine: the panic is
	// recovered, counted in Metrics.ObserverPanics, and the job during
	// which it fired fails with ErrObserverPanic.
	Observer func(Event)
	// PhaseMetrics, when set (and Observer is non-nil), attaches a deep
	// cluster-wide kmachine.Metrics snapshot to every job event and — where
	// the machines are the engine's own — every phase event (Event.Snap). Each phase snapshot costs one coordinator round-trip
	// and a k×k link-matrix copy outside the metered rounds; it is off by
	// default so the plain observer path stays allocation-free.
	PhaseMetrics bool
}

const defaultSessionMaxRounds = 5_000_000

// coreConfig resolves the engine config into the shared core.Config.
func (c Config) coreConfig(n int) core.Config {
	cc := core.Config{
		K:                   c.K,
		BandwidthBits:       c.BandwidthBits,
		Seed:                c.Seed,
		MaxPhases:           c.MaxPhasesPerQuery,
		Sketch:              c.Sketch,
		CollapseLevelWise:   c.CollapseLevelWise,
		CoinMerge:           c.CoinMerge,
		FaithfulRandomness:  c.FaithfulRandomness,
		MessageOverheadBits: c.MessageOverheadBits,
		MaxRounds:           c.MaxRounds,
	}
	cc = cc.WithDefaults(n)
	if cc.MaxRounds == 0 {
		cc.MaxRounds = defaultSessionMaxRounds
	}
	return cc
}

// defaultBanks is the number of persistent sketch banks a residency keeps,
// 2·ceil(log2 n) + 4; query phase p draws from bank p mod it.
func defaultBanks(n int) int {
	l := 0
	for s := 1; s < n; s <<= 1 {
		l++
	}
	return 2*l + 4
}

func validConfig(n int, cfg Config) error {
	if cfg.K < 1 {
		return fmt.Errorf("resident: %w: K = %d, need >= 1", ErrBadConfig, cfg.K)
	}
	if n < 1 {
		return fmt.Errorf("resident: %w: empty vertex set", ErrBadConfig)
	}
	if cfg.K > n {
		// More machines than vertices leaves machines with no home
		// vertices; the model (and the partition hash) requires k <= n.
		return fmt.Errorf("resident: %w: K = %d exceeds vertex count n = %d", ErrBadConfig, cfg.K, n)
	}
	if cfg.BandwidthBits < 0 {
		return fmt.Errorf("resident: %w: negative BandwidthBits %d", ErrBadConfig, cfg.BandwidthBits)
	}
	if cfg.JobTimeout < 0 {
		return fmt.Errorf("resident: %w: negative JobTimeout %v", ErrBadConfig, cfg.JobTimeout)
	}
	return nil
}

// ErrBadConfig tags configuration errors from New/NewFromSource and
// MinCut's options so callers (the CLIs, the server's handlers) can
// distinguish caller mistakes from engine failures.
var ErrBadConfig = errors.New("invalid configuration")

// Event is one progress notification delivered to Config.Observer.
type Event struct {
	// Job names the job family: "load", "batch", "connectivity", "mst",
	// "mincut", or "verify".
	Job string
	// Seq is the job's sequence number within the session (0 = load).
	Seq int
	// Phase is the merge-phase index within the job, or -1 for job
	// start/done events.
	Phase int
	// Round is the cluster-wide round counter as observed by machine 0 at
	// the time of the event (cumulative across the whole session).
	Round int
	// Active and Failures are the cluster-wide phase-end collectives'
	// values (phase events only).
	Active, Failures uint64
	// Done marks the job-completion event.
	Done bool
	// Err reports the job's outcome on a Done event ("" = success).
	Err string
	// Snap, when Config.PhaseMetrics is set, is a deep snapshot of the
	// cluster-wide cumulative engine metrics at the time of the event
	// (phase and job events). Nil otherwise. The snapshot is owned by the
	// observer; the engine never mutates it after delivery.
	Snap *kmachine.Metrics
	// Delta, on Done events, is the job's engine-cost delta (Rounds,
	// Messages, PayloadBytes — the same quantity end() meters). Nil on
	// other events.
	Delta *kmachine.Metrics
	// Workers, on the Done event of a job of a fleet's engine, is each
	// worker's phase-span stream of the job's runs (its own clock, its own
	// link traffic and barrier waits). Nil where the machines are the
	// engine's own.
	Workers []transport.WorkerSpans
}

// BatchResult reports one applied update batch.
type BatchResult struct {
	// Ops is the number of operations submitted (including invalid ones).
	Ops int
	// Applied is the number of operations that mutated the graph.
	Applied int
	// RejectedInserts counts insertions of already-present edges.
	RejectedInserts int
	// RejectedDeletes counts deletions of absent edges.
	RejectedDeletes int
	// RejectedInvalid counts self-loops and out-of-range endpoints
	// (rejected at ingress, before any routing).
	RejectedInvalid int
	// Rounds is the number of engine rounds the batch cost (routing ops to
	// home machines and collecting accept/reject verdicts).
	Rounds int
	// Epoch is the graph's mutation epoch after this batch (exact: read
	// while the batch still held the job slot, so no other job
	// interleaved).
	Epoch uint64
}

// QueryResult reports one connectivity query.
type QueryResult struct {
	// Labels[v] is the component label of vertex v at query time; equal
	// labels mean same component (w.h.p.). Labels are member vertex IDs.
	Labels []uint64
	// Components is the number of connected components.
	Components int
	// Forest is a spanning forest of the queried snapshot, canonical form,
	// sorted by edge ID.
	Forest []graph.Edge
	// Phases is the number of Boruvka merge phases this query ran.
	Phases int
	// Rounds is the number of engine rounds this query cost.
	Rounds int
	// SketchFailures counts failed bank-sample recoveries this query.
	SketchFailures int64
	// CollapseIters counts tree-collapse iterations this query.
	CollapseIters int
	// RelabeledVertices is the size of the dirty region: how many vertices
	// the certificate step relabeled before the merge phases (0 for a
	// query on an unchanged or insert-merged-only graph).
	RelabeledVertices int
	// CertificateEdges is the size of the certificate (forest + net
	// insertions) machine 0 recomputed pieces from.
	CertificateEdges int
	// MergeEdges is the number of fresh forest edges discovered by this
	// query's merge phases (i.e. bank-sketch samples that won a merge).
	MergeEdges int
	// Epoch is the graph's mutation epoch this query answered (exact:
	// jobs serialize, so the epoch cannot change while a query runs).
	Epoch uint64
}

// SameComponent reports whether u and v were connected at query time.
func (r *QueryResult) SameComponent(u, v int) bool {
	if u < 0 || v < 0 || u >= len(r.Labels) || v >= len(r.Labels) {
		return false
	}
	return r.Labels[u] == r.Labels[v]
}

// Metrics is the engine's cumulative cost accounting, split so callers can
// verify the residency contract: the load phase is paid exactly once.
type Metrics struct {
	// Load is the engine cost of the one-time load/setup phase (shared
	// randomness distribution, bank seeding, residency handshake).
	Load kmachine.Metrics
	// Total is the cumulative engine cost so far (load included).
	Total kmachine.Metrics
	// LoadRounds is Load.Rounds (the "graph-load rounds paid once"
	// quantity the reuse tests assert on).
	LoadRounds int
	// Jobs counts completed jobs (batches and queries included).
	Jobs int
	// Batches and Queries count the dynamic-subsystem command types.
	Batches, Queries int
	// Edges is the current number of live edges (initial graph plus net
	// accepted insertions).
	Edges int
	// Epoch is the graph's mutation epoch: 0 at load, bumped by every
	// ApplyBatch that changed the edge set. Two reads of the same Epoch
	// bracket an unchanged graph, which is what makes query results
	// cacheable (the serving layer keys its result cache on it).
	Epoch uint64
	// QueuedJobs and RunningJobs snapshot the admission queue: jobs
	// waiting on the semaphore and the in-flight job count (0 or 1).
	QueuedJobs, RunningJobs int
	// ObserverPanics counts recovered panics out of Config.Observer.
	ObserverPanics uint64
	// Banks accounts for the maintained sketch banks as of the last
	// completed job, summed over machines.
	Banks BankMetrics
}

// BankMetrics is the sketch-bank ledger. A machine keeps a (part, bank) sum
// only while the part holds at least Params.Cells() local half-edges, so
// per bank KeptSums is at most the machines' half-edges / Cells() — the
// kept sums never outweigh the adjacency they summarize.
type BankMetrics struct {
	// KeptSums is the number of (part, bank) sums currently held, and
	// KeptBytes their cell arrays' size.
	KeptSums  int
	KeptBytes int64
	// ReadsKept and ReadsRebuilt count part-sketch reads served by a kept
	// sum and reads built from adjacency (light parts, and the first read
	// of a heavy part's bank).
	ReadsKept, ReadsRebuilt int64
	// Dropped counts kept sums released without a successor: their part
	// fell below the threshold, lost most of its vertices, or merged with
	// a heavy part that did not keep the bank.
	Dropped int64
	// KeptPeak and PoolPeak are high-water marks, each machine's own,
	// summed over machines: the most kept sums a machine held at once, and
	// the most sketches of any use its session pool had handed out at once
	// — kept sums plus a selection step's part and sum scratch, so PoolPeak
	// is at most KeptPeak + 2 per machine: the proxy side of a step holds
	// O(1) dense sketches, never one per component.
	KeptPeak, PoolPeak int
}

// cellBytes is the size of one sketch cell (count, idSum, fingerprint).
const cellBytes = 24

func (b *BankMetrics) add(o BankMetrics) {
	b.KeptSums += o.KeptSums
	b.KeptBytes += o.KeptBytes
	b.ReadsKept += o.ReadsKept
	b.ReadsRebuilt += o.ReadsRebuilt
	b.Dropped += o.Dropped
	b.KeptPeak += o.KeptPeak
	b.PoolPeak += o.PoolPeak
}

// Problem and VerifyArgs are the verify package's: Engine.Verify is one
// host of verify.Decide and adds nothing to its vocabulary.
type (
	Problem    = verify.Problem
	VerifyArgs = verify.Args
)

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("resident: cluster closed")

// ErrObserverPanic is returned by a job during which the Config.Observer
// callback panicked. The engine recovers the panic (the cluster stays
// alive and serviceable) but fails the job so the caller knows its
// progress stream is incomplete. The job's effects stand: a batch that
// applied before its done-event hook panicked is still applied.
var ErrObserverPanic = errors.New("resident: observer callback panicked")
