// The Cluster API: put a graph on k machines — loaded once into this
// process (NewCluster, OpenCluster) or hosted by a kmworker fleet
// (OpenFleet) — then run every algorithm family as a cancellable job
// against it. This is the library's one front door; only Connectivity and
// MST keep a one-shot form, for the per-run ablation Config.

package kmgraph

import (
	"context"
	"errors"
	"io"
	"os"
	"time"

	"kmgraph/internal/dist"
	"kmgraph/internal/graph"
	"kmgraph/internal/resident"
	"kmgraph/internal/store"
	"kmgraph/internal/transport"
	"kmgraph/internal/verify"
)

// DefaultClusterK is the machine count NewCluster uses when WithK is not
// given.
const DefaultClusterK = 8

// Cluster is a resident k-machine cluster: NewCluster loads and
// partitions the graph exactly once, and every method call is a job
// served by that residency — no per-call cluster construction, no graph
// re-distribution. Jobs are serialized through an internal queue, so a
// Cluster is safe for concurrent use; every job accepts a
// context.Context and a cancelled job stops at the next phase boundary
// without wedging the cluster.
//
// The residency keeps incremental state between jobs: maintained sketch
// banks and a certificate forest make Connectivity after ApplyBatch far
// cheaper than a static re-run, and Metrics() proves the load phase is
// paid exactly once.
//
// Where the k machines run is a property of the Cluster, not of its
// callers: NewCluster and OpenCluster host them in this process,
// OpenFleet on the kmworkers of a fleet. Either way the one engine
// (internal/resident) runs every job, so every method, answer, observer
// event and metric is the same on both.
type Cluster struct {
	e *resident.Engine
}

// ClusterOption configures NewCluster, OpenCluster and OpenFleet
// (functional options replacing the per-algorithm Config structs of the
// one-shot API).
type ClusterOption func(*clusterOptions)

// clusterOptions is the resolved option set: the resident engine config
// plus the load-path selection (OpenCluster's edge source override).
type clusterOptions struct {
	resident.Config
	src graph.EdgeSource
}

// WithEdgeSource makes OpenCluster load from the given stream instead of
// a file path (pass "" as the path). The source is streamed by the
// shard-direct loader — two passes, each endpoint hashed to its owner
// machine — and a coordinator-side Graph is never built. Any EdgeSource
// works: a store Reader's Source, an OpenEdgeList scanner, a streaming
// generator, or a custom feed.
func WithEdgeSource(src EdgeSource) ClusterOption {
	return func(c *clusterOptions) { c.src = src }
}

// WithK sets the machine count (default DefaultClusterK).
func WithK(k int) ClusterOption { return func(c *clusterOptions) { c.K = k } }

// WithSeed sets the seed driving the vertex partition and all coins.
func WithSeed(seed int64) ClusterOption { return func(c *clusterOptions) { c.Seed = seed } }

// WithMaxRounds caps cumulative engine rounds for the whole session
// (default 5,000,000).
func WithMaxRounds(r int) ClusterOption { return func(c *clusterOptions) { c.MaxRounds = r } }

// WithJobTimeout sets a default wall-clock deadline for every job whose
// context carries no earlier deadline (0 = none). The deadline covers
// queueing and execution; an expired job returns
// context.DeadlineExceeded at the next phase boundary and the cluster
// stays serviceable. It is a safety net for embedders whose call sites
// cannot all be trusted to pass deadline contexts; kmserve instead
// derives an explicit per-request context from its ?timeout= parameter.
func WithJobTimeout(d time.Duration) ClusterOption {
	return func(c *clusterOptions) { c.JobTimeout = d }
}

// WithObserver registers a per-phase progress hook: job start/done events
// and one event per merge phase with the cluster round counter, active
// component count, and failure count. The hook runs on engine goroutines
// between metered rounds; it must be fast and goroutine-safe.
func WithObserver(fn func(ClusterEvent)) ClusterOption {
	return func(c *clusterOptions) { c.Observer = fn }
}

// WithPhaseMetrics makes every observer phase and job event carry a deep
// cluster-wide metrics snapshot (ClusterEvent.Snap): cumulative rounds,
// messages, payload bytes, and the full per-link bit matrix. This is
// what the trace exporters consume to annotate spans with per-phase
// message/byte deltas and link skew. Each snapshot costs one
// coordinator round-trip and a k×k copy outside the metered rounds;
// leave it off when the observer only needs phase/round progress.
func WithPhaseMetrics() ClusterOption {
	return func(c *clusterOptions) { c.PhaseMetrics = true }
}

// ClusterEvent is a progress notification from a Cluster observer.
type ClusterEvent = resident.Event

// ClusterMetrics is a Cluster's cumulative cost accounting, split into
// the one-time load and the running total.
type ClusterMetrics = resident.Metrics

// Problem identifies a Theorem 4 verification problem for Cluster.Verify.
type Problem = verify.Problem

// The eight verification problems (Theorem 4).
const (
	ProblemSpanningConnectedSubgraph = verify.SpanningConnectedSubgraph
	ProblemCut                       = verify.CutVerification
	ProblemSTConnectivity            = verify.STConnectivity
	ProblemEdgeOnAllPaths            = verify.EdgeOnAllPaths
	ProblemSTCut                     = verify.STCutVerification
	ProblemBipartiteness             = verify.Bipartiteness
	ProblemCycleContainment          = verify.CycleContainment
	ProblemECycleContainment         = verify.ECycleContainment
)

// VerifyArgs carries the per-problem arguments of Cluster.Verify.
type VerifyArgs = verify.Args

// ErrClusterClosed is returned by jobs submitted to a closed Cluster.
var ErrClusterClosed = resident.ErrClosed

// ErrObserverPanic is returned by a job during which a WithObserver hook
// panicked: the panic is recovered (the cluster stays serviceable) and
// counted in Metrics().ObserverPanics, but the job is failed so the
// caller knows its progress stream is incomplete.
var ErrObserverPanic = resident.ErrObserverPanic

// ErrLinkDown is the typed failure of jobs on a fleet-backed Cluster: a
// worker process died or desynchronized mid-round, so the job fails
// promptly at the barrier instead of hanging — and, once a batch has
// changed the resident graph, every later job fails with it too. Match
// with errors.Is to tell a crashed fleet from a bad job spec.
var ErrLinkDown = transport.ErrLinkDown

// FleetSpec names a graph hosted by a kmworker fleet: the source spec
// every worker loads its shards from, the worker addresses, and the
// coordinator tuning (heartbeat deadline, retry recovery, flight log) of
// the residency's commands.
type FleetSpec = dist.FleetSpec

// NewCluster loads g across a resident k-machine cluster (one graph
// distribution, metered as Metrics().Load) and returns the job interface.
// Close it when done.
//
// NewCluster serves graphs already materialized in memory, through
// OpenCluster's loader over g's own edge stream; for graphs too large to
// materialize, use OpenCluster on a file or any EdgeSource.
func NewCluster(g *Graph, opts ...ClusterOption) (*Cluster, error) {
	o := resolveClusterOptions(opts)
	if o.src != nil {
		return nil, errors.New("kmgraph: WithEdgeSource is an OpenCluster option; NewCluster takes a *Graph")
	}
	e, err := resident.New(g, o.Config)
	if err != nil {
		return nil, err
	}
	return &Cluster{e: e}, nil
}

// OpenCluster loads a stored graph across a resident k-machine cluster
// shard-direct: the input is streamed (twice — a degree pass and a fill
// pass), each endpoint hashed to its owner machine, and per-machine
// adjacency shards filled in place. The full graph is never
// materialized on the coordinator, which is what lets million-vertex
// inputs serve from a fraction of the memory a Graph would take; the
// residency depends only on the edge set and the seed, not on where the
// stream came from.
//
// path names either a kmgs binary store (written by cmd/kmconvert or
// store.Write; detected by magic) or a whitespace-separated text edge
// list. With WithEdgeSource, path must be "" and the given stream is
// loaded instead.
func OpenCluster(path string, opts ...ClusterOption) (*Cluster, error) {
	o := resolveClusterOptions(opts)
	src := o.src
	var closer io.Closer
	switch {
	case src != nil:
		if path != "" {
			return nil, errors.New("kmgraph: OpenCluster takes a path or WithEdgeSource, not both")
		}
	case path == "":
		return nil, errors.New("kmgraph: OpenCluster needs a path or WithEdgeSource")
	default:
		var err error
		src, closer, err = OpenSource(path)
		if err != nil {
			return nil, err
		}
	}
	e, err := resident.NewFromSource(src, o.Config)
	if closer != nil {
		// The residency owns the shards now; the mapping/file can go.
		closer.Close()
	}
	if err != nil {
		return nil, err
	}
	return &Cluster{e: e}, nil
}

// OpenFleet returns a Cluster whose k machines are hosted by the kmworker
// processes of spec (cmd/kmworker): each worker loads its own slice of the
// graph from spec.Source and keeps it, with the machines' kept state, for
// as long as the Cluster is open. Every method, answer and Metrics is a
// resident Cluster's on the same graph, k and seed; the first job pays the
// load (nothing is dialed before it), and WithK must be at least the worker
// count. A worker lost while Epoch is 0 costs a reload from spec.Source
// under spec.Coord.Retry; after a batch has changed the graph, the loss
// ends the Cluster's residency with ErrLinkDown.
func OpenFleet(spec FleetSpec, opts ...ClusterOption) (*Cluster, error) {
	o := resolveClusterOptions(opts)
	if o.src != nil {
		return nil, errors.New("kmgraph: WithEdgeSource is an OpenCluster option; a fleet loads from spec.Source")
	}
	e, err := dist.OpenFleet(spec, o.Config)
	if err != nil {
		return nil, err
	}
	return &Cluster{e: e}, nil
}

func resolveClusterOptions(opts []ClusterOption) *clusterOptions {
	o := &clusterOptions{Config: resident.Config{Config: Config{K: DefaultClusterK}}}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// OpenSource opens a graph file as an EdgeSource: a kmgs binary store
// (detected by magic) or a whitespace-separated text edge list —
// exactly the sniffing OpenCluster performs. Close the returned closer
// when done with the source.
func OpenSource(path string) (EdgeSource, io.Closer, error) {
	isStore, err := sniffStore(path)
	if err != nil {
		return nil, nil, err
	}
	if isStore {
		r, err := store.Open(path)
		if err != nil {
			return nil, nil, err
		}
		return r.Source(), r, nil
	}
	s, err := graph.OpenEdgeList(path)
	if err != nil {
		return nil, nil, err
	}
	return s, s, nil
}

// sniffStore reports whether the file at path starts with the kmgs
// container magic.
func sniffStore(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return false, nil // shorter than any container: treat as text
	}
	return string(magic[:]) == store.Magic, nil
}

// Connectivity answers components/labels/spanning-forest on the current
// graph (Theorem 1 as a resident job). The first call costs about a
// static run; calls after ApplyBatch run incrementally from the
// certificate and maintained banks.
func (c *Cluster) Connectivity(ctx context.Context) (*QueryResult, error) {
	return c.e.Query(ctx)
}

// SpanningTree returns a spanning forest of the current graph — the ST
// corollary the paper highlights as breaking the Ω̃(n/k) barrier —
// served from the residency's certificate-backed connectivity query.
func (c *Cluster) SpanningTree(ctx context.Context) (*QueryResult, error) {
	return c.e.Query(ctx)
}

// MSTOption configures a Cluster MST job.
type MSTOption func(*mstJobOpts)

type mstJobOpts struct{ strong bool }

// StrongOutput selects the Theorem 2(b) output criterion: every MST edge
// is delivered to both endpoints' home machines.
func StrongOutput() MSTOption { return func(o *mstJobOpts) { o.strong = true } }

// MST constructs the minimum spanning forest of the current graph
// (Theorem 2) against the residency.
func (c *Cluster) MST(ctx context.Context, opts ...MSTOption) (*MSTResult, error) {
	var o mstJobOpts
	for _, opt := range opts {
		opt(&o)
	}
	return c.e.MST(ctx, o.strong)
}

// MinCutOption configures a Cluster ApproxMinCut job.
type MinCutOption func(*minCutJobOpts)

type minCutJobOpts struct{ trials, maxLevel int }

// WithTrials sets the independent samples per level (default 3).
func WithTrials(t int) MinCutOption { return func(o *minCutJobOpts) { o.trials = t } }

// WithMaxLevel caps the sampling levels (default 40).
func WithMaxLevel(l int) MinCutOption { return func(o *minCutJobOpts) { o.maxLevel = l } }

// ApproxMinCut estimates the edge connectivity of the current graph
// within an O(log n) factor (Theorem 3), each sampling trial a
// connectivity run on the residency. A negative WithTrials, or a
// WithMaxLevel outside [0, 64], is refused before the job starts.
func (c *Cluster) ApproxMinCut(ctx context.Context, opts ...MinCutOption) (*MinCutResult, error) {
	var o minCutJobOpts
	for _, opt := range opts {
		opt(&o)
	}
	return c.e.MinCut(ctx, o.trials, o.maxLevel)
}

// Verify runs one of the Theorem 4 verification problems on the current
// graph.
func (c *Cluster) Verify(ctx context.Context, p Problem, args VerifyArgs) (*VerifyOutcome, error) {
	return c.e.Verify(ctx, p, args)
}

// ApplyBatch applies a batch of edge insertions/deletions to the resident
// graph (the dynamic subsystem as a Cluster job): sketch banks update by
// linearity and the certificate absorbs accepted ops, so the next
// Connectivity call is incremental.
func (c *Cluster) ApplyBatch(ctx context.Context, ops []EdgeOp) (*BatchResult, error) {
	return c.e.ApplyBatch(ctx, ops)
}

// Metrics reports cumulative cost accounting: the one-time load cost, the
// running total, job counters, and the live edge count. Safe to call
// concurrently with running jobs.
func (c *Cluster) Metrics() ClusterMetrics { return c.e.Metrics() }

// N returns the vertex count.
func (c *Cluster) N() int { return c.e.N() }

// K returns the machine count.
func (c *Cluster) K() int { return c.e.K() }

// Epoch returns the graph's mutation epoch: 0 at load, bumped by every
// ApplyBatch that changed the edge set. Two equal reads bracket an
// unchanged graph, so a result computed at epoch x may be served from a
// cache for as long as Epoch() still returns x — the invariant the
// kmserve result cache is built on. Safe to call concurrently with
// running jobs.
func (c *Cluster) Epoch() uint64 { return c.e.Epoch() }

// Queue snapshots the job admission queue: jobs waiting for the cluster
// and the in-flight job count (0 or 1). Safe to call concurrently with
// running jobs; serving layers use it for backpressure and load
// shedding.
func (c *Cluster) Queue() (queued, running int) { return c.e.Queue() }

// Close shuts the resident cluster down (waiting for the in-flight job,
// if any). Further jobs return ErrClusterClosed; Close is idempotent.
func (c *Cluster) Close() error {
	_, err := c.e.Close()
	return err
}
