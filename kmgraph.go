// Package kmgraph is a Go implementation of the algorithms from
// "Fast Distributed Algorithms for Connectivity and MST in Large Graphs"
// (Pandurangan, Robinson, Scquizzato; SPAA 2016), together with a faithful
// simulator for the k-machine model they run in.
//
// The library provides:
//
//   - The Õ(n/k²)-round connectivity algorithm (Theorem 1) built from
//     linear graph sketches, randomized proxy machines, and distributed
//     random ranking.
//   - The Õ(n/k²)-round MST algorithm (Theorem 2) with both output
//     criteria.
//   - The O(log n)-approximate min-cut (Theorem 3) and eight verification
//     problems (Theorem 4).
//   - Baselines (flooding, referee, GHS-style edge checking), the REP
//     partition model, a congested-clique conversion simulator, and the
//     Theorem 5 lower-bound harness — the paper's apparatus, run by
//     cmd/kmrun (-algo, -rep) and the cmd/kmbench experiment catalog.
//   - A dynamic-graph subsystem: batched edge insert/delete streams with
//     incrementally maintained linear sketches, answering connectivity /
//     component-count / spanning-forest queries between batches at a
//     fraction of a static re-run's rounds (Cluster.ApplyBatch,
//     cmd/kmrun stream).
//   - A deterministic k-machine engine with per-link bandwidth accounting,
//     so every reported cost is the model's round complexity.
//
// # Quick start: the resident Cluster
//
// The serving API loads a graph onto k machines once and then runs every
// algorithm as a cancellable job against that residency:
//
//	g := kmgraph.GNM(10_000, 30_000, 1)           // a random graph
//	c, err := kmgraph.NewCluster(g, kmgraph.WithK(16), kmgraph.WithSeed(7))
//	defer c.Close()
//	q, err := c.Connectivity(ctx)                 // q.Components, q.Labels ...
//	mst, err := c.MST(ctx)                        // same residency, no re-load
//	cut, err := c.ApproxMinCut(ctx)
//	ok, err := c.Verify(ctx, kmgraph.ProblemBipartiteness, kmgraph.VerifyArgs{})
//	_, err = c.ApplyBatch(ctx, ops)               // mutate the resident graph
//	q2, err := c.Connectivity(ctx)                // incremental: certificate + banks
//	// c.Metrics().LoadRounds — the load phase, paid exactly once.
//
// # Large graphs: the out-of-core store
//
// Graphs too large to materialize are served shard-direct from disk:
// OpenCluster streams a kmgs binary store (cmd/kmconvert) or a text
// edge list, hashes each endpoint to its owner machine, and fills
// per-machine adjacency shards in place — no coordinator-side Graph.
// It is the one loader: NewCluster(g) is OpenCluster over g's own edge
// stream, so the two give the same residency on the same seed:
//
//	c, err := kmgraph.OpenCluster("web.kmgs", kmgraph.WithK(32))
//	q, err := c.Connectivity(ctx)
//
// WithEdgeSource plugs in any EdgeSource stream; WriteStore and
// OpenSource round out the streaming surface.
//
// # Graphs whose shards outgrow one process: the worker fleet
//
// OpenFleet is the third constructor of the same Cluster: the k machines
// are hosted by kmworker processes (cmd/kmworker) joined by TCP links,
// each loading its own slice of the graph from a source spec and keeping
// it for as long as the Cluster is open, while this process coordinates:
//
//	c, err := kmgraph.OpenFleet(kmgraph.FleetSpec{
//		Source: "store:web.kmgs", // readable by every worker
//		Addrs:  []string{"10.0.0.1:9601", "10.0.0.2:9601"},
//	}, kmgraph.WithK(32), kmgraph.WithSeed(7))
//	q, err := c.Connectivity(ctx)   // bit-identical to the local answer and Metrics
//	_, err = c.ApplyBatch(ctx, ops) // the graph changes on the workers
//
// Placement is a property of the Cluster, not of its callers: one engine
// runs every job either way, so every family, answer, observer event,
// trace and metric is the same. A lost worker fails the job with
// ErrLinkDown once FleetSpec.Coord.Retry is spent; while Epoch is 0 the
// next attempt reloads the graph, after a batch the residency is lost.
//
// # Serving over the network
//
// cmd/kmserve hosts a registry of named Clusters, resident or
// fleet-backed, behind an HTTP/JSON API (internal/server): every job
// family becomes an endpoint with per-request deadlines, a bounded
// admission queue with 429 backpressure, and a result cache keyed on the
// graph's mutation epoch (Cluster.Epoch) so repeated queries on an
// unchanged graph cost zero simulation rounds. cmd/kmload is the matching
// closed-loop load generator; see the README's "Serving" section and
// EXPERIMENTS.md E16.
//
// # Migration note: one front door
//
// Every job family runs on a Cluster, wherever its machines are: a
// fleet-backed one no longer refuses ApplyBatch, ApproxMinCut, Verify or
// SpanningTree. Connectivity(g, cfg) and MST(g, cfg) remain as one-shot
// runs because they alone take the per-run ablation Config
// (EdgeCheckSelection, CollapseLevelWise, …). The README's "Migrating from
// the one-shot functions" table maps every deleted name to its replacement.
package kmgraph

import (
	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/mincut"
	"kmgraph/internal/resident"
	"kmgraph/internal/store"
	"kmgraph/internal/verify"
)

// Graph is an immutable undirected (optionally weighted) input graph.
type Graph = graph.Graph

// Edge is a canonical undirected edge (U < V).
type Edge = graph.Edge

// GraphBuilder accumulates edges into a Graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for an n-vertex graph.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// Generators (all deterministic in their seed).
var (
	// Path returns the n-vertex path graph.
	Path = graph.Path
	// Cycle returns the n-cycle.
	Cycle = graph.Cycle
	// Star returns a star with n-1 leaves.
	Star = graph.Star
	// Complete returns K_n.
	Complete = graph.Complete
	// Grid returns the rows x cols grid.
	Grid = graph.Grid
	// GNP returns an Erdős–Rényi G(n, p) graph.
	GNP = graph.GNP
	// GNM returns a uniform random graph with exactly m edges.
	GNM = graph.GNM
	// RandomTree returns a shuffled random recursive tree.
	RandomTree = graph.RandomTree
	// RandomConnected returns a connected random graph with m edges.
	RandomConnected = graph.RandomConnected
	// DisjointComponents returns a graph with exactly c components.
	DisjointComponents = graph.DisjointComponents
	// PlantedPartition returns a stochastic block model graph.
	PlantedPartition = graph.PlantedPartition
	// TwoCliquesBridged returns two cliques joined by c bridge edges.
	TwoCliquesBridged = graph.TwoCliquesBridged
	// PruferTree returns an exactly-uniform random labeled tree.
	PruferTree = graph.PruferTree
	// ChungLu returns a power-law (heavy-tailed) random graph — the web
	// graph / social network workload of the paper's introduction.
	ChungLu = graph.ChungLu
	// WithDistinctWeights reweights edges with a random permutation of
	// 1..m (makes the MST unique).
	WithDistinctWeights = graph.WithDistinctWeights
	// WithUniformWeights reweights edges i.i.d. uniform in [1, maxW].
	WithUniformWeights = graph.WithUniformWeights
	// ReadEdgeList parses a whitespace-separated edge-list file.
	ReadEdgeList = graph.ReadEdgeList
	// WriteEdgeList writes a graph as an edge-list file.
	WriteEdgeList = graph.WriteEdgeList
	// MaxDegree returns the maximum degree.
	MaxDegree = graph.MaxDegree
)

// Sequential oracles, for validating distributed results.
var (
	// ComponentsOracle returns per-vertex component labels and the count.
	ComponentsOracle = graph.Components
	// MSTOracle returns the minimum spanning forest and its weight under
	// the library's (weight, edge ID) total order.
	MSTOracle = graph.KruskalMST
	// MinCutOracle returns the exact minimum cut weight (Stoer–Wagner).
	MinCutOracle = graph.MinCut
	// IsBipartiteOracle reports 2-colorability.
	IsBipartiteOracle = graph.IsBipartite
)

// Config parameterizes a one-shot Connectivity or MST run, ablations
// included. The zero value of everything except K is sensible: bandwidth
// defaults to 16·ceil(log2 n)² bits per round.
type Config = core.Config

// Result is a connectivity outcome: labels, component count, phases, and
// engine metrics.
type Result = core.Result

// Connectivity runs the paper's Õ(n/k²) connected-components algorithm
// (Theorem 1) on a random vertex partition of g across cfg.K machines.
//
// One-shot: builds a fresh cluster per call, under the per-run ablation
// knobs of cfg. For repeated questions on one graph, use NewCluster and
// Cluster.Connectivity instead.
func Connectivity(g *Graph, cfg Config) (*Result, error) { return core.Run(g, cfg) }

// EdgeSource is a resettable edge stream — the input contract of the
// shard-direct load path (OpenCluster, WriteStore). The binary store, text edge lists, in-memory graphs
// (Graph.Source), and the streaming generators all implement it.
type EdgeSource = graph.EdgeSource

// Streaming inputs and generators for the out-of-core load path.
var (
	// OpenEdgeListSource opens a text edge-list file as an EdgeSource
	// without materializing the graph (one sizing scan, then streaming
	// passes). Close it when done.
	OpenEdgeListSource = graph.OpenEdgeList
	// NewEdgeSource wraps a fixed edge slice as an EdgeSource.
	NewEdgeSource = graph.NewSliceSource
	// StreamGNM streams a uniform G(n, m) sample (converter-scale: peak
	// memory is the dedup set, never adjacency).
	StreamGNM = graph.StreamGNM
	// StreamRMAT streams an R-MAT sample (a=0.57, b=c=0.19, d=0.05).
	StreamRMAT = graph.StreamRMAT
	// StreamPowerLaw streams a Chung–Lu-style power-law sample with an
	// exact edge count.
	StreamPowerLaw = graph.StreamPowerLaw
	// ComponentsFromSourceOracle counts connected components of a stream
	// with a one-pass union-find (the O(n)-memory oracle for store-backed
	// runs).
	ComponentsFromSourceOracle = graph.ComponentsFromSource
)

// WriteStore writes an edge stream as a kmgs/v1 binary store at path —
// the container OpenCluster serves shard-direct (see cmd/kmconvert for
// the CLI). The source is streamed twice; peak memory is a compact CSR
// working set, never a materialized Graph.
func WriteStore(path string, src EdgeSource) error { return store.WriteFile(path, src) }

// MSTConfig parameterizes the MST algorithm.
type MSTConfig = core.MSTConfig

// MSTResult is an MST outcome.
type MSTResult = core.MSTResult

// MST runs the paper's Õ(n/k²) minimum-spanning-tree algorithm
// (Theorem 2). Set StrongOutput for the both-endpoints output criterion.
//
// One-shot: builds a fresh cluster per call. For repeated questions on
// one graph, use NewCluster and Cluster.MST instead.
func MST(g *Graph, cfg MSTConfig) (*MSTResult, error) { return core.RunMST(g, cfg) }

// EdgeOp is one update (insertion or deletion) in a dynamic edge stream.
type EdgeOp = graph.EdgeOp

// UpdateStream is a batched update stream: an initial graph plus batches
// of edge operations, for replay against a dynamic session.
type UpdateStream = graph.Stream

// Update-stream generators and helpers (all deterministic in their seed).
var (
	// RandomChurnStream mixes random insertions and deletions around an
	// initial G(n, m0) graph (the steady-state serving workload).
	RandomChurnStream = graph.RandomChurnStream
	// SlidingWindowStream inserts arriving edges and expires old ones
	// (the time-decay workload).
	SlidingWindowStream = graph.SlidingWindowStream
	// SplitMergeStream alternately deletes and re-inserts the bridges
	// joining component blocks (the forest-deletion adversary).
	SplitMergeStream = graph.SplitMergeStream
	// ApplyOps replays a batch onto an immutable snapshot (oracle side).
	ApplyOps = graph.ApplyOps
)

// BatchResult reports one applied update batch (Cluster.ApplyBatch).
type BatchResult = resident.BatchResult

// QueryResult reports one connectivity query (Cluster.Connectivity).
type QueryResult = resident.QueryResult

// ErrNotConverged is returned — with the partial result — by a job whose
// merge phases exhaust their cap (persistent sketch failures, an
// undersized Config.MaxPhases): by every Cluster job, wherever its machines
// are (the cluster stays usable), and by Connectivity and MST alike.
var ErrNotConverged = core.ErrNotConverged

// MinCutResult is a min-cut approximation outcome.
type MinCutResult = mincut.Result

// VerifyOutcome is a verification verdict with cost accounting.
type VerifyOutcome = verify.Outcome
