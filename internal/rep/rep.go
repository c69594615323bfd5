// Package rep implements the random edge partition (REP) model algorithms
// the paper sketches in §1.3 (footnote 5): in the REP model every *edge*
// is assigned to a uniformly random machine, Θ̃(n/k) rounds is the tight
// bound for connectivity and MST, in contrast to Θ̃(n/k²) under RVP.
//
// The MST algorithm: (1) each machine locally filters its edge set with
// the cycle property of MSTs — only its local minimum spanning forest
// (≤ n-1 edges) can contain global MST edges; (2) the ≤ k(n-1) surviving
// edges are routed to the RVP homes of their endpoints (Θ̃(n/k) rounds:
// Θ(nk) edges over Θ(k²) links); (3) the RVP-model MST algorithm finishes
// the job. Experiment E12 confirms the conversion dominates, scaling as
// n/k rather than n/k².
package rep

import (
	"sort"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/proxy"
	"kmgraph/internal/wire"
)

// Result is the outcome of a REP-model MST run.
type Result struct {
	// Edges is the spanning forest (MST under the (w, id) order).
	Edges []graph.Edge
	// TotalWeight is the forest weight.
	TotalWeight int64
	// FilteredEdges is the number of edges surviving local filtering.
	FilteredEdges int
	// ConversionRounds is the cost of re-routing filtered edges to RVP.
	ConversionRounds int
	// MSTRounds is the cost of the RVP-model MST on the filtered graph.
	MSTRounds int
	// TotalRounds = ConversionRounds + MSTRounds.
	TotalRounds int
	// Metrics is the conversion phase's engine accounting.
	Metrics kmachine.Metrics
}

// localForest returns the minimum spanning forest of the given edge set
// under the (w, id) order — the cycle-property filter.
func localForest(n int, edges []graph.Edge) []graph.Edge {
	sorted := append([]graph.Edge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool { return graph.EdgeLess(sorted[i], sorted[j], n) })
	uf := graph.NewUnionFind(n)
	var keep []graph.Edge
	for _, e := range sorted {
		if uf.Union(e.U, e.V) {
			keep = append(keep, e)
		}
	}
	return keep
}

// MST computes the minimum spanning forest of g in the REP model: the
// conversion under cfg's K, Seed and link budget, then cfg's RVP MST.
func MST(g *graph.Graph, cfg core.Config) (*Result, error) {
	n := g.N()
	edgePart := kmachine.NewREP(g, cfg.K, uint64(cfg.Seed)^0xe4e4)
	vertexSeed := kmachine.RVPSeed(cfg.Seed)

	cluster, err := kmachine.New(cfg.WithDefaults(n).MachineConfig())
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	// Phase 1+2: local filtering, then route survivors to both endpoints'
	// RVP homes (batched per destination machine).
	res, err := cluster.Run(func(ctx *kmachine.Ctx) error {
		comm := proxy.NewComm(ctx)
		keep := localForest(n, edgePart.OwnedEdges(ctx.ID()))

		batches := make([][]byte, ctx.K())
		addTo := func(dst int, e graph.Edge) {
			b := batches[dst]
			b = wire.AppendUvarint(b, uint64(e.U))
			b = wire.AppendUvarint(b, uint64(e.V))
			b = wire.AppendVarint(b, e.W)
			batches[dst] = b
		}
		for _, e := range keep {
			hu, hv := kmachine.HomeOf(vertexSeed, ctx.K(), e.U), kmachine.HomeOf(vertexSeed, ctx.K(), e.V)
			addTo(hu, e)
			if hv != hu {
				addTo(hv, e)
			}
		}
		var out []proxy.Out
		for dst := 0; dst < ctx.K(); dst++ {
			if len(batches[dst]) > 0 {
				out = append(out, proxy.Out{Dst: dst, Data: batches[dst]})
			}
		}
		recv := comm.Exchange(out)
		var got []graph.Edge
		for _, msg := range recv {
			r := wire.NewReader(msg.Data)
			for r.Len() > 0 {
				e := graph.Edge{U: int(r.Uvarint()), V: int(r.Uvarint()), W: r.Varint()}
				got = append(got, e)
			}
		}
		ctx.SetOutput(struct {
			kept     int
			received []graph.Edge
		}{len(keep), got})
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Host: assemble the filtered union graph (machines now hold, per
	// owned vertex, the filtered incident edges — an RVP of this graph).
	out := &Result{ConversionRounds: res.Metrics.Rounds, Metrics: res.Metrics}
	union := make(map[uint64]graph.Edge)
	for _, o := range res.Outputs {
		mo := o.(struct {
			kept     int
			received []graph.Edge
		})
		out.FilteredEdges += mo.kept
		for _, e := range mo.received {
			union[graph.EdgeID(e.U, e.V, n)] = e
		}
	}
	// Emit the union in sorted EdgeID order: FromEdges lays out adjacency
	// in edge-list order, so iterating the map here would shuffle neighbor
	// order — and the MST phase's tie-breaks — per run.
	edges := make([]graph.Edge, 0, len(union))
	for _, id := range core.SortedKeys(union) {
		edges = append(edges, union[id])
	}
	filtered := graph.FromEdges(n, edges)

	// Phase 3: RVP MST on the filtered graph, same vertex partition.
	mst, err := core.RunMST(filtered, core.MSTConfig{Config: cfg})
	if err != nil {
		return nil, err
	}
	out.Edges = mst.Edges
	out.TotalWeight = mst.TotalWeight
	out.MSTRounds = mst.Metrics.Rounds
	out.TotalRounds = out.ConversionRounds + out.MSTRounds
	return out, nil
}
