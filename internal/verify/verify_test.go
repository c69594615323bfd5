package verify

import (
	"errors"
	"testing"

	"kmgraph/internal/graph"
)

// sequential is the host these tests run the reductions on: every View is
// materialized with Filter / RemoveEdges / DoubleCover and counted by
// union-find, so what is tested is Decide itself. The k-machine hosts are
// held to this one by the root TestCrossHostDifferential.
func sequential(g *graph.Graph, p Problem, args Args) (*Outcome, error) {
	return Decide(p, args, g.N(), g.M(), func(v View) (Run, error) {
		sub := g
		switch v.Kind {
		case ViewKeep:
			keep := make(map[uint64]bool, len(v.Edges))
			for _, e := range v.Edges {
				e = e.Canon()
				keep[graph.EdgeID(e.U, e.V, g.N())] = true
			}
			sub = g.Filter(func(e graph.Edge) bool { return keep[graph.EdgeID(e.U, e.V, g.N())] })
		case ViewRemove:
			sub = g.RemoveEdges(v.Edges)
		case ViewDoubleCover:
			sub = g.DoubleCover()
		}
		labels, cc := graph.Components(sub)
		run := Run{Components: cc, Labels: make([]uint64, len(labels))}
		for v, l := range labels {
			run.Labels[v] = uint64(l)
		}
		run.ProbePresent = v.Probe != nil && g.HasEdge(v.Probe.U, v.Probe.V)
		return run, nil
	})
}

func TestSpanningConnectedSubgraph(t *testing.T) {
	g := graph.RandomConnected(80, 200, 1)
	tree, _ := graph.KruskalMST(g)

	out, err := sequential(g, SpanningConnectedSubgraph, Args{H: tree})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Holds {
		t.Error("spanning tree should verify as SCS")
	}
	// Remove one tree edge: no longer spanning connected.
	out, err = sequential(g, SpanningConnectedSubgraph, Args{H: tree[1:]})
	if err != nil {
		t.Fatal(err)
	}
	if out.Holds {
		t.Error("tree minus an edge is not connected")
	}
	// The full graph is an SCS of itself (when connected).
	out, err = sequential(g, SpanningConnectedSubgraph, Args{H: g.Edges()})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Holds {
		t.Error("G should be an SCS of itself")
	}
	// Empty subgraph of a >1 vertex graph is not.
	out, err = sequential(g, SpanningConnectedSubgraph, Args{H: nil})
	if err != nil {
		t.Fatal(err)
	}
	if out.Holds {
		t.Error("empty subgraph should fail")
	}
}

func TestCutVerification(t *testing.T) {
	g := graph.TwoCliquesBridged(10, 2, 3)
	// The two bridge edges form a cut.
	var bridges []graph.Edge
	for _, e := range g.Edges() {
		if (e.U < 10) != (e.V < 10) {
			bridges = append(bridges, e)
		}
	}
	if len(bridges) != 2 {
		t.Fatalf("expected 2 bridges, got %d", len(bridges))
	}
	out, err := sequential(g, CutVerification, Args{Cut: bridges})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Holds {
		t.Error("bridges form a cut")
	}
	if out.Runs != 2 {
		t.Errorf("runs = %d, want 2", out.Runs)
	}
	// One bridge alone is not a cut.
	out, err = sequential(g, CutVerification, Args{Cut: bridges[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if out.Holds {
		t.Error("single bridge is not a cut here")
	}
}

func TestSTConnectivity(t *testing.T) {
	g := graph.DisjointComponents(60, 2, 0.5, 7)
	labels, _ := graph.Components(g)
	var s, tt int
	sameFound, diffFound := false, false
	for v := 1; v < g.N(); v++ {
		if labels[v] == labels[0] && !sameFound {
			s = v
			sameFound = true
		}
		if labels[v] != labels[0] && !diffFound {
			tt = v
			diffFound = true
		}
	}
	if !sameFound || !diffFound {
		t.Skip("degenerate component split")
	}
	out, err := sequential(g, STConnectivity, Args{S: 0, T: s})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Holds {
		t.Error("same-component pair should connect")
	}
	out, err = sequential(g, STConnectivity, Args{S: 0, T: tt})
	if err != nil {
		t.Fatal(err)
	}
	if out.Holds {
		t.Error("cross-component pair should not connect")
	}
	if _, err := sequential(g, STConnectivity, Args{S: -1, T: 5}); err == nil {
		t.Error("out of range should error")
	}
}

func TestEdgeOnAllPaths(t *testing.T) {
	// On a path graph, every edge lies on all paths between the ends.
	g := graph.Path(30)
	out, err := sequential(g, EdgeOnAllPaths, Args{S: 0, T: 29, E: graph.Edge{U: 10, V: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Holds {
		t.Error("path edge should be on all paths")
	}
	// On a cycle, no single edge is on all paths.
	c := graph.Cycle(30)
	out, err = sequential(c, EdgeOnAllPaths, Args{S: 0, T: 15, E: graph.Edge{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Holds {
		t.Error("cycle edge is never on all paths")
	}
}

func TestSTCut(t *testing.T) {
	g := graph.TwoCliquesBridged(8, 1, 9)
	var bridge graph.Edge
	for _, e := range g.Edges() {
		if (e.U < 8) != (e.V < 8) {
			bridge = e
		}
	}
	out, err := sequential(g, STCutVerification, Args{S: 0, T: 15, Cut: []graph.Edge{bridge}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Holds {
		t.Error("bridge is an s-t cut across the cliques")
	}
	out, err = sequential(g, STCutVerification, Args{S: 0, T: 7, Cut: []graph.Edge{bridge}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Holds {
		t.Error("bridge does not separate same-clique vertices")
	}
}

func TestBipartiteness(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"even-cycle", graph.Cycle(20), true},
		{"odd-cycle", graph.Cycle(21), false},
		{"grid", graph.Grid(5, 6), true},
		{"complete", graph.Complete(8), false},
		{"random-bipartite", graph.RandomBipartite(20, 25, 0.2, 3), true},
		{"tree", graph.RandomTree(50, 4), true},
		{"edgeless", graph.NewBuilder(10).Build(), true},
		{"two-odd-cycles", graph.DisjointComponents(9, 9, 0, 1), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := sequential(tc.g, Bipartiteness, Args{})
			if err != nil {
				t.Fatal(err)
			}
			if out.Holds != tc.want {
				t.Errorf("bipartite = %v, want %v (oracle %v)",
					out.Holds, tc.want, graph.IsBipartite(tc.g))
			}
		})
	}
}

func TestCycleContainment(t *testing.T) {
	if out, _ := sequential(graph.RandomTree(40, 5), CycleContainment, Args{}); out.Holds {
		t.Error("tree has no cycle")
	}
	if out, _ := sequential(graph.Cycle(12), CycleContainment, Args{}); !out.Holds {
		t.Error("cycle graph has a cycle")
	}
	forest := graph.DisjointComponents(40, 4, 0, 6)
	if out, _ := sequential(forest, CycleContainment, Args{}); out.Holds {
		t.Error("forest has no cycle")
	}
}

func TestECycleContainment(t *testing.T) {
	g := graph.Lollipop(6, 4)
	// Clique edges are on cycles; the tail edges are bridges.
	out, err := sequential(g, ECycleContainment, Args{E: graph.Edge{U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Holds {
		t.Error("clique edge lies on a cycle")
	}
	out, err = sequential(g, ECycleContainment, Args{E: graph.Edge{U: 6, V: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Holds {
		t.Error("tail edge is a bridge")
	}
	if _, err := sequential(g, ECycleContainment, Args{E: graph.Edge{U: 0, V: 9}}); err == nil {
		t.Error("non-edge should error")
	}
}

func TestOutcomeAccounting(t *testing.T) {
	g := graph.Cycle(30)
	out, err := sequential(g, Bipartiteness, Args{})
	if err != nil {
		t.Fatal(err)
	}
	// Decide counts runs; rounds and metrics are the host's to account.
	if out.Runs != 2 || out.Rounds != 0 {
		t.Errorf("runs=%d rounds=%d", out.Runs, out.Rounds)
	}
	// A failed run is not counted, stops the reduction, and is returned.
	boom := errors.New("boom")
	calls := 0
	_, err = Decide(Bipartiteness, Args{}, g.N(), g.M(), func(View) (Run, error) {
		calls++
		return Run{}, boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Errorf("failed run: err %v after %d calls, want boom after 1", err, calls)
	}
}

func TestVerifiersMatchOraclesRandomized(t *testing.T) {
	// Randomized cross-validation of the reductions on mixed graphs.
	for seed := int64(0); seed < 6; seed++ {
		g := graph.GNM(60, 90+int(seed)*20, seed)
		out, err := sequential(g, Bipartiteness, Args{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Holds != graph.IsBipartite(g) {
			t.Errorf("seed %d: bipartite mismatch", seed)
		}
		cyc, err := sequential(g, CycleContainment, Args{})
		if err != nil {
			t.Fatal(err)
		}
		if cyc.Holds != graph.HasCycle(g) {
			t.Errorf("seed %d: cycle mismatch", seed)
		}
	}
}
