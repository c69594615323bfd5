package kmgraph

// Cross-host differential table: every Theorem 4 problem and the Theorem 3
// min-cut run through two hosts of the one reduction layer — a sequential
// host (each view materialized with Filter / RemoveEdges / DoubleCover and
// counted by union-find) and a resident Cluster — on several graph
// families. The hosts must agree with each other (verdict, level, run
// count, error text) and with sequential oracles that share no code with
// the reductions.

import (
	"fmt"
	"testing"

	"kmgraph/internal/graph"
	"kmgraph/internal/mincut"
	"kmgraph/internal/verify"
)

// without returns g minus the given edges.
func without(g *Graph, drop []Edge) *Graph {
	gone := make(map[Edge]bool, len(drop))
	for _, e := range drop {
		e = e.Canon()
		gone[Edge{U: e.U, V: e.V}] = true
	}
	b := NewGraphBuilder(g.N())
	for _, e := range g.Edges() {
		if !gone[Edge{U: e.U, V: e.V}] {
			b.AddEdge(e.U, e.V, e.W)
		}
	}
	return b.Build()
}

func connectedOracle(g *Graph, s, t int) bool {
	labels, _ := ComponentsOracle(g)
	return labels[s] == labels[t]
}

// verdictOracle decides p sequentially, straight from the problem
// statements.
func verdictOracle(g *Graph, p Problem, a VerifyArgs) bool {
	switch p {
	case ProblemSpanningConnectedSubgraph:
		return componentCount(fromEdges(g.N(), a.H)) == 1
	case ProblemCut:
		return componentCount(without(g, a.Cut)) > componentCount(g)
	case ProblemSTConnectivity:
		return connectedOracle(g, a.S, a.T)
	case ProblemEdgeOnAllPaths:
		return !connectedOracle(without(g, []Edge{a.E}), a.S, a.T)
	case ProblemSTCut:
		return !connectedOracle(without(g, a.Cut), a.S, a.T)
	case ProblemBipartiteness:
		return IsBipartiteOracle(g)
	case ProblemCycleContainment:
		forest, _ := MSTOracle(g)
		return g.M() > len(forest)
	case ProblemECycleContainment:
		return connectedOracle(without(g, []Edge{a.E}), a.E.U, a.E.V)
	}
	panic("no oracle for " + p.String())
}

// sequentialVerify is the sequential host of the verification reductions:
// the same views, each materialized and counted by union-find instead of a
// k-machine run.
func sequentialVerify(g *Graph, p Problem, args VerifyArgs) (*VerifyOutcome, error) {
	return verify.Decide(p, args, g.N(), g.M(), func(v verify.View) (verify.Run, error) {
		sub := g
		switch v.Kind {
		case verify.ViewKeep:
			keep := make(map[Edge]bool, len(v.Edges))
			for _, e := range v.Edges {
				e = e.Canon()
				keep[Edge{U: e.U, V: e.V}] = true
			}
			sub = g.Filter(func(e Edge) bool { return keep[Edge{U: e.U, V: e.V}] })
		case verify.ViewRemove:
			sub = g.RemoveEdges(v.Edges)
		case verify.ViewDoubleCover:
			sub = g.DoubleCover()
		}
		labels, cc := ComponentsOracle(sub)
		run := verify.Run{Components: cc, Labels: make([]uint64, len(labels))}
		for v, l := range labels {
			run.Labels[v] = uint64(l)
		}
		run.ProbePresent = v.Probe != nil && g.HasEdge(v.Probe.U, v.Probe.V)
		return run, nil
	})
}

// levelOracle is the sequential host of the level search: the same
// samples, each counted by union-find instead of a k-machine run.
func levelOracle(g *Graph, seed int64) (*MinCutResult, error) {
	return mincut.Search(g.N(), seed, 0, 0, func(level, _ int, tseed, threshold uint64) (int, error) {
		b := NewGraphBuilder(g.N())
		for _, e := range g.Edges() {
			if level == 0 || mincut.Sampled(tseed, threshold, graph.EdgeID(e.U, e.V, g.N())) {
				b.AddEdge(e.U, e.V, e.W)
			}
		}
		return componentCount(b.Build()), nil
	})
}

func incident(g *Graph, v int) []Edge {
	var es []Edge
	for _, e := range g.Edges() {
		if e.U == v || e.V == v {
			es = append(es, e)
		}
	}
	return es
}

func TestCrossHostDifferential(t *testing.T) {
	pathChord := NewGraphBuilder(6) // 0-1-2-3-4-5 plus the chord 0-2
	for i := 0; i < 5; i++ {
		pathChord.AddEdge(i, i+1, 1)
	}
	pathChord.AddEdge(0, 2, 1)
	bridged := TwoCliquesBridged(12, 2, 19)
	var bridges []Edge
	for _, e := range bridged.Edges() {
		if (e.U < 12) != (e.V < 12) {
			bridges = append(bridges, e)
		}
	}

	type instance struct {
		p    Problem
		args VerifyArgs
	}
	families := []struct {
		name  string
		g     *Graph
		k     int
		extra []instance // family-specific instances on top of the generic ones
	}{
		{"bridged-cliques", bridged, 4, []instance{
			{ProblemCut, VerifyArgs{Cut: bridges}},
			{ProblemCut, VerifyArgs{Cut: bridges[:1]}},
			{ProblemSTCut, VerifyArgs{S: 0, T: 23, Cut: bridges}},
			{ProblemSTCut, VerifyArgs{S: 0, T: 5, Cut: bridges}},
		}},
		{"path+chord", pathChord.Build(), 2, []instance{
			{ProblemSTCut, VerifyArgs{S: 0, T: 5, Cut: []Edge{{U: 3, V: 4}}}},
			{ProblemEdgeOnAllPaths, VerifyArgs{S: 0, T: 5, E: Edge{U: 4, V: 5}}},
			{ProblemEdgeOnAllPaths, VerifyArgs{S: 0, T: 5, E: Edge{U: 0, V: 1}}},
			{ProblemECycleContainment, VerifyArgs{E: Edge{U: 2, V: 1}}}, // non-canonical on purpose
			{ProblemECycleContainment, VerifyArgs{E: Edge{U: 4, V: 5}}},
		}},
		{"gnm", GNM(120, 360, 3), 4, nil},
		{"gnm-disconnected", GNM(120, 90, 5), 4, nil},
		{"tree", PruferTree(40, 7), 3, nil},
	}

	seen := make(map[Problem]map[bool]bool)
	for _, fam := range families {
		g, n := fam.g, fam.g.N()
		forest, _ := MSTOracle(g)
		first, last := g.Edges()[0], g.Edges()[g.M()-1]
		cases := append([]instance{
			{ProblemSpanningConnectedSubgraph, VerifyArgs{H: forest}},
			{ProblemSpanningConnectedSubgraph, VerifyArgs{H: forest[:len(forest)/2]}},
			{ProblemCut, VerifyArgs{Cut: incident(g, 0)}},
			{ProblemCut, VerifyArgs{Cut: []Edge{last}}},
			{ProblemSTConnectivity, VerifyArgs{S: 0, T: n - 1}},
			{ProblemSTConnectivity, VerifyArgs{S: first.U, T: first.V}},
			{ProblemEdgeOnAllPaths, VerifyArgs{S: first.U, T: first.V, E: first}},
			{ProblemSTCut, VerifyArgs{S: 0, T: n - 1, Cut: incident(g, 0)}},
			{ProblemBipartiteness, VerifyArgs{}},
			{ProblemCycleContainment, VerifyArgs{}},
			{ProblemECycleContainment, VerifyArgs{E: first}},
			{ProblemECycleContainment, VerifyArgs{E: last}},
		}, fam.extra...)
		if labels, cc := ComponentsOracle(g); cc > 1 {
			for v := range labels {
				if labels[v] != labels[0] {
					cases = append(cases, instance{ProblemSTConnectivity, VerifyArgs{S: 0, T: v}})
					break
				}
			}
		}
		bad := []instance{
			{ProblemSTConnectivity, VerifyArgs{S: -1, T: 1}},
			{ProblemSTCut, VerifyArgs{S: 0, T: n}},
			{ProblemEdgeOnAllPaths, VerifyArgs{S: n, T: 0, E: first}},
			{ProblemECycleContainment, VerifyArgs{E: absentEdge(g)}},
			{ProblemECycleContainment, VerifyArgs{E: Edge{U: 0, V: n}}},
			{ProblemECycleContainment, VerifyArgs{E: Edge{U: 3, V: 3}}},
			{Problem(99), VerifyArgs{}},
			// Out-of-range endpoints, which EdgeID(u, v, n) = u·n + v would
			// alias onto real edges.
			{ProblemSpanningConnectedSubgraph, VerifyArgs{H: append([]Edge{{U: forest[0].U - 1, V: forest[0].V + n}}, forest[1:]...)}},
			{ProblemCut, VerifyArgs{Cut: []Edge{{U: 0, V: n + 2}}}},
			{ProblemSTCut, VerifyArgs{S: 0, T: 1, Cut: []Edge{{U: -1, V: 3}}}},
			{ProblemEdgeOnAllPaths, VerifyArgs{S: 0, T: 1, E: Edge{U: 0, V: n + 1}}},
		}

		t.Run(fam.name, func(t *testing.T) {
			const seed = 31
			c, err := NewCluster(g, WithK(fam.k), WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			for i, tc := range cases {
				name := fmt.Sprintf("%s#%d", tc.p, i)
				want := verdictOracle(g, tc.p, tc.args)
				seq, err := sequentialVerify(g, tc.p, tc.args)
				if err != nil {
					t.Fatalf("%s: sequential: %v", name, err)
				}
				res, err := c.Verify(t.Context(), tc.p, tc.args)
				if err != nil {
					t.Fatalf("%s: cluster: %v", name, err)
				}
				if seq.Holds != want || res.Holds != want {
					t.Errorf("%s: sequential %v, cluster %v, oracle %v", name, seq.Holds, res.Holds, want)
				}
				if seq.Runs != res.Runs || seq.Runs == 0 || res.Rounds <= 0 {
					t.Errorf("%s: sequential used %d runs, cluster %d in %d rounds", name, seq.Runs, res.Runs, res.Rounds)
				}
				if seen[tc.p] == nil {
					seen[tc.p] = make(map[bool]bool)
				}
				seen[tc.p][want] = true
			}

			// Bad inputs: the same refusal from both hosts, and the cluster
			// stays serviceable (the min-cut below still runs on it).
			for i, tc := range bad {
				_, errSeq := sequentialVerify(g, tc.p, tc.args)
				_, errRes := c.Verify(t.Context(), tc.p, tc.args)
				if errSeq == nil || errRes == nil || errSeq.Error() != errRes.Error() {
					t.Errorf("bad input %d (%s): sequential error %v, cluster error %v; want the same non-nil error",
						i, tc.p, errSeq, errRes)
				}
			}

			want, err := levelOracle(g, seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.ApproxMinCut(t.Context())
			if err != nil {
				t.Fatal(err)
			}
			if got.Level != want.Level || got.Estimate != want.Estimate || got.Runs != want.Runs || got.Rounds <= 0 {
				t.Errorf("min-cut cluster: level %d estimate %.2f runs %d (%d rounds); sequential search: %d / %.2f / %d",
					got.Level, got.Estimate, got.Runs, got.Rounds, want.Level, want.Estimate, want.Runs)
			}
			if disconnected := componentCount(g) > 1; (want.Level == -1) != disconnected {
				t.Errorf("min-cut level %d on a graph with %d components", want.Level, componentCount(g))
			}
		})
	}

	for p := ProblemSpanningConnectedSubgraph; p <= ProblemECycleContainment; p++ {
		if !seen[p][true] || !seen[p][false] {
			t.Errorf("%s: the table exercised verdicts %v, want both", p, seen[p])
		}
	}
}

// absentEdge returns an in-range vertex pair that is not an edge of g.
func absentEdge(g *Graph) Edge {
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				return Edge{U: u, V: v}
			}
		}
	}
	panic("complete graph")
}
