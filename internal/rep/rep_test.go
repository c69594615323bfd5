package rep

import (
	"testing"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
)

func TestREPMSTMatchesOracle(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm", graph.WithDistinctWeights(graph.GNM(100, 400, 1), 2)},
		{"dense", graph.WithDistinctWeights(graph.GNM(50, 900, 3), 4)},
		{"tree", graph.WithDistinctWeights(graph.RandomTree(80, 5), 6)},
		{"components", graph.WithDistinctWeights(graph.DisjointComponents(90, 3, 0.5, 7), 8)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := MST(tc.g, core.Config{K: 4, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			want, wantTotal := graph.KruskalMST(tc.g)
			if res.TotalWeight != wantTotal {
				t.Errorf("weight %d, want %d", res.TotalWeight, wantTotal)
			}
			if len(res.Edges) != len(want) {
				t.Errorf("%d edges, want %d", len(res.Edges), len(want))
			}
			wantSet := make(map[uint64]bool)
			for _, e := range want {
				wantSet[graph.EdgeID(e.U, e.V, tc.g.N())] = true
			}
			for _, e := range res.Edges {
				if !wantSet[graph.EdgeID(e.U, e.V, tc.g.N())] {
					t.Errorf("edge %v not in unique MST", e)
				}
			}
		})
	}
}

func TestFilteringBounds(t *testing.T) {
	// Each machine keeps at most n-1 edges after local filtering.
	g := graph.WithDistinctWeights(graph.Complete(40), 12)
	k := 4
	res, err := MST(g, core.Config{K: k, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if res.FilteredEdges > k*(g.N()-1) {
		t.Errorf("filtered %d > k(n-1) = %d", res.FilteredEdges, k*(g.N()-1))
	}
	if res.FilteredEdges < g.N()-1 {
		t.Errorf("filtered %d < n-1: cannot contain the MST", res.FilteredEdges)
	}
	if res.ConversionRounds <= 0 || res.MSTRounds <= 0 {
		t.Error("missing round accounting")
	}
	if res.TotalRounds != res.ConversionRounds+res.MSTRounds {
		t.Error("total rounds mismatch")
	}
}

func TestLocalForestCycleProperty(t *testing.T) {
	g := graph.WithDistinctWeights(graph.Complete(12), 14)
	edges := g.Edges()
	forest := localForest(g.N(), edges)
	if len(forest) != 11 {
		t.Fatalf("forest size %d", len(forest))
	}
	// The local forest of ALL edges is exactly the MST.
	want, _ := graph.KruskalMST(g)
	for i, e := range forest {
		if want[i] != e {
			// Compare as sets (order may differ).
			found := false
			for _, we := range want {
				if we == e {
					found = true
				}
			}
			if !found {
				t.Errorf("forest edge %v not in MST", e)
			}
		}
	}
}
