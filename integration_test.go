package kmgraph

// Integration matrix: every public algorithm, driven through the facade,
// across a grid of graph families, machine counts, and seeds, validated
// against the sequential oracles. This is the adoption-level test a
// downstream user would rely on.

import (
	"fmt"
	"testing"

	"kmgraph/internal/baseline"
)

func families(seed int64) map[string]*Graph {
	return map[string]*Graph{
		"gnm":        GNM(220, 660, seed),
		"powerlaw":   ChungLu(220, 2.5, 6, seed),
		"prufer":     PruferTree(220, seed),
		"planted":    PlantedPartition(200, 4, 0.12, 0.002, seed),
		"components": DisjointComponents(200, 6, 0.4, seed),
		"grid":       Grid(14, 15),
		"star":       Star(220),
		"barbell":    TwoCliquesBridged(18, 2, seed),
	}
}

func TestIntegrationConnectivityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix test")
	}
	for _, k := range []int{2, 5, 9} {
		for name, g := range families(3) {
			t.Run(fmt.Sprintf("%s/k%d", name, k), func(t *testing.T) {
				res, err := Connectivity(g, Config{K: k, Seed: 17})
				if err != nil {
					t.Fatal(err)
				}
				_, want := ComponentsOracle(g)
				if res.Components != want {
					t.Errorf("components %d, want %d", res.Components, want)
				}
				if res.Metrics.DroppedMessages != 0 {
					t.Error("dropped messages")
				}
			})
		}
	}
}

func TestIntegrationMSTMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix test")
	}
	for _, k := range []int{3, 7} {
		for name, base := range families(5) {
			g := WithDistinctWeights(base, 23)
			t.Run(fmt.Sprintf("%s/k%d", name, k), func(t *testing.T) {
				res, err := MST(g, MSTConfig{Config: Config{K: k, Seed: 29}})
				if err != nil {
					t.Fatal(err)
				}
				forest, want := MSTOracle(g)
				if res.TotalWeight != want || len(res.Edges) != len(forest) {
					t.Errorf("weight %d (want %d), edges %d (want %d)",
						res.TotalWeight, want, len(res.Edges), len(forest))
				}
			})
		}
	}
}

func TestIntegrationSpanningTree(t *testing.T) {
	g := GNM(240, 720, 7)
	c, err := NewCluster(g, WithK(6), WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.SpanningTree(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	sub := fromEdges(g.N(), res.Forest)
	wantLabels, wantCount := ComponentsOracle(g)
	gotLabels, gotCount := ComponentsOracle(sub)
	if gotCount != wantCount {
		t.Errorf("forest components %d, want %d", gotCount, wantCount)
	}
	if !sameLabeling(gotLabels, wantLabels) {
		t.Error("forest spans different components")
	}
}

func TestIntegrationVerifiersOnRealisticGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix test")
	}
	for seed := int64(0); seed < 4; seed++ {
		g := ChungLu(180, 2.6, 5, seed)
		c, err := NewCluster(g, WithK(4), WithSeed(seed+41))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		bip, err := c.Verify(t.Context(), ProblemBipartiteness, VerifyArgs{})
		if err != nil {
			t.Fatal(err)
		}
		if bip.Holds != IsBipartiteOracle(g) {
			t.Errorf("seed %d: bipartite mismatch", seed)
		}
		cyc, err := c.Verify(t.Context(), ProblemCycleContainment, VerifyArgs{})
		if err != nil {
			t.Fatal(err)
		}
		wantCyc := g.M() > g.N()-componentCount(g)
		if cyc.Holds != wantCyc {
			t.Errorf("seed %d: cycle mismatch", seed)
		}
	}
}

func TestIntegrationBaselinesAgreeWithCore(t *testing.T) {
	g := ChungLu(250, 2.4, 6, 9)
	core, err := Connectivity(g, Config{K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := baseline.Flooding(g, Config{K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := baseline.Referee(g, Config{K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if core.Components != fl.Components || fl.Components != rf.Components {
		t.Errorf("algorithms disagree: %d / %d / %d",
			core.Components, fl.Components, rf.Components)
	}
}

// Small helpers (the facade exposes oracles; these adapt shapes).

func fromEdges(n int, edges []Edge) *Graph {
	b := NewGraphBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V, e.W)
	}
	return b.Build()
}

func sameLabeling(a, b []int) bool {
	fwd := map[int]int{}
	rev := map[int]int{}
	for i := range a {
		if x, ok := fwd[a[i]]; ok && x != b[i] {
			return false
		}
		if y, ok := rev[b[i]]; ok && y != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}

func componentCount(g *Graph) int {
	_, c := ComponentsOracle(g)
	return c
}
