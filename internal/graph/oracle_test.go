package graph

import (
	"math/rand"
	"sort"
	"testing"
)

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Count() != 5 {
		t.Fatal("initial count")
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) {
		t.Fatal("unions should merge")
	}
	if uf.Union(1, 0) {
		t.Fatal("repeated union should not merge")
	}
	if uf.Count() != 3 {
		t.Fatalf("count = %d", uf.Count())
	}
	uf.Union(1, 3)
	if uf.Find(0) != uf.Find(2) {
		t.Error("0 and 2 should be joined")
	}
	if uf.Find(4) == uf.Find(0) {
		t.Error("4 should be separate")
	}
	uf.Reset()
	if uf.Count() != 5 {
		t.Fatalf("count after Reset = %d", uf.Count())
	}
	for x := 0; x < 5; x++ {
		if uf.Find(x) != x {
			t.Errorf("after Reset, Find(%d) = %d", x, uf.Find(x))
		}
	}
	if !uf.Union(0, 1) || uf.Count() != 4 {
		t.Error("a reset union-find should merge again")
	}
}

func TestComponentsKnown(t *testing.T) {
	g := DisjointComponents(60, 6, 0.3, 1)
	labels, count := Components(g)
	if count != 6 {
		t.Fatalf("count = %d", count)
	}
	// Labels must be consistent with edges.
	for _, e := range g.Edges() {
		if labels[e.U] != labels[e.V] {
			t.Fatalf("edge %v crosses labels", e)
		}
	}
	// Canonical: label is the min vertex of the component.
	for v, l := range labels {
		if l > v {
			t.Fatalf("label %d > vertex %d", l, v)
		}
	}
}

func TestSameLabeling(t *testing.T) {
	if !SameLabeling([]int{0, 0, 2, 2}, []int{7, 7, 9, 9}) {
		t.Error("equivalent labelings should match")
	}
	if SameLabeling([]int{0, 0, 2, 2}, []int{7, 7, 7, 9}) {
		t.Error("coarser labeling should not match")
	}
	if SameLabeling([]int{0, 0}, []int{1, 2}) {
		t.Error("finer labeling should not match")
	}
	if SameLabeling([]int{0}, []int{0, 0}) {
		t.Error("length mismatch should not match")
	}
}

// bruteForceMST computes the MST weight by trying all spanning trees on
// tiny graphs via recursive edge selection (exponential; n <= 8).
func bruteForceMinCut(g *Graph) int64 {
	n := g.N()
	best := int64(1) << 62
	edges := g.Edges()
	for mask := 1; mask < (1 << (n - 1)); mask++ {
		// Side A = {vertices v with bit v set} ∪ {n-1 fixed to side B}.
		var cut int64
		for _, e := range edges {
			inA := func(v int) bool { return v < n-1 && mask&(1<<v) != 0 }
			if inA(e.U) != inA(e.V) {
				cut += e.W
			}
		}
		if cut < best {
			best = cut
		}
	}
	return best
}

func TestMinCutAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(4)
		m := n - 1 + rng.Intn(n)
		g := RandomConnected(n, m, rng.Int63())
		g = WithUniformWeights(g, 6, rng.Int63())
		got := MinCut(g)
		want := bruteForceMinCut(g)
		if got != want {
			t.Fatalf("trial %d: MinCut=%d brute=%d (n=%d m=%d)", trial, got, want, n, m)
		}
	}
}

func TestMinCutKnownGraphs(t *testing.T) {
	if got := MinCut(Cycle(10)); got != 2 {
		t.Errorf("cycle min cut = %d, want 2", got)
	}
	if got := MinCut(Complete(6)); got != 5 {
		t.Errorf("K6 min cut = %d, want 5", got)
	}
	if got := MinCut(Path(5)); got != 1 {
		t.Errorf("path min cut = %d, want 1", got)
	}
}

func TestKruskalAgainstPrimStyleCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(30)
		m := n - 1 + rng.Intn(3*n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := WithDistinctWeights(RandomConnected(n, m, rng.Int63()), rng.Int63())
		forest, total := KruskalMST(g)
		if len(forest) != n-1 {
			t.Fatalf("forest size %d", len(forest))
		}
		// The forest must be spanning and acyclic.
		sub := FromEdges(n, forest)
		if !IsConnected(sub) || HasCycle(sub) {
			t.Fatal("not a spanning tree")
		}
		// Cut property spot check: for each tree edge, no lighter edge
		// crosses the cut induced by removing it.
		for _, te := range forest {
			cut := sub.RemoveEdges([]Edge{te})
			labels, _ := Components(cut)
			for _, e := range g.Edges() {
				if labels[e.U] != labels[e.V] && EdgeLess(e, te, n) {
					t.Fatalf("edge %v lighter than tree edge %v across cut", e, te)
				}
			}
		}
		_ = total
	}
}

func TestKruskalForestOnDisconnected(t *testing.T) {
	g := DisjointComponents(40, 4, 0.4, 2)
	forest, _ := KruskalMST(g)
	if len(forest) != 40-4 {
		t.Errorf("forest size = %d, want 36", len(forest))
	}
}

func TestBFSAndDiameter(t *testing.T) {
	g := Path(6)
	d := BFS(g, 0)
	for i := 0; i < 6; i++ {
		if d[i] != i {
			t.Fatalf("dist[%d] = %d", i, d[i])
		}
	}
	if Diameter(Cycle(10)) != 5 {
		t.Error("cycle diameter")
	}
	// Unreachable marked -1.
	g2 := DisjointComponents(10, 2, 0, 3)
	dist := BFS(g2, 0)
	unreachable := 0
	for _, x := range dist {
		if x == -1 {
			unreachable++
		}
	}
	if unreachable == 0 {
		t.Error("expected unreachable vertices across components")
	}
}

func TestHasCycle(t *testing.T) {
	if HasCycle(RandomTree(50, 1)) {
		t.Error("tree has no cycle")
	}
	if !HasCycle(Cycle(5)) {
		t.Error("cycle has a cycle")
	}
	forest := DisjointComponents(30, 3, 0, 2)
	if HasCycle(forest) {
		t.Error("forest of trees has no cycle")
	}
}

func TestEdgeLessTotalOrder(t *testing.T) {
	edges := []Edge{{0, 1, 5}, {0, 2, 5}, {1, 2, 3}}
	n := 3
	sort.Slice(edges, func(i, j int) bool { return EdgeLess(edges[i], edges[j], n) })
	if edges[0].W != 3 {
		t.Error("weight order first")
	}
	if edges[1].V != 1 || edges[2].V != 2 {
		t.Error("ties broken by edge id")
	}
}
