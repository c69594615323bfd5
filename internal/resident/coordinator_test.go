package resident

import (
	"math/rand"
	"slices"
	"testing"

	"kmgraph/internal/graph"
)

// TestCoordinatorForestListing checks the shared sorted listing against
// the forest map it indexes, across deletions, re-insertions, recomputes
// and merge-edge growth: forestEdges must stay exactly the map's edges in
// ascending edge-ID order, and the map must stay a forest.
func TestCoordinatorForestListing(t *testing.T) {
	const n = 60
	rng := rand.New(rand.NewSource(7))
	c := newCoordinator(n)
	live := make(map[uint64]bool)
	for round := 0; round < 200; round++ {
		for i := rng.Intn(6); i > 0; i-- {
			op := graph.EdgeOp{U: rng.Intn(n), V: rng.Intn(n), Del: rng.Intn(3) == 0}.Canon()
			id := graph.EdgeID(op.U, op.V, n)
			if op.U == op.V || live[id] != op.Del {
				continue // the home machines reject these
			}
			live[id] = !op.Del
			c.applyAccepted(op)
		}
		c.recompute()
		var merges []graph.Edge
		uf := graph.NewUnionFind(n)
		for _, e := range c.forest {
			uf.Union(e.U, e.V)
		}
		for i := rng.Intn(4); i > 0; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); uf.Union(u, v) {
				e := graph.Edge{U: min(u, v), V: max(u, v)}
				merges = append(merges, e, e) // duplicates must not be listed twice
				live[graph.EdgeID(e.U, e.V, n)] = true
			}
		}
		c.relabelAndGrow(nil, merges)

		var want []uint64
		for id := range c.forest {
			want = append(want, id)
		}
		slices.Sort(want)
		var got []uint64
		for _, e := range c.forestEdges() {
			got = append(got, graph.EdgeID(e.U, e.V, n))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: forestEdges lists %v, forest holds %v", round, got, want)
		}
		check := graph.NewUnionFind(n)
		for _, e := range c.forest {
			if !check.Union(e.U, e.V) {
				t.Fatalf("round %d: forest has a cycle through %v", round, e)
			}
		}
	}
}
