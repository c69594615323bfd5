package resident

import (
	"context"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
)

// checkForest checks the coordinator's forest slice: strictly ascending
// IDs that match their edges, forestEdges listing exactly the live entries
// in that order, and the live entries a forest of live graph edges.
func checkForest(t *testing.T, c *coordinator, live map[uint64]bool, when string) {
	t.Helper()
	var want []graph.Edge
	check := graph.NewUnionFind(c.n)
	for i, f := range c.forest {
		if f.id != graph.EdgeID(f.e.U, f.e.V, c.n) || i > 0 && c.forest[i-1].id >= f.id {
			t.Fatalf("%s: forest entry %d (%d, %v) out of order or misfiled", when, i, f.id, f.e)
		}
		if f.dead {
			continue
		}
		if !live[f.id] {
			t.Fatalf("%s: live forest entry %v is not a graph edge", when, f.e)
		}
		if !check.Union(f.e.U, f.e.V) {
			t.Fatalf("%s: forest has a cycle through %v", when, f.e)
		}
		want = append(want, f.e)
	}
	if got := c.forestEdges(); !slices.Equal(got, want) {
		t.Fatalf("%s: forestEdges lists %v, live entries are %v", when, got, want)
	}
}

// pieces returns the component partition of the certificate (live forest
// entries and pending insertions) as a union-find over its vertices.
func pieces(c *coordinator) *graph.UnionFind {
	uf := graph.NewUnionFind(c.n)
	for _, f := range c.forest {
		if !f.dead {
			uf.Union(f.e.U, f.e.V)
		}
	}
	for _, e := range c.pending {
		uf.Union(e.U, e.V)
	}
	return uf
}

// TestCoordinatorForestListing checks the sorted forest slice across
// deletions (tombstones), re-insertions, recomputes and merge-edge growth:
// forestEdges must list exactly the live entries in ascending edge-ID
// order, the live entries must stay a forest of graph edges, and recompute
// must keep the certificate's pieces.
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
		checkForest(t, c, live, "after the batch")
		before := pieces(c)
		c.recompute()
		for _, f := range c.forest {
			if f.dead {
				t.Fatalf("round %d: recompute kept the dead entry %v", round, f.e)
			}
		}
		if len(c.pending) != 0 {
			t.Fatalf("round %d: recompute left %d pending insertions", round, len(c.pending))
		}
		after := pieces(c)
		for v := 0; v < n; v++ {
			if (before.Find(v) == before.Find(0)) != (after.Find(v) == after.Find(0)) {
				t.Fatalf("round %d: recompute changed vertex %d's piece", round, v)
			}
		}
		checkForest(t, c, live, "after recompute")

		var merges []graph.Edge
		for i := rng.Intn(4); i > 0; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); after.Union(u, v) {
				e := graph.Edge{U: min(u, v), V: max(u, v)}
				merges = append(merges, e, e) // duplicates must not be listed twice
				live[graph.EdgeID(e.U, e.V, n)] = true
			}
		}
		c.relabelAndGrow(nil, merges)
		checkForest(t, c, live, "after the merges")
	}
}

// TestCoordinatorTombstones pins the forest slice's edge cases: a dead
// entry is never listed, a forest edge deleted and re-inserted before the
// next recompute is listed once after it, and a pending insertion deleted
// again never reaches the forest.
func TestCoordinatorTombstones(t *testing.T) {
	const n = 8
	c := newCoordinator(n)
	c.recompute()
	path := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}}
	c.relabelAndGrow(nil, path)
	live := map[uint64]bool{}
	for _, e := range path {
		live[graph.EdgeID(e.U, e.V, n)] = true
	}
	ids := func() []uint64 {
		var out []uint64
		for _, e := range c.forestEdges() {
			out = append(out, graph.EdgeID(e.U, e.V, n))
		}
		return out
	}
	e01, e12, e23 := graph.EdgeID(0, 1, n), graph.EdgeID(1, 2, n), graph.EdgeID(2, 3, n)

	// A deleted forest edge is a dead entry: still in the slice, never listed.
	c.applyAccepted(graph.EdgeOp{Del: true, U: 1, V: 2})
	live[e12] = false
	if got := ids(); !slices.Equal(got, []uint64{e01, e23}) || len(c.forest) != 3 {
		t.Fatalf("after deleting (1,2): listed %v over %d entries", got, len(c.forest))
	}
	checkForest(t, c, live, "dead entry")

	// Deleted, then re-inserted before the recompute: one live entry after it.
	c.applyAccepted(graph.EdgeOp{U: 1, V: 2, W: 5})
	live[e12] = true
	c.recompute()
	if got := ids(); !slices.Equal(got, []uint64{e01, e12, e23}) || len(c.forest) != 3 {
		t.Fatalf("after re-inserting (1,2): listed %v over %d entries", got, len(c.forest))
	}
	if f := c.forest[1].e; f.W != 5 {
		t.Fatalf("re-inserted (1,2) has weight %d, want 5", f.W)
	}
	checkForest(t, c, live, "re-inserted")

	// Deleted, re-inserted and deleted again: neither forest nor pending.
	c.applyAccepted(graph.EdgeOp{Del: true, U: 2, V: 3})
	c.applyAccepted(graph.EdgeOp{U: 2, V: 3, W: 1})
	c.applyAccepted(graph.EdgeOp{Del: true, U: 2, V: 3})
	live[e23] = false
	// A pending insertion deleted again.
	c.applyAccepted(graph.EdgeOp{U: 4, V: 5, W: 1})
	c.applyAccepted(graph.EdgeOp{Del: true, U: 4, V: 5})
	if len(c.pending) != 0 {
		t.Fatalf("pending holds %v after its insertions were deleted", c.pending)
	}
	changes, cert := c.recompute()
	if got := ids(); !slices.Equal(got, []uint64{e01, e12}) || len(c.forest) != 2 || cert != 2 {
		t.Fatalf("after deleting (2,3) and (4,5): listed %v over %d entries, certificate %d", got, len(c.forest), cert)
	}
	if len(changes) != 1 || changes[0].v != 3 || changes[0].label != 3 {
		t.Fatalf("split-off vertex 3: changes %v, want vertex 3 to its own label", changes)
	}
	checkForest(t, c, live, "deleted twice")
}

// TestFinalSyncRenamesClasses replays a churn stream whose merge phases
// relabel the giant component. After every query machine 0's labels must
// be the assembled answer's, and its final sync must have decoded exactly
// one rename per machine and changed pre-query class that machine holds
// members of — one word for a merged giant, not one per member.
func TestFinalSyncRenamesClasses(t *testing.T) {
	const n, k = 600, 4
	s := graph.RandomChurnStream(n, 1800, 12, 8, 0.5, 3)
	ctx := context.Background()
	e := mustEngine(t, s.Initial, Config{Config: core.Config{K: k, Seed: 5}})
	ms := e.local.ms
	c := ms[0].coord
	giant := 0
	for i := -1; i < len(s.Batches); i++ {
		if i >= 0 {
			if _, err := e.ApplyBatch(ctx, s.Batches[i]); err != nil {
				t.Fatal(err)
			}
		}
		// The query's own recompute makes the pre-query labels: run it on
		// a copy first.
		shadow := &coordinator{n: n, labels: slices.Clone(c.labels), forest: slices.Clone(c.forest),
			pending: maps.Clone(c.pending), uf: graph.NewUnionFind(n)}
		shadow.recompute()
		q, err := e.Query(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(c.labels, q.Labels) {
			t.Fatalf("query %d: machine 0's labels differ from the answer's", i)
		}
		size := make(map[uint64]int)
		for _, l := range shadow.labels {
			size[l]++
		}
		want, relabeledGiant := 0, false
		for _, m := range ms {
			seen := make(map[uint64]bool)
			for _, v := range m.view.Owned() {
				if pre := shadow.labels[v]; q.Labels[v] != pre && !seen[pre] {
					seen[pre] = true
					want++
					relabeledGiant = relabeledGiant || 2*size[pre] > n
				}
			}
		}
		if got := len(ms[0].synced); got != want {
			t.Fatalf("query %d: machine 0 decoded %d renames, want %d (one per machine and changed class)", i, got, want)
		}
		if relabeledGiant && i >= 0 {
			giant++
		}
	}
	if giant == 0 {
		t.Fatal("no warm query relabeled the giant component")
	}
	t.Logf("%d of %d warm queries relabeled the giant", giant, len(s.Batches))
}
