package kmgraph_test

// Godoc examples for the public API. Each is a compiled, executed test
// with deterministic output (the engine is deterministic in its seed).

import (
	"context"
	"fmt"

	"kmgraph"
)

// ExampleNewCluster loads a graph onto a resident cluster once and serves
// several algorithm families as jobs against that residency — the
// recommended serving API.
func ExampleNewCluster() {
	ctx := context.Background()
	g := kmgraph.WithDistinctWeights(kmgraph.RandomConnected(400, 900, 6), 7)
	c, err := kmgraph.NewCluster(g, kmgraph.WithK(8), kmgraph.WithSeed(3))
	if err != nil {
		panic(err)
	}
	defer c.Close()

	q, err := c.Connectivity(ctx) // Theorem 1
	if err != nil {
		panic(err)
	}
	fmt.Println("components:", q.Components)

	mst, err := c.MST(ctx) // Theorem 2, same residency
	if err != nil {
		panic(err)
	}
	_, oracle := kmgraph.MSTOracle(g)
	fmt.Println("mst optimal:", mst.TotalWeight == oracle)

	out, err := c.Verify(ctx, kmgraph.ProblemCycleContainment, kmgraph.VerifyArgs{})
	if err != nil {
		panic(err)
	}
	fmt.Println("has cycle:", out.Holds)

	// The load phase was paid exactly once, at NewCluster.
	fmt.Println("load paid once:", c.Metrics().LoadRounds > 0)
	// Output:
	// components: 1
	// mst optimal: true
	// has cycle: true
	// load paid once: true
}

// ExampleCluster_ApplyBatch mutates the resident graph and re-queries
// incrementally.
func ExampleCluster_ApplyBatch() {
	ctx := context.Background()
	c, err := kmgraph.NewCluster(kmgraph.Path(100), kmgraph.WithK(4), kmgraph.WithSeed(5))
	if err != nil {
		panic(err)
	}
	defer c.Close()
	if _, err := c.Connectivity(ctx); err != nil { // build-up query
		panic(err)
	}
	// Cut the path in the middle, then re-query incrementally.
	if _, err := c.ApplyBatch(ctx, []kmgraph.EdgeOp{{Del: true, U: 49, V: 50}}); err != nil {
		panic(err)
	}
	q, err := c.Connectivity(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Println("components after cut:", q.Components)
	fmt.Println("0 and 99 connected:", q.SameComponent(0, 99))
	// Output:
	// components after cut: 2
	// 0 and 99 connected: false
}

func ExampleConnectivity() {
	// Three planted components, 8 machines.
	g := kmgraph.DisjointComponents(600, 3, 0.5, 4)
	res, err := kmgraph.Connectivity(g, kmgraph.Config{K: 8, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("components:", res.Components)
	// Output: components: 3
}

func ExampleMST() {
	g := kmgraph.WithDistinctWeights(kmgraph.GNM(200, 600, 2), 3)
	res, err := kmgraph.MST(g, kmgraph.MSTConfig{Config: kmgraph.Config{K: 4, Seed: 1}})
	if err != nil {
		panic(err)
	}
	_, oracle := kmgraph.MSTOracle(g)
	fmt.Println("optimal:", res.TotalWeight == oracle)
	// Output: optimal: true
}

func ExampleCluster_Verify() {
	grid := kmgraph.Grid(10, 10) // grids are 2-colorable
	c, err := kmgraph.NewCluster(grid, kmgraph.WithK(4), kmgraph.WithSeed(1))
	if err != nil {
		panic(err)
	}
	defer c.Close()
	out, err := c.Verify(context.Background(), kmgraph.ProblemBipartiteness, kmgraph.VerifyArgs{})
	if err != nil {
		panic(err)
	}
	fmt.Println("bipartite:", out.Holds)
	// Output: bipartite: true
}

func ExampleGraphBuilder() {
	b := kmgraph.NewGraphBuilder(4)
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 2, 7)
	g := b.Build()
	fmt.Println(g.N(), "vertices,", g.M(), "edges")
	// Output: 4 vertices, 2 edges
}
