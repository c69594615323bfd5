// Distributed verification: the eight Theorem 4 problems on one scenario —
// a road network (grid) with a proposed spanning backbone — each solved in
// Õ(n/k²) rounds via reductions to the fast connectivity algorithm.
package main

import (
	"context"
	"fmt"
	"log"

	"kmgraph"
)

func main() {
	// A 32x32 road grid and a proposed backbone (a spanning tree), loaded
	// once onto 8 machines; every question below is a job on that cluster.
	g := kmgraph.Grid(32, 32)
	backbone, _ := kmgraph.MSTOracle(g)
	c, err := kmgraph.NewCluster(g, kmgraph.WithK(8), kmgraph.WithSeed(21))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	fmt.Printf("road grid: n=%d m=%d; backbone: %d roads\n\n", g.N(), g.M(), len(backbone))

	cross := kmgraph.Edge{U: 0, V: 1}
	for _, q := range []struct {
		name string
		p    kmgraph.Problem
		args kmgraph.VerifyArgs
	}{
		{"backbone spans and connects the city?", kmgraph.ProblemSpanningConnectedSubgraph, kmgraph.VerifyArgs{H: backbone}},
		{"do the first 100 backbone roads form a cut?", kmgraph.ProblemCut, kmgraph.VerifyArgs{Cut: backbone[:100]}},
		{"corner-to-corner route exists?", kmgraph.ProblemSTConnectivity, kmgraph.VerifyArgs{S: 0, T: g.N() - 1}},
		{"is road (0,1) the only way from 0 to 1?", kmgraph.ProblemEdgeOnAllPaths, kmgraph.VerifyArgs{S: 0, T: 1, E: cross}},
		{"do the first 64 roads separate the corners?", kmgraph.ProblemSTCut, kmgraph.VerifyArgs{S: 0, T: g.N() - 1, Cut: g.Edges()[:64]}},
		{"is the grid two-colorable?", kmgraph.ProblemBipartiteness, kmgraph.VerifyArgs{}},
		{"does the grid contain a cycle?", kmgraph.ProblemCycleContainment, kmgraph.VerifyArgs{}},
		{"is road (0,1) on some cycle?", kmgraph.ProblemECycleContainment, kmgraph.VerifyArgs{E: cross}},
	} {
		out, err := c.Verify(context.Background(), q.p, q.args)
		if err != nil {
			log.Fatalf("%s: %v", q.name, err)
		}
		fmt.Printf("%-42s %-5v (%d runs, %d rounds)\n", q.name, out.Holds, out.Runs, out.Rounds)
	}
}
