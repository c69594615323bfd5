// Social network analysis: discover friend circles (connected components)
// in a synthetic social graph distributed across a cluster — the workload
// class (social networks, web graphs) that motivates the paper's k-machine
// model, where the graph is far too large for one machine and is hash-
// partitioned across workers, as in Pregel/Giraph.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"kmgraph"
)

func main() {
	// A stochastic block model: 4,000 users in 25 tight communities with
	// no cross-community edges at all — isolated friend circles.
	const users, circles = 4000, 25
	g := kmgraph.PlantedPartition(users, circles, 0.05, 0, 42)
	fmt.Printf("social graph: %d users, %d friendships\n", g.N(), g.M())

	res, err := kmgraph.Connectivity(g, kmgraph.Config{K: 16, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found %d friend circles in %d rounds on 16 machines\n",
		res.Components, res.Metrics.Rounds)

	// Circle size distribution from the labeling.
	sizes := map[uint64]int{}
	for _, l := range res.Labels {
		sizes[l]++
	}
	var dist []int
	for _, s := range sizes {
		dist = append(dist, s)
	}
	sort.Ints(dist)
	fmt.Printf("circle sizes: min=%d median=%d max=%d\n",
		dist[0], dist[len(dist)/2], dist[len(dist)-1])

	// Cross-check against the sequential oracle.
	_, want := kmgraph.ComponentsOracle(g)
	if res.Components != want {
		log.Fatalf("disagreement with oracle: %d vs %d", res.Components, want)
	}
	fmt.Println("oracle agrees")

	// Is the friendship graph bipartite (a pure "two-camps" structure)?
	c, err := kmgraph.NewCluster(g, kmgraph.WithK(16), kmgraph.WithSeed(4))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	bip, err := c.Verify(context.Background(), kmgraph.ProblemBipartiteness, kmgraph.VerifyArgs{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bipartite: %v (checked distributedly in %d rounds)\n", bip.Holds, bip.Rounds)
}
