// Network design: pick the cheapest backbone (an MST) for a weighted
// infrastructure graph, distributedly, and compare the two partition
// models the paper analyzes — random vertex partition (Õ(n/k²), Theorem
// 2) versus random edge partition (Θ̃(n/k), §1.3) — and the two output
// criteria of Theorem 2.
package main

import (
	"fmt"
	"log"

	"kmgraph"
	"kmgraph/internal/rep"
)

func main() {
	// 3,000 sites with 12,000 candidate links, cost = distinct weights.
	g := kmgraph.WithDistinctWeights(kmgraph.GNM(3000, 12000, 11), 12)
	_, best := kmgraph.MSTOracle(g)
	fmt.Printf("candidate network: %d sites, %d links; optimal backbone cost %d\n",
		g.N(), g.M(), best)

	const k = 12

	// RVP model (the paper's main setting).
	rvp, err := kmgraph.MST(g, kmgraph.MSTConfig{Config: kmgraph.Config{K: k, Seed: 5}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RVP backbone: cost=%d in %d rounds (optimal: %v)\n",
		rvp.TotalWeight, rvp.Metrics.Rounds, rvp.TotalWeight == best)

	// REP model: local cycle-property filtering + conversion.
	repRes, err := rep.MST(g, kmgraph.Config{K: k, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("REP backbone: cost=%d, filtered %d→%d links, %d rounds (conversion %d)\n",
		repRes.TotalWeight, g.M(), repRes.FilteredEdges, repRes.TotalRounds, repRes.ConversionRounds)

	// Strong output (every site's machine learns its incident backbone
	// links): the Theorem 2(b) criterion.
	strong, err := kmgraph.MST(g, kmgraph.MSTConfig{
		Config: kmgraph.Config{K: k, Seed: 5}, StrongOutput: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strong output: +%d dissemination rounds; %d sites now know their links\n",
		strong.Metrics.Rounds-strong.WeakRounds, len(strong.VertexEdges))
}
