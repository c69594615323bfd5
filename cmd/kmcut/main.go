// Command kmcut estimates the minimum cut of a generated network with the
// O(log n)-approximation of Theorem 3 — served from a resident Cluster —
// and compares it to the exact Stoer–Wagner oracle. -timeout bounds the
// whole job via context.WithTimeout.
//
// Usage:
//
//	kmcut [-graph cycle|bridged|complete|gnm] [-n 64] [-bridges 4]
//	      [-k 8] [-seed 1] [-timeout 0]
package main

import (
	"flag"
	"fmt"
	"os"

	"kmgraph"
	"kmgraph/internal/cli"
)

func main() {
	kind := flag.String("graph", "bridged", "cycle|bridged|complete|gnm")
	n := flag.Int("n", 64, "size parameter")
	bridges := flag.Int("bridges", 4, "bridge edges (bridged)")
	k := flag.Int("k", 8, "machines")
	seed := flag.Int64("seed", 1, "seed")
	timeout := flag.Duration("timeout", 0, "job deadline (0 = none), e.g. 30s")
	flag.Parse()

	var g *kmgraph.Graph
	switch *kind {
	case "cycle":
		g = kmgraph.Cycle(*n)
	case "bridged":
		g = kmgraph.TwoCliquesBridged(*n/2, *bridges, *seed)
	case "complete":
		g = kmgraph.Complete(*n)
	case "gnm":
		g = kmgraph.GNM(*n, 4**n, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown graph %q\n", *kind)
		os.Exit(1)
	}

	trueCut := kmgraph.MinCutOracle(g)
	cl, err := kmgraph.NewCluster(g, kmgraph.WithK(*k), kmgraph.WithSeed(*seed))
	if err != nil {
		cli.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := cli.JobCtx(*timeout)
	defer cancel()
	res, err := cl.ApproxMinCut(ctx)
	if err != nil {
		cli.Fatal(err)
	}
	met := cl.Metrics()
	fmt.Printf("graph: %s n=%d m=%d\n", *kind, g.N(), g.M())
	fmt.Printf("true min cut (Stoer–Wagner oracle): %d\n", trueCut)
	fmt.Printf("distributed estimate: %.1f (first disconnecting sampling level: %d)\n",
		res.Estimate, res.Level)
	fmt.Printf("cost: %d connectivity runs on one residency, load %d + trials %d rounds\n",
		res.Runs, met.LoadRounds, res.Rounds)
}
