// Command kmverify runs one or more of the Theorem 4 verification
// problems on a generated instance and reports verdicts and cost. All
// problems run against one resident Cluster (the graph is loaded once);
// -timeout bounds each job via context.WithTimeout.
//
// Usage:
//
//	kmverify -problem bipartite|cycle|scs|stconn|cut|all
//	         [-n 1024] [-k 8] [-seed 1] [-timeout 0]
package main

import (
	"flag"
	"fmt"
	"os"

	"kmgraph"
	"kmgraph/internal/cli"
)

func main() {
	problem := flag.String("problem", "bipartite", "bipartite|cycle|scs|stconn|cut|all")
	n := flag.Int("n", 1024, "instance size")
	k := flag.Int("k", 8, "machines")
	seed := flag.Int64("seed", 1, "seed")
	timeout := flag.Duration("timeout", 0, "per-job deadline (0 = none), e.g. 30s")
	flag.Parse()

	// One instance serves every problem: a two-community graph with a
	// known bridge structure exercises all the reductions.
	g := kmgraph.TwoCliquesBridged(*n/2, 2, *seed)
	var bridgeSet []kmgraph.Edge
	for _, e := range g.Edges() {
		if (e.U < *n/2) != (e.V < *n/2) {
			bridgeSet = append(bridgeSet, e)
		}
	}
	tree, _ := kmgraph.MSTOracle(g)

	// The instance's problems, in -problem all order; each goes by its
	// Problem.String name (the one table in internal/verify).
	type job struct {
		p    kmgraph.Problem
		args kmgraph.VerifyArgs
		desc string
	}
	jobs := []job{
		{p: kmgraph.ProblemBipartiteness,
			desc: fmt.Sprintf("bipartiteness (oracle: %v)", kmgraph.IsBipartiteOracle(g))},
		{p: kmgraph.ProblemCycleContainment,
			desc: "cycle containment"},
		{p: kmgraph.ProblemSpanningConnectedSubgraph, args: kmgraph.VerifyArgs{H: tree},
			desc: "spanning connected subgraph: a spanning tree"},
		{p: kmgraph.ProblemSTConnectivity, args: kmgraph.VerifyArgs{S: 0, T: g.N() - 1},
			desc: fmt.Sprintf("s-t connectivity between 0 and %d", g.N()-1)},
		{p: kmgraph.ProblemCut, args: kmgraph.VerifyArgs{Cut: bridgeSet},
			desc: fmt.Sprintf("cut verification: the %d bridges", len(bridgeSet))},
	}
	selected := jobs
	if *problem != "all" {
		selected = nil
		for _, j := range jobs {
			if j.p.String() == *problem {
				selected = []job{j}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "unknown problem %q\n", *problem)
			os.Exit(1)
		}
	}

	cl, err := kmgraph.NewCluster(g, kmgraph.WithK(*k), kmgraph.WithSeed(*seed))
	if err != nil {
		cli.Fatal(err)
	}
	defer cl.Close()
	fmt.Printf("graph: two bridged cliques, n=%d m=%d; k=%d, load %d rounds (paid once)\n",
		g.N(), g.M(), *k, cl.Metrics().LoadRounds)

	for _, j := range selected {
		ctx, cancel := cli.JobCtx(*timeout)
		out, err := cl.Verify(ctx, j.p, j.args)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", j.p, err)
			os.Exit(1)
		}
		fmt.Printf("%-10s %s\n", j.p.String()+":", j.desc)
		fmt.Printf("           verdict: %v  cost: %d runs, %d rounds\n",
			out.Holds, out.Runs, out.Rounds)
	}
}
