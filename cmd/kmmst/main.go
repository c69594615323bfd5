// Command kmmst runs the Õ(n/k²) MST algorithm on a weighted random
// graph via a resident Cluster, verifies the result against the
// sequential oracle, and reports cost under both output criteria
// (Theorem 2). -timeout bounds the job via context.WithTimeout.
//
// Usage:
//
//	kmmst [-n 2048] [-m 6144] [-k 8] [-seed 1] [-timeout 0] [-strong] [-rep]
//	      [-trace out.json]
//	kmmst -transport tcp -workers host:9601,host:9602 -store graph.kmgs
//	      [-k 8] [-seed 1] [-strong] [-trace out.json] [-flight-dump dir/]
//
// With -trace, the Cluster's phase events are written as Chrome
// trace-event JSON (Perfetto / chrome://tracing). -rep does not use a
// Cluster and cannot be traced. With -transport tcp the same trace also
// carries one pid per worker (the spans each worker streamed back), and
// -flight-dump dir/ writes each side's flight-recorder snapshot on
// failure — see cmd/kmconnect for details.
//
// With -transport tcp, -store is served by a fleet-backed Cluster
// (kmgraph.OpenFleet) instead of a resident one: the k machines run
// distributed across the kmworker processes listed in -workers, each
// loading its slice of the graph from the store (the path must be
// readable by every worker). The job, its output and its Metrics are the
// local shard-direct run's, bit for bit. No oracle check (the coordinator
// never sees the graph).
package main

import (
	"flag"
	"fmt"
	"os"

	"kmgraph"
	"kmgraph/internal/cli"
)

func main() {
	n := flag.Int("n", 2048, "vertices")
	m := flag.Int("m", 0, "edges (default 3n)")
	k := flag.Int("k", 8, "machines")
	seed := flag.Int64("seed", 1, "seed")
	timeout := flag.Duration("timeout", 0, "job deadline (0 = none), e.g. 30s")
	strong := flag.Bool("strong", false, "strong output criterion (both endpoints)")
	repMode := flag.Bool("rep", false, "use the random edge partition model instead")
	storePath := flag.String("store", "", "serve a kmgs store shard-direct (never materializes the graph; no oracle check)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the job's phases to this file")
	distFlags := cli.RegisterDistFlags()
	flag.Parse()
	if *m == 0 {
		*m = 3 * *n
	}
	if *tracePath != "" && *repMode {
		fmt.Fprintln(os.Stderr, "kmmst: -trace requires the resident engine (not -rep)")
		os.Exit(2)
	}
	tcp := false
	switch *distFlags.Transport {
	case "local":
	case "tcp":
		if *distFlags.Workers == "" || *storePath == "" {
			fmt.Fprintln(os.Stderr, "kmmst: -transport tcp requires -workers and -store")
			os.Exit(2)
		}
		tcp = true
	default:
		fmt.Fprintf(os.Stderr, "kmmst: unknown transport %q\n", *distFlags.Transport)
		os.Exit(2)
	}
	tracer, clOpts := cli.TraceOpts(*tracePath)
	clOpts = append(clOpts, kmgraph.WithK(*k), kmgraph.WithSeed(*seed))
	var opts []kmgraph.MSTOption
	if *strong {
		opts = append(opts, kmgraph.StrongOutput())
	}

	if *storePath != "" {
		// One job path for a store, wherever its k machines run: only the
		// constructor differs.
		var spec kmgraph.FleetSpec // stays zero (no flight log) on a local run
		var cl *kmgraph.Cluster
		var err error
		if tcp {
			spec = distFlags.Fleet("store:" + *storePath)
			fmt.Printf("distributed: %s over %d workers, k=%d\n", spec.Source, len(spec.Addrs), *k)
			cl, err = kmgraph.OpenFleet(spec, clOpts...)
		} else {
			cl, err = kmgraph.OpenCluster(*storePath, clOpts...)
		}
		if err != nil {
			cli.Fatal(err)
		}
		defer cl.Close()
		if !tcp {
			fmt.Printf("store: %s n=%d m=%d (shard-direct; oracle skipped)\n", *storePath, cl.N(), cl.Metrics().Edges)
		}
		ctx, cancel := cli.JobCtx(*timeout)
		defer cancel()
		res, err := cl.MST(ctx, opts...)
		if err != nil {
			distFlags.Fail(spec, err)
		}
		fmt.Printf("MST: weight=%d edges=%d\n", res.TotalWeight, len(res.Edges))
		fmt.Printf("phases: %d  elimination iterations: %d  sketch failures: %d\n",
			res.Phases, res.ElimIters, res.SketchFailures)
		fmt.Printf("cost: load %d rounds (paid once) + MST %d rounds\n",
			cl.Metrics().LoadRounds, res.Metrics.Rounds)
		cli.WriteTrace(tracer, *tracePath)
		return
	}

	g := kmgraph.WithDistinctWeights(kmgraph.GNM(*n, *m, *seed), *seed+1)
	_, oracleWeight := kmgraph.MSTOracle(g)
	fmt.Printf("graph: n=%d m=%d distinct weights; oracle MST weight %d\n", g.N(), g.M(), oracleWeight)

	if *repMode {
		res, err := kmgraph.REPMST(g, kmgraph.REPConfig{K: *k, Seed: *seed})
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("REP MST: weight=%d edges=%d (match: %v)\n",
			res.TotalWeight, len(res.Edges), res.TotalWeight == oracleWeight)
		fmt.Printf("cost: conversion %d + MST %d = %d rounds (Θ̃(n/k) model)\n",
			res.ConversionRounds, res.MSTRounds, res.TotalRounds)
		return
	}

	cl, err := kmgraph.NewCluster(g, clOpts...)
	if err != nil {
		cli.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := cli.JobCtx(*timeout)
	defer cancel()
	res, err := cl.MST(ctx, opts...)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("MST: weight=%d edges=%d (match: %v)\n",
		res.TotalWeight, len(res.Edges), res.TotalWeight == oracleWeight)
	fmt.Printf("phases: %d  elimination iterations: %d  sketch failures: %d\n",
		res.Phases, res.ElimIters, res.SketchFailures)
	met := cl.Metrics()
	if *strong {
		fmt.Printf("cost: load %d + weak %d + dissemination %d rounds\n",
			met.LoadRounds, res.WeakRounds, res.Metrics.Rounds-res.WeakRounds)
	} else {
		fmt.Printf("cost: load %d rounds (paid once) + MST %d rounds\n",
			met.LoadRounds, res.Metrics.Rounds)
	}
	cli.WriteTrace(tracer, *tracePath)
}
