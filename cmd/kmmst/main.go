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
// With -trace, the resident engine's phase events are written as Chrome
// trace-event JSON (Perfetto / chrome://tracing). -rep does not use the
// resident engine and cannot be traced. With -transport tcp, -trace
// assembles the cross-process trace streamed back by the workers (one
// pid per worker), and -flight-dump dir/ writes each side's
// flight-recorder snapshot on failure — see cmd/kmconnect for details.
//
// With -transport tcp, the k machines run distributed across the
// kmworker processes listed in -workers; each loads its slice of the
// graph from the -store spec (the path must be readable by every
// worker). The result and Metrics are bit-identical to a local
// shard-direct run. No oracle check (the coordinator never sees the
// graph).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"kmgraph"
	"kmgraph/internal/cli"
	"kmgraph/internal/core"
	"kmgraph/internal/dist"
)

// runDistributed coordinates an MST job over a kmworker fleet.
func runDistributed(job *cli.DistJob, source string, k int, seed int64, strong bool, timeout time.Duration) {
	fmt.Printf("distributed: %s over %d workers, k=%d\n", source, len(job.Workers), k)
	ctx, cancel := cli.JobCtx(timeout)
	defer cancel()
	start := time.Now()
	cfg := core.MSTConfig{Config: core.Config{K: k, Seed: seed}, StrongOutput: strong}
	res, err := dist.RunMSTOpts(ctx, job.Workers, source, cfg, job.Opts)
	if err != nil {
		job.Fail(err)
	}
	fmt.Printf("MST: weight=%d edges=%d\n", res.TotalWeight, len(res.Edges))
	fmt.Printf("phases: %d  elimination iterations: %d  sketch failures: %d\n",
		res.Phases, res.ElimIters, res.SketchFailures)
	fmt.Printf("cost: %s (wall %v)\n", res.Metrics.String(), time.Since(start).Round(time.Millisecond))
	job.WriteTrace()
}

func main() {
	n := flag.Int("n", 2048, "vertices")
	m := flag.Int("m", 0, "edges (default 3n)")
	k := flag.Int("k", 8, "machines")
	seed := flag.Int64("seed", 1, "seed")
	timeout := flag.Duration("timeout", 0, "job deadline (0 = none), e.g. 30s")
	strong := flag.Bool("strong", false, "strong output criterion (both endpoints)")
	repMode := flag.Bool("rep", false, "use the random edge partition model instead")
	storePath := flag.String("store", "", "serve a kmgs store shard-direct (never materializes the graph; no oracle check)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the resident job's phases to this file")
	distFlags := cli.RegisterDistFlags()
	flag.Parse()
	if *m == 0 {
		*m = 3 * *n
	}
	if *tracePath != "" && *repMode {
		fmt.Fprintln(os.Stderr, "kmmst: -trace requires the resident engine (not -rep)")
		os.Exit(2)
	}
	switch *distFlags.Transport {
	case "local":
	case "tcp":
		if *distFlags.Workers == "" || *storePath == "" {
			fmt.Fprintln(os.Stderr, "kmmst: -transport tcp requires -workers and -store")
			os.Exit(2)
		}
		runDistributed(distFlags.Job(*tracePath), "store:"+*storePath, *k, *seed, *strong, *timeout)
		return
	default:
		fmt.Fprintf(os.Stderr, "kmmst: unknown transport %q\n", *distFlags.Transport)
		os.Exit(2)
	}
	tracer, clOpts := cli.TraceOpts(*tracePath)
	clOpts = append(clOpts, kmgraph.WithK(*k), kmgraph.WithSeed(*seed))

	if *storePath != "" {
		cl, err := kmgraph.OpenCluster(*storePath, clOpts...)
		if err != nil {
			cli.Fatal(err)
		}
		defer cl.Close()
		met := cl.Metrics()
		fmt.Printf("store: %s n=%d m=%d (shard-direct; oracle skipped)\n", *storePath, cl.N(), met.Edges)
		ctx, cancel := cli.JobCtx(*timeout)
		defer cancel()
		var opts []kmgraph.MSTOption
		if *strong {
			opts = append(opts, kmgraph.StrongOutput())
		}
		res, err := cl.MST(ctx, opts...)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("MST: weight=%d edges=%d\n", res.TotalWeight, len(res.Edges))
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
	var opts []kmgraph.MSTOption
	if *strong {
		opts = append(opts, kmgraph.StrongOutput())
	}
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
