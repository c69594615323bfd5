// Command kmstream replays a batched edge-update stream against a dynamic
// k-machine session and reports per-batch costs: rounds to apply the
// batch, rounds to answer the connectivity query incrementally, and —
// for comparison — the rounds a fresh static Connectivity run costs on
// the same snapshot. Query answers are checked against the sequential
// oracle.
//
// Usage:
//
//	kmstream [-gen churn|window|splitmerge]
//	         [-n 10000] [-m 30000] [-batches 10] [-batchsize 300]
//	         [-delfrac 0.5] [-window 30000] [-comps 8]
//	         [-k 8] [-seed 1] [-timeout 0]
//	         [-static every|first|off] [-oracle]
//
// The acceptance workload of the dynamic subsystem is the default: a
// 10k-vertex graph under 1% churn batches, where incremental per-batch
// rounds must come in strictly below the fresh static run.
package main

import (
	"flag"
	"fmt"
	"os"

	"kmgraph"
	"kmgraph/internal/cli"
)

func buildStream(gen string, n, m, batches, batchSize, window, comps int, delFrac float64, seed int64) (*kmgraph.UpdateStream, error) {
	switch gen {
	case "churn":
		return kmgraph.RandomChurnStream(n, m, batches, batchSize, delFrac, seed), nil
	case "window":
		return kmgraph.SlidingWindowStream(n, window, batches, batchSize, seed), nil
	case "splitmerge":
		return kmgraph.SplitMergeStream(n, comps, batches, seed), nil
	default:
		return nil, fmt.Errorf("unknown stream generator %q", gen)
	}
}

// oracleCheck compares a query answer against the sequential oracle on
// the snapshot: component count and the full partition.
func oracleCheck(snap *kmgraph.Graph, q *kmgraph.QueryResult) bool {
	labels, count := kmgraph.ComponentsOracle(snap)
	if q.Components != count {
		return false
	}
	min := make(map[uint64]int)
	for v, l := range q.Labels {
		if m, ok := min[l]; !ok || v < m {
			min[l] = v
		}
	}
	for v, l := range q.Labels {
		if min[l] != labels[v] {
			return false
		}
	}
	return true
}

func main() {
	gen := flag.String("gen", "churn", "stream generator: churn|window|splitmerge")
	n := flag.Int("n", 10_000, "vertices")
	m := flag.Int("m", 0, "initial edges (churn; default 3n)")
	batches := flag.Int("batches", 10, "number of update batches")
	batchSize := flag.Int("batchsize", 0, "ops per batch (default 1% of m)")
	delFrac := flag.Float64("delfrac", 0.5, "deletion fraction (churn)")
	window := flag.Int("window", 0, "live-edge window (window; default 3n)")
	comps := flag.Int("comps", 8, "component blocks (splitmerge)")
	k := flag.Int("k", 8, "machines")
	seed := flag.Int64("seed", 1, "seed")
	timeout := flag.Duration("timeout", 0, "per-job deadline (0 = none), e.g. 30s")
	static := flag.String("static", "every", "compare against a fresh static run: every|first|off")
	oracle := flag.Bool("oracle", true, "check every query against the sequential oracle")
	flag.Parse()

	if *m == 0 {
		*m = 3 * *n
	}
	if *window == 0 {
		*window = 3 * *n
	}
	if *batchSize == 0 {
		*batchSize = *m / 100
	}
	stream, err := buildStream(*gen, *n, *m, *batches, *batchSize, *window, *comps, *delFrac, *seed)
	if err != nil {
		cli.Fatal(err)
	}

	sess, err := kmgraph.NewCluster(stream.Initial, kmgraph.WithK(*k), kmgraph.WithSeed(*seed))
	if err != nil {
		cli.Fatal(err)
	}
	defer sess.Close()

	fmt.Printf("stream: %s n=%d m0=%d batches=%d; cluster: k=%d B=%d bits/link/round, load %d rounds\n",
		*gen, stream.Initial.N(), stream.Initial.M(), len(stream.Batches), *k,
		kmgraph.DefaultBandwidth(stream.Initial.N()), sess.Metrics().LoadRounds)

	ctx, cancel := cli.JobCtx(*timeout)
	q, err := sess.Connectivity(ctx)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "build-up query:", err)
		os.Exit(1)
	}
	fmt.Printf("build-up query: %d rounds, %d phases, %d components\n\n",
		q.Rounds, q.Phases, q.Components)

	fmt.Printf("%-6s %-5s %-6s %-7s %-7s %-7s %-9s %-6s %-7s %-8s %-7s\n",
		"batch", "ops", "apply", "query", "phases", "dirty", "comps", "edges", "static", "speedup", "oracle")
	runStatic := func(i int) bool {
		return *static == "every" || (*static == "first" && i == 0)
	}
	snap := stream.Initial
	ok := true
	var sumApply, sumQuery, sumStatic, nStatic int
	for i, ops := range stream.Batches {
		ctx, cancel := cli.JobCtx(*timeout)
		br, err := sess.ApplyBatch(ctx, ops)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "batch %d: %v\n", i, err)
			os.Exit(1)
		}
		snap = kmgraph.ApplyOps(snap, ops)
		ctx, cancel = cli.JobCtx(*timeout)
		q, err := sess.Connectivity(ctx)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "query %d: %v\n", i, err)
			os.Exit(1)
		}
		sumApply += br.Rounds
		sumQuery += q.Rounds

		staticCell, speedupCell := "-", "-"
		if runStatic(i) {
			st, err := kmgraph.Connectivity(snap, kmgraph.Config{K: *k, Seed: *seed})
			if err != nil {
				fmt.Fprintf(os.Stderr, "static run %d: %v\n", i, err)
				os.Exit(1)
			}
			sumStatic += st.Metrics.Rounds
			nStatic++
			staticCell = fmt.Sprintf("%d", st.Metrics.Rounds)
			speedupCell = fmt.Sprintf("%.1fx", float64(st.Metrics.Rounds)/float64(br.Rounds+q.Rounds))
			if q.Components != st.Components {
				ok = false
			}
		}
		oracleCell := "-"
		if *oracle {
			if oracleCheck(snap, q) {
				oracleCell = "ok"
			} else {
				oracleCell = "MISMATCH"
				ok = false
			}
		}
		fmt.Printf("%-6d %-5d %-6d %-7d %-7d %-7d %-9d %-6d %-7s %-8s %-7s\n",
			i, len(ops), br.Rounds, q.Rounds, q.Phases, q.RelabeledVertices,
			q.Components, snap.M(), staticCell, speedupCell, oracleCell)
	}

	fmt.Printf("\ntotals: apply=%d rounds, query=%d rounds over %d batches (mean %.1f + %.1f per batch)\n",
		sumApply, sumQuery, len(stream.Batches),
		float64(sumApply)/float64(len(stream.Batches)),
		float64(sumQuery)/float64(len(stream.Batches)))
	if nStatic > 0 {
		fmt.Printf("static: mean %.1f rounds per snapshot; incremental speedup %.1fx\n",
			float64(sumStatic)/float64(nStatic),
			float64(sumStatic)/float64(nStatic)/
				(float64(sumApply+sumQuery)/float64(len(stream.Batches))))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "FAILED: query answers diverged from oracle/static results")
		os.Exit(1)
	}
}
