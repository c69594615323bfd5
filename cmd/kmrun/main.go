// Command kmrun runs one job family against a k-machine Cluster and
// checks the answer against the sequential oracle:
//
//	kmrun connectivity   Theorem 1 components (or a baseline: -algo
//	                     edgecheck|flooding|referee)
//	kmrun mst            Theorem 2 minimum spanning forest, distinct weights
//	                     ([-strong], or the REP-model baseline: -rep)
//	kmrun mincut         Theorem 3 O(log n)-approximate minimum cut
//	kmrun verify         Theorem 4 verification problems
//	                     (-problem bipartite|cycle|scs|stconn|cut|all)
//	kmrun stream         a batched edge-update stream (-gen
//	                     churn|window|splitmerge): per-batch apply and
//	                     incremental query rounds against a fresh static run
//
// Every family takes the same flags (internal/cli) and the same path —
// open a Cluster, run the family's jobs, print:
//
//	-gen G -n N -m M -p P -c C -bridges B -seed S   generate the graph, or
//	-input edges.txt                                read it, or
//	-store graph.kmgs                               serve a kmgs container (see
//	                                                cmd/kmconvert) shard-direct:
//	                                                it never enters this process
//	-k 8                 machines
//	-timeout 30s         per-job deadline (context.WithTimeout)
//	-trace out.json      the jobs' phases as Chrome trace-event JSON (Perfetto,
//	                     chrome://tracing): one span per job enclosing one per
//	                     merge phase, with round, message, payload and link-skew
//	                     deltas
//	-transport tcp -workers host:9601,host:9602 [-retries 1]
//	      [-heartbeat-timeout 30s] [-flight-dump dir/]
//
// With -transport tcp the Cluster is fleet-backed (kmgraph.OpenFleet): the
// k machines run across the kmworker processes in -workers (cmd/kmworker),
// this process coordinates, and each worker loads its own slice of the
// graph and keeps it for the run — so only -store (a path every worker can
// read) and -gen gnm are sources, and there is no oracle (the coordinator
// never sees the graph). The same engine runs the jobs either way, so
// connectivity, mst and mincut print the same answers, load and job rounds
// and sketch failures as a local run on the same graph, k and seed. The
// trace gains one pid per worker (100 + index) with the spans it streamed
// back; a failed run with -flight-dump writes each side's flight-recorder
// snapshot (the last rounds of every link) as JSON — see dist.FlightDump.
// verify and stream derive their arguments and oracles from the in-memory
// graph and take -gen or -input only; so do the baselines, which use no
// Cluster and cannot be traced.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"kmgraph"
	"kmgraph/internal/baseline"
	"kmgraph/internal/cli"
	"kmgraph/internal/rep"
)

var families = map[string]func(fs *flag.FlagSet, args []string){
	"connectivity": connectivity,
	"mst":          mst,
	"mincut":       mincut,
	"verify":       verify,
	"stream":       stream,
}

func main() {
	if len(os.Args) < 2 || families[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: kmrun connectivity|mst|mincut|verify|stream [flags] (-h lists a family's flags)")
		os.Exit(2)
	}
	families[os.Args[1]](flag.NewFlagSet("kmrun "+os.Args[1], flag.ExitOnError), os.Args[2:])
}

// needGraph refuses the placements a path that reads the graph itself
// cannot honour.
func needGraph(f *cli.Flags, g *kmgraph.Graph, what string) {
	if g == nil {
		f.Usage("%s needs the graph in memory: use -gen or -input, not -store or -transport tcp", what)
	}
}

// noCluster is needGraph for a baseline, which also has no Cluster whose
// phase events a -trace could record.
func noCluster(f *cli.Flags, g *kmgraph.Graph, what string) {
	needGraph(f, g, what)
	if *f.Trace != "" {
		f.Usage("-trace needs a Cluster, which %s does not use", what)
	}
	f.PrintGraph(g)
}

func connectivity(fs *flag.FlagSet, args []string) {
	f := cli.Register(fs, "gnm", 4096, 4)
	algo := fs.String("algo", "sketch", "sketch|edgecheck|flooding|referee")
	noOracle := fs.Bool("no-oracle", false, "with -store: skip the streaming union-find oracle pass")
	f.Parse(args)

	g := f.Graph()
	oracle := ""
	if g != nil {
		_, count := kmgraph.ComponentsOracle(g)
		oracle = fmt.Sprintf(" (oracle: %d)", count)
	} else if *f.Transport == "local" && !*noOracle {
		// One streaming union-find pass over the store.
		src, closer, err := kmgraph.OpenSource(*f.Store)
		if err != nil {
			cli.Fatal(err)
		}
		count, err := kmgraph.ComponentsFromSourceOracle(src)
		closer.Close()
		if err != nil {
			cli.Fatal(err)
		}
		oracle = fmt.Sprintf(" (oracle: %d)", count)
	}

	if *algo != "sketch" {
		noCluster(f, g, "-algo "+*algo)
		components, cost := runBaseline(f, g, *algo)
		fmt.Printf("components: %d%s\n%s\n", components, oracle, cost)
		return
	}

	s := f.Open(g)
	start := time.Now()
	res := cli.Job(s, "", s.Cluster.Connectivity)
	fmt.Printf("components: %d%s\n", res.Components, oracle)
	fmt.Printf("phases: %d  sketch failures: %d\n", res.Phases, res.SketchFailures)
	fmt.Printf("cost: load %d rounds (paid once) + query %d rounds (query wall %v)\n",
		s.Cluster.Metrics().LoadRounds, res.Rounds, time.Since(start).Round(time.Millisecond))
	s.Close()
}

// runBaseline runs one of the algorithms the paper improves on — one-shot, on
// the in-memory graph, without a Cluster — and returns its answer and
// cost lines.
func runBaseline(f *cli.Flags, g *kmgraph.Graph, algo string) (components int, cost string) {
	switch algo {
	case "edgecheck":
		res, err := kmgraph.Connectivity(g, kmgraph.Config{K: *f.K, Seed: *f.Seed, EdgeCheckSelection: true})
		if err != nil {
			cli.Fatal(err)
		}
		return res.Components, fmt.Sprintf("phases: %d  sketch failures: %d\ncost: %s",
			res.Phases, res.SketchFailures, res.Metrics.String())
	case "flooding", "referee":
		run := baseline.Flooding
		if algo == "referee" {
			run = baseline.Referee
		}
		res, err := run(g, kmgraph.Config{K: *f.K, Seed: *f.Seed})
		if err != nil {
			cli.Fatal(err)
		}
		return res.Components, "cost: " + res.Metrics.String()
	}
	f.Usage("unknown algorithm %q", algo)
	return 0, ""
}

func mst(fs *flag.FlagSet, args []string) {
	f := cli.Register(fs, "gnm", 2048, 4)
	strong := fs.Bool("strong", false, "strong output criterion: every MST edge at both endpoints' homes (Theorem 2(b))")
	repMode := fs.Bool("rep", false, "run the random-edge-partition baseline instead (no Cluster)")
	f.Parse(args)

	g := f.Graph()
	match := func(int64) string { return "" }
	if g != nil {
		g = kmgraph.WithDistinctWeights(g, *f.Seed+1)
		_, oracle := kmgraph.MSTOracle(g)
		match = func(w int64) string { return fmt.Sprintf(" (oracle: %d, match: %v)", oracle, w == oracle) }
	}
	if *repMode {
		noCluster(f, g, "-rep")
		res, err := rep.MST(g, kmgraph.Config{K: *f.K, Seed: *f.Seed})
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("REP MST: weight=%d edges=%d%s\n", res.TotalWeight, len(res.Edges), match(res.TotalWeight))
		fmt.Printf("cost: conversion %d + MST %d = %d rounds (Θ̃(n/k) model)\n",
			res.ConversionRounds, res.MSTRounds, res.TotalRounds)
		return
	}

	s := f.Open(g)
	var opts []kmgraph.MSTOption
	if *strong {
		opts = append(opts, kmgraph.StrongOutput())
	}
	res := cli.Job(s, "", func(ctx context.Context) (*kmgraph.MSTResult, error) { return s.Cluster.MST(ctx, opts...) })
	fmt.Printf("MST: weight=%d edges=%d%s\n", res.TotalWeight, len(res.Edges), match(res.TotalWeight))
	fmt.Printf("phases: %d  elimination iterations: %d  sketch failures: %d\n",
		res.Phases, res.ElimIters, res.SketchFailures)
	if load := s.Cluster.Metrics().LoadRounds; *strong {
		fmt.Printf("cost: load %d + weak %d + dissemination %d rounds\n",
			load, res.WeakRounds, res.Metrics.Rounds-res.WeakRounds)
	} else {
		fmt.Printf("cost: load %d rounds (paid once) + MST %d rounds\n", load, res.Metrics.Rounds)
	}
	s.Close()
}

func mincut(fs *flag.FlagSet, args []string) {
	f := cli.Register(fs, "bridged", 64, 4)
	f.Parse(args)
	g := f.Graph()
	s := f.Open(g)
	res := cli.Job(s, "", func(ctx context.Context) (*kmgraph.MinCutResult, error) { return s.Cluster.ApproxMinCut(ctx) })
	if g != nil {
		fmt.Printf("true min cut (Stoer–Wagner oracle): %d\n", kmgraph.MinCutOracle(g))
	}
	fmt.Printf("distributed estimate: %.1f (first disconnecting sampling level: %d)\n", res.Estimate, res.Level)
	fmt.Printf("cost: %d connectivity runs on one residency, load %d + trials %d rounds\n",
		res.Runs, s.Cluster.Metrics().LoadRounds, res.Rounds)
	s.Close()
}

func verify(fs *flag.FlagSet, args []string) {
	// The default instance, two cliques joined by two bridges, exercises
	// every reduction.
	f := cli.Register(fs, "bridged", 1024, 2)
	problem := fs.String("problem", "bipartite", "bipartite|cycle|scs|stconn|cut|all")
	f.Parse(args)
	g := f.Graph()
	needGraph(f, g, "verify")

	// The instance's problems, in -problem all order; each goes by its
	// Problem.String name (the one table in internal/verify). The cut is
	// the edge set between the low and the high half of the vertex IDs (on
	// the default instance: the bridges).
	var cut []kmgraph.Edge
	for _, e := range g.Edges() {
		if (e.U < g.N()/2) != (e.V < g.N()/2) {
			cut = append(cut, e)
		}
	}
	tree, _ := kmgraph.MSTOracle(g)
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
			desc: "spanning connected subgraph: a spanning forest"},
		{p: kmgraph.ProblemSTConnectivity, args: kmgraph.VerifyArgs{S: 0, T: g.N() - 1},
			desc: fmt.Sprintf("s-t connectivity between 0 and %d", g.N()-1)},
		{p: kmgraph.ProblemCut, args: kmgraph.VerifyArgs{Cut: cut},
			desc: fmt.Sprintf("cut verification: the %d edges between the halves", len(cut))},
	}
	var selected []job
	for _, j := range jobs {
		if *problem == "all" || *problem == j.p.String() {
			selected = append(selected, j)
		}
	}
	if selected == nil {
		f.Usage("unknown problem %q", *problem)
	}

	s := f.Open(g)
	fmt.Printf("load %d rounds (paid once)\n", s.Cluster.Metrics().LoadRounds)
	for _, j := range selected {
		out := cli.Job(s, j.p.String(), func(ctx context.Context) (*kmgraph.VerifyOutcome, error) {
			return s.Cluster.Verify(ctx, j.p, j.args)
		})
		fmt.Printf("%-10s %s\n", j.p.String()+":", j.desc)
		fmt.Printf("           verdict: %v  cost: %d runs, %d rounds\n", out.Holds, out.Runs, out.Rounds)
	}
	s.Close()
}

// stream replays a batched edge-update stream against one residency and
// reports per batch: rounds to apply it, rounds to answer connectivity
// incrementally, and the rounds a fresh static run costs on the same
// snapshot. The default — a 10k-vertex graph under 1% churn batches — is
// the dynamic subsystem's acceptance workload: incremental rounds must come
// in strictly below the static run.
func stream(fs *flag.FlagSet, args []string) {
	f := cli.Register(fs, "churn", 10_000, 4)
	batches := fs.Int("batches", 10, "number of update batches")
	batchSize := fs.Int("batchsize", 0, "ops per batch (default 1% of m)")
	delFrac := fs.Float64("delfrac", 0.5, "deletion fraction (churn)")
	window := fs.Int("window", 0, "live-edge window (window; default 3n)")
	comps := fs.Int("comps", 8, "component blocks (splitmerge)")
	static := fs.String("static", "every", "compare against a fresh static run: every|first|off")
	oracle := fs.Bool("oracle", true, "check every query against the sequential oracle")
	f.Parse(args)
	if *f.Store != "" || *f.Input != "" || *f.Transport != "local" {
		f.Usage("a stream generates its own graph (-gen churn|window|splitmerge): no -store, -input or -transport tcp")
	}
	if *window == 0 {
		*window = 3 * *f.N
	}
	if *batchSize == 0 {
		*batchSize = *f.M / 100
	}
	var st *kmgraph.UpdateStream
	switch *f.Gen {
	case "churn":
		st = kmgraph.RandomChurnStream(*f.N, *f.M, *batches, *batchSize, *delFrac, *f.Seed)
	case "window":
		st = kmgraph.SlidingWindowStream(*f.N, *window, *batches, *batchSize, *f.Seed)
	case "splitmerge":
		st = kmgraph.SplitMergeStream(*f.N, *comps, *batches, *f.Seed)
	default:
		cli.Fatal(fmt.Errorf("unknown stream generator %q", *f.Gen))
	}

	s := f.Open(st.Initial)
	fmt.Printf("stream: %d batches; load %d rounds\n", len(st.Batches), s.Cluster.Metrics().LoadRounds)
	q := cli.Job(s, "build-up query", s.Cluster.Connectivity)
	fmt.Printf("build-up query: %d rounds, %d phases, %d components\n\n", q.Rounds, q.Phases, q.Components)

	fmt.Printf("%-6s %-5s %-6s %-7s %-7s %-7s %-9s %-6s %-7s %-8s %-7s\n",
		"batch", "ops", "apply", "query", "phases", "dirty", "comps", "edges", "static", "speedup", "oracle")
	snap := st.Initial
	ok := true
	var sumApply, sumQuery, sumStatic, nStatic int
	for i, ops := range st.Batches {
		br := cli.Job(s, fmt.Sprintf("batch %d", i), func(ctx context.Context) (*kmgraph.BatchResult, error) {
			return s.Cluster.ApplyBatch(ctx, ops)
		})
		snap = kmgraph.ApplyOps(snap, ops)
		q := cli.Job(s, fmt.Sprintf("query %d", i), s.Cluster.Connectivity)
		sumApply += br.Rounds
		sumQuery += q.Rounds

		staticCell, speedupCell := "-", "-"
		if *static == "every" || (*static == "first" && i == 0) {
			fresh, err := kmgraph.Connectivity(snap, kmgraph.Config{K: *f.K, Seed: *f.Seed})
			if err != nil {
				s.Fail(fmt.Errorf("static run %d: %w", i, err))
			}
			sumStatic += fresh.Metrics.Rounds
			nStatic++
			staticCell = fmt.Sprintf("%d", fresh.Metrics.Rounds)
			speedupCell = fmt.Sprintf("%.1fx", float64(fresh.Metrics.Rounds)/float64(br.Rounds+q.Rounds))
			ok = ok && q.Components == fresh.Components
		}
		oracleCell := "-"
		if *oracle {
			if oracleCell = "ok"; !oracleAgrees(snap, q) {
				oracleCell, ok = "MISMATCH", false
			}
		}
		fmt.Printf("%-6d %-5d %-6d %-7d %-7d %-7d %-9d %-6d %-7s %-8s %-7s\n",
			i, len(ops), br.Rounds, q.Rounds, q.Phases, q.RelabeledVertices,
			q.Components, snap.M(), staticCell, speedupCell, oracleCell)
	}

	nb := float64(len(st.Batches))
	fmt.Printf("\ntotals: apply=%d rounds, query=%d rounds over %d batches (mean %.1f + %.1f per batch)\n",
		sumApply, sumQuery, len(st.Batches), float64(sumApply)/nb, float64(sumQuery)/nb)
	if nStatic > 0 {
		mean := float64(sumStatic) / float64(nStatic)
		fmt.Printf("static: mean %.1f rounds per snapshot; incremental speedup %.1fx\n",
			mean, mean/(float64(sumApply+sumQuery)/nb))
	}
	s.Close()
	if !ok {
		cli.Fatal(fmt.Errorf("FAILED: query answers diverged from oracle/static results"))
	}
}

// oracleAgrees compares a query answer against the sequential oracle on
// the snapshot: component count and the full partition.
func oracleAgrees(snap *kmgraph.Graph, q *kmgraph.QueryResult) bool {
	labels, count := kmgraph.ComponentsOracle(snap)
	if q.Components != count {
		return false
	}
	lowest := make(map[uint64]int)
	for v, l := range q.Labels {
		if m, ok := lowest[l]; !ok || v < m {
			lowest[l] = v
		}
	}
	for v, l := range q.Labels {
		if lowest[l] != labels[v] {
			return false
		}
	}
	return true
}
