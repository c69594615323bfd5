// Command kmconnect runs the Õ(n/k²) connectivity algorithm (or a
// baseline) on a generated graph and reports components and cost. The
// default sketch path serves the query from a resident Cluster; -timeout
// bounds the whole job via context.WithTimeout.
//
// Usage:
//
//	kmconnect [-gen gnm|gnp|path|cycle|star|components|planted]
//	          [-n 4096] [-m 12288] [-p 0.01] [-c 5]
//	          [-k 8] [-seed 1] [-timeout 0] [-trace out.json]
//	          [-algo sketch|edgecheck|flooding|referee]
//	kmconnect -store graph.kmgs [-k 8] [-seed 1] [-timeout 0] [-trace out.json]
//	kmconnect -transport tcp -workers host:9601,host:9602 \
//	          (-store graph.kmgs | -gen gnm -n ... -m ...) [-k 8] [-seed 1]
//
// With -store, the graph is served shard-direct from a kmgs container
// (see cmd/kmconvert) and never materialized in this process.
//
// With -transport tcp, the Cluster is a fleet-backed one
// (kmgraph.OpenFleet): the k machines run distributed across the
// kmworker processes listed in -workers (see cmd/kmworker), this process
// coordinates, each worker loads its own slice of the graph from the
// source spec and hosts a contiguous machine range — and the query, its
// output and its -trace are the ones every other mode runs. Only -store
// and -gen gnm sources are supported (the workers must be able to
// reproduce the graph independently; the coordinator never sees it, so
// there is no oracle count), and only the sketch algorithm runs
// distributed. The result and its Metrics are bit-identical to a local
// run with the same parameters.
//
// With -trace, the Cluster's phase events are recorded and written as
// Chrome trace-event JSON (loadable in Perfetto or chrome://tracing):
// one span per job enclosing one span per merge phase, annotated with
// rounds, message and payload deltas, and link skew. Locally, only the
// resident sketch path (-algo sketch or -store) emits phase events. With
// -transport tcp the same trace additionally carries one pid per worker
// (100 + worker index): the phase spans each worker streamed back over
// its control connection, annotated with its rounds, wire traffic, and
// barrier waits.
//
// With -transport tcp -flight-dump dir/, a failed run writes each
// side's flight-recorder snapshot (the last K rounds of every link
// before the failure) as JSON files under dir/ — see dist.FlightDump.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"kmgraph"
	"kmgraph/internal/cli"
	"kmgraph/internal/procstat"
)

func buildGraph(gen string, n, m, c int, p float64, seed int64) (*kmgraph.Graph, error) {
	switch gen {
	case "gnm":
		return kmgraph.GNM(n, m, seed), nil
	case "gnp":
		return kmgraph.GNP(n, p, seed), nil
	case "path":
		return kmgraph.Path(n), nil
	case "cycle":
		return kmgraph.Cycle(n), nil
	case "star":
		return kmgraph.Star(n), nil
	case "components":
		return kmgraph.DisjointComponents(n, c, 0.5, seed), nil
	case "planted":
		return kmgraph.PlantedPartition(n, c, 0.1, 0.001, seed), nil
	case "powerlaw":
		return kmgraph.ChungLu(n, 2.5, float64(m)*2/float64(n), seed), nil
	default:
		return nil, fmt.Errorf("unknown generator %q", gen)
	}
}

func loadGraph(path string) (*kmgraph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return kmgraph.ReadEdgeList(f)
}

// runStore serves a kmgs store (or text edge list) shard-direct: the
// graph is never materialized in this process — the residency's
// per-machine shards are filled straight from the stream, and the
// oracle is a one-pass streaming union-find. With materialize set it
// instead drains the store into a full graph.Graph and loads via
// NewCluster (the legacy path), which is the E15 memory baseline; the
// two paths produce bit-identical residencies and Metrics.
func runStore(path string, k int, clOpts []kmgraph.ClusterOption, timeout time.Duration, materialize, skipOracle bool) {
	oracleCount := -1
	if !skipOracle {
		src, closer, err := kmgraph.OpenSource(path)
		if err != nil {
			cli.Fatal(err)
		}
		oracleCount, err = kmgraph.ComponentsFromSourceOracle(src)
		closer.Close()
		if err != nil {
			cli.Fatal(err)
		}
	}

	loadStart := time.Now()
	var cl *kmgraph.Cluster
	var err error
	mode := "shard-direct"
	if materialize {
		mode = "materialize-then-load"
		var src kmgraph.EdgeSource
		var closer interface{ Close() error }
		src, closer, err = kmgraph.OpenSource(path)
		if err != nil {
			cli.Fatal(err)
		}
		var edges []kmgraph.Edge
		edges, err = kmgraph.DrainEdgeSource(src)
		n := src.N()
		closer.Close()
		if err != nil {
			cli.Fatal(err)
		}
		g := kmgraph.FromEdges(n, edges)
		edges = nil
		cl, err = kmgraph.NewCluster(g, clOpts...)
	} else {
		cl, err = kmgraph.OpenCluster(path, clOpts...)
	}
	if err != nil {
		cli.Fatal(err)
	}
	defer cl.Close()
	loadWall := time.Since(loadStart)
	met := cl.Metrics()
	fmt.Printf("store: %s n=%d m=%d; cluster: k=%d B=%d bits/link/round (%s load %v)\n",
		path, cl.N(), met.Edges, k, kmgraph.DefaultBandwidth(cl.N()), mode, loadWall.Round(time.Millisecond))
	fmt.Printf("after-load peak RSS: %d MB\n", procstat.MaxRSSBytes()>>20)

	runQuery(cl, oracleCount, timeout, cli.Fatal)
	fmt.Printf("peak RSS: %d MB\n", procstat.MaxRSSBytes()>>20)
}

// runQuery asks cl — resident or fleet-backed — for connectivity and
// reports the answer and its cost. oracleCount < 0 means no oracle ran.
func runQuery(cl *kmgraph.Cluster, oracleCount int, timeout time.Duration, fail func(error)) {
	ctx, cancel := cli.JobCtx(timeout)
	defer cancel()
	start := time.Now()
	res, err := cl.Connectivity(ctx)
	if err != nil {
		fail(err)
	}
	if oracleCount >= 0 {
		fmt.Printf("components: %d (oracle: %d)\n", res.Components, oracleCount)
	} else {
		fmt.Printf("components: %d\n", res.Components)
	}
	fmt.Printf("phases: %d  sketch failures: %d\n", res.Phases, res.SketchFailures)
	fmt.Printf("cost: load %d rounds (paid once) + query %d rounds (query wall %v)\n",
		cl.Metrics().LoadRounds, res.Rounds, time.Since(start).Round(time.Millisecond))
}

// distSource maps the graph flags to a dist source spec that every
// worker can open independently.
func distSource(storePath, gen string, n, m int, seed int64) (string, error) {
	switch {
	case storePath != "":
		return "store:" + storePath, nil
	case gen == "gnm":
		return fmt.Sprintf("gnm:%d:%d:%d", n, m, seed), nil
	default:
		return "", fmt.Errorf("-transport tcp supports -store or -gen gnm (got -gen %s)", gen)
	}
}

func main() {
	gen := flag.String("gen", "gnm", "graph generator")
	input := flag.String("input", "", "read an edge-list file instead of generating")
	storePath := flag.String("store", "", "serve a kmgs store shard-direct (never materializes the graph)")
	materialize := flag.Bool("materialize", false, "with -store: drain the store into a full in-memory graph and load via NewCluster (E15 memory baseline)")
	skipOracle := flag.Bool("no-oracle", false, "with -store: skip the streaming union-find oracle pass")
	n := flag.Int("n", 4096, "vertices")
	m := flag.Int("m", 0, "edges (gnm; default 3n)")
	p := flag.Float64("p", 0.01, "edge probability (gnp)")
	c := flag.Int("c", 5, "components/communities")
	k := flag.Int("k", 8, "machines")
	seed := flag.Int64("seed", 1, "seed")
	timeout := flag.Duration("timeout", 0, "job deadline (0 = none), e.g. 30s")
	algo := flag.String("algo", "sketch", "sketch|edgecheck|flooding|referee")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the job's phases to this file")
	distFlags := cli.RegisterDistFlags()
	flag.Parse()

	if *tracePath != "" && *distFlags.Transport == "local" && *storePath == "" && *algo != "sketch" {
		fmt.Fprintln(os.Stderr, "kmconnect: -trace requires the resident engine (-algo sketch or -store) or -transport tcp")
		os.Exit(2)
	}
	// One tracer and one option set, whichever constructor the flags pick.
	tracer, clOpts := cli.TraceOpts(*tracePath)
	clOpts = append(clOpts, kmgraph.WithK(*k), kmgraph.WithSeed(*seed))
	switch *distFlags.Transport {
	case "local":
	case "tcp":
		if *distFlags.Workers == "" {
			fmt.Fprintln(os.Stderr, "kmconnect: -transport tcp requires -workers")
			os.Exit(2)
		}
		if *m == 0 {
			*m = 3 * *n
		}
		source, err := distSource(*storePath, *gen, *n, *m, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kmconnect: %v\n", err)
			os.Exit(2)
		}
		spec := distFlags.Fleet(source)
		cl, err := kmgraph.OpenFleet(spec, clOpts...)
		if err != nil {
			cli.Fatal(err)
		}
		defer cl.Close()
		fmt.Printf("distributed: %s over %d workers, k=%d\n", source, len(spec.Addrs), *k)
		runQuery(cl, -1, *timeout, func(err error) { distFlags.Fail(spec, err) })
		cli.WriteTrace(tracer, *tracePath)
		return
	default:
		fmt.Fprintf(os.Stderr, "kmconnect: unknown transport %q\n", *distFlags.Transport)
		os.Exit(2)
	}
	if *storePath != "" {
		runStore(*storePath, *k, clOpts, *timeout, *materialize, *skipOracle)
		cli.WriteTrace(tracer, *tracePath)
		return
	}
	if *m == 0 {
		*m = 3 * *n
	}
	var g *kmgraph.Graph
	var err error
	if *input != "" {
		*gen = *input
		g, err = loadGraph(*input)
	} else {
		g, err = buildGraph(*gen, *n, *m, *c, *p, *seed)
	}
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("graph: %s n=%d m=%d; cluster: k=%d B=%d bits/link/round\n",
		*gen, g.N(), g.M(), *k, kmgraph.DefaultBandwidth(g.N()))

	_, oracleCount := kmgraph.ComponentsOracle(g)
	switch *algo {
	case "sketch":
		cl, err := kmgraph.NewCluster(g, clOpts...)
		if err != nil {
			cli.Fatal(err)
		}
		defer cl.Close()
		runQuery(cl, oracleCount, *timeout, cli.Fatal)
		cli.WriteTrace(tracer, *tracePath)
	case "edgecheck":
		cfg := kmgraph.Config{K: *k, Seed: *seed, EdgeCheckSelection: true}
		res, err := kmgraph.Connectivity(g, cfg)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("components: %d (oracle: %d)\n", res.Components, oracleCount)
		fmt.Printf("phases: %d  sketch failures: %d\n", res.Phases, res.SketchFailures)
		fmt.Printf("cost: %s\n", res.Metrics.String())
	case "flooding", "referee":
		cfg := kmgraph.BaselineConfig{K: *k, Seed: *seed}
		var res *kmgraph.BaselineResult
		if *algo == "flooding" {
			res, err = kmgraph.FloodingConnectivity(g, cfg)
		} else {
			res, err = kmgraph.RefereeConnectivity(g, cfg)
		}
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("components: %d (oracle: %d)\n", res.Components, oracleCount)
		fmt.Printf("cost: %s\n", res.Metrics.String())
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algo)
		os.Exit(1)
	}
}
