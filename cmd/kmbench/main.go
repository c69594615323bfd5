// Command kmbench runs the paper-reproduction experiment harness
// (E1..E12) and prints the result tables, optionally writing CSVs.
//
// With -json it instead runs the engine-throughput microbenchmarks
// (wall-clock, allocations, and model rounds for the simulator hot paths)
// and writes machine-readable results, so the simulator's performance
// trajectory is tracked across PRs.
//
// Usage:
//
//	kmbench [-quick] [-exp E1,E6] [-seed 42] [-trials 3] [-csv dir]
//	kmbench -json BENCH_kmachine.json [-store graph.kmgs]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kmgraph"
	"kmgraph/internal/benchfmt"
	"kmgraph/internal/experiments"
	"kmgraph/internal/procstat"
)

// benchResult is one engine-throughput measurement in the shared
// kmachine-bench/v2 schema (internal/benchfmt, also written by
// cmd/kmload for serving benchmarks). Rounds is the model cost of a
// single operation (independent of wall-clock), so regressions in
// either dimension are visible separately. GraphLoadMs is the wall time
// spent building or loading this benchmark's input graph (one-time,
// outside the op loop); MaxRSSBytes is the process's peak resident set
// as of the end of this benchmark — cumulative and monotone across the
// run, so the interesting signal is the *increase* over the preceding
// entry and the input-loading benchmarks are ordered smallest-first.
type benchResult = benchfmt.Result

func measure(name string, rounds int, loadMs float64, fn func(b *testing.B)) benchResult {
	r := testing.Benchmark(fn)
	if r.N == 0 {
		fmt.Fprintf(os.Stderr, "benchmark %s failed (b.Fatal inside the loop)\n", name)
		os.Exit(1)
	}
	return benchResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		Rounds:      rounds,
		GraphLoadMs: loadMs,
		MaxRSSBytes: procstat.MaxRSSBytes(),
	}
}

// timed runs fn and returns its wall time in milliseconds.
func timed(fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// engineBenchmarks mirrors the repo's hot-path Go benchmarks: one-shot
// connectivity at three scales, one-shot MST, a resident dynamic churn
// batch, and the resident-Cluster reuse loop.
func engineBenchmarks() ([]benchResult, error) {
	var results []benchResult

	for _, size := range []struct{ n, k int }{{512, 4}, {1024, 8}, {2048, 16}} {
		var g *kmgraph.Graph
		loadMs := timed(func() { g = kmgraph.GNM(size.n, 3*size.n, 1) })
		probe, err := kmgraph.Connectivity(g, kmgraph.Config{K: size.k, Seed: 0})
		if err != nil {
			return nil, err
		}
		results = append(results, measure(
			fmt.Sprintf("ConnectivitySketch/n%d_k%d", size.n, size.k), probe.Metrics.Rounds, loadMs,
			func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := kmgraph.Connectivity(g, kmgraph.Config{K: size.k, Seed: int64(i)}); err != nil {
						b.Fatal(err)
					}
				}
			}))
	}

	{
		var g *kmgraph.Graph
		loadMs := timed(func() { g = kmgraph.WithDistinctWeights(kmgraph.GNM(512, 1536, 1), 2) })
		probe, err := kmgraph.MST(g, kmgraph.MSTConfig{Config: kmgraph.Config{K: 8, Seed: 0}})
		if err != nil {
			return nil, err
		}
		results = append(results, measure("MSTSketch/n512_k8", probe.Metrics.Rounds, loadMs,
			func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := kmgraph.MST(g, kmgraph.MSTConfig{Config: kmgraph.Config{K: 8, Seed: int64(i)}}); err != nil {
						b.Fatal(err)
					}
				}
			}))
	}

	{
		n, m, k := 1024, 3072, 8
		var meanRounds int
		results = append(results, measure("DynamicBatchMixedChurn/n1024_k8", 0, 0,
			func(b *testing.B) {
				stream := kmgraph.RandomChurnStream(n, m, b.N, 30, 0.5, 7)
				sess, err := kmgraph.NewCluster(stream.Initial, kmgraph.WithK(k), kmgraph.WithSeed(7), kmgraph.WithMaxRounds(1<<30))
				if err != nil {
					b.Fatal(err)
				}
				defer sess.Close()
				ctx := context.Background()
				if _, err := sess.Connectivity(ctx); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				rounds := 0
				for i := 0; i < b.N; i++ {
					br, err := sess.ApplyBatch(ctx, stream.Batches[i])
					if err != nil {
						b.Fatal(err)
					}
					q, err := sess.Connectivity(ctx)
					if err != nil {
						b.Fatal(err)
					}
					rounds += br.Rounds + q.Rounds
				}
				b.StopTimer()
				meanRounds = rounds / b.N
			}))
		results[len(results)-1].Rounds = meanRounds
	}

	{
		var g *kmgraph.Graph
		loadMs := timed(func() { g = kmgraph.GNM(1024, 3072, 7) })
		ctx := context.Background()
		const jobs = 8
		var meanRounds int
		results = append(results, measure("ClusterReuseResident/n1024_k8", 0, loadMs,
			func(b *testing.B) {
				b.ReportAllocs()
				rounds := 0
				for i := 0; i < b.N; i++ {
					c, err := kmgraph.NewCluster(g, kmgraph.WithK(8), kmgraph.WithSeed(7), kmgraph.WithMaxRounds(1<<30))
					if err != nil {
						b.Fatal(err)
					}
					for j := 0; j < jobs; j++ {
						q, err := c.Connectivity(ctx)
						if err != nil {
							b.Fatal(err)
						}
						rounds += q.Rounds
					}
					rounds += c.Metrics().LoadRounds
					c.Close()
				}
				meanRounds = rounds / (b.N * jobs)
			}))
		results[len(results)-1].Rounds = meanRounds
	}

	return results, nil
}

// storeBenchmark measures the shard-direct serving path against a kmgs
// store: wall time and engine rounds of OpenCluster + one Connectivity
// query, with the load wall time recorded in graph_load_ms.
func storeBenchmark(storePath string, k int, seed int64) (benchResult, error) {
	ctx := context.Background()
	var loadMs float64
	var rounds int
	name := fmt.Sprintf("StoreShardDirect/%s_k%d_seed%d", filepath.Base(storePath), k, seed)
	res := measure(name, 0, 0,
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var c *kmgraph.Cluster
				var err error
				loadMs = timed(func() {
					c, err = kmgraph.OpenCluster(storePath,
						kmgraph.WithK(k), kmgraph.WithSeed(seed), kmgraph.WithMaxRounds(1<<30))
				})
				if err != nil {
					b.Fatal(err)
				}
				q, err := c.Connectivity(ctx)
				if err != nil {
					c.Close()
					b.Fatal(err)
				}
				rounds = c.Metrics().LoadRounds + q.Rounds
				c.Close()
			}
		})
	res.Rounds = rounds
	res.GraphLoadMs = loadMs
	res.MaxRSSBytes = procstat.MaxRSSBytes()
	return res, nil
}

func runJSON(path, storePath string, storeK int, storeSeed int64) {
	results, err := engineBenchmarks()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if storePath != "" {
		sb, err := storeBenchmark(storePath, storeK, storeSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		results = append(results, sb)
	}
	if err := benchfmt.WriteFile(path, results); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, r := range results {
		fmt.Printf("%-34s %14.0f ns/op %10d B/op %8d allocs/op %6d rounds %8.1f load-ms %6d rss-MB\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.Rounds,
			r.GraphLoadMs, r.MaxRSSBytes>>20)
	}
	fmt.Printf("wrote %s\n", path)
}

func main() {
	quick := flag.Bool("quick", false, "run reduced sweeps")
	expList := flag.String("exp", "", "comma-separated experiment IDs (default: all)")
	seed := flag.Int64("seed", 42, "base seed")
	trials := flag.Int("trials", 0, "seeds per configuration (0 = default)")
	csvDir := flag.String("csv", "", "also write tables as CSV files to this directory")
	jsonPath := flag.String("json", "", "run engine-throughput benchmarks and write machine-readable results to this file")
	storePath := flag.String("store", "", "with -json: also benchmark the shard-direct load path against this kmgs store")
	storeK := flag.Int("store-k", 16, "machine count for the -store benchmark")
	storeSeed := flag.Int64("store-seed", 1, "seed for the -store benchmark")
	flag.Parse()

	if *jsonPath != "" {
		runJSON(*jsonPath, *storePath, *storeK, *storeSeed)
		return
	}

	var exps []experiments.Experiment
	if *expList == "" {
		exps = experiments.All()
	} else {
		for _, id := range strings.Split(*expList, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			exps = append(exps, e)
		}
	}

	params := experiments.Params{Quick: *quick, Seed: *seed, Trials: *trials}
	for _, e := range exps {
		fmt.Printf("=== %s: %s\n", e.ID, e.Title)
		fmt.Printf("    reproduces: %s\n\n", e.PaperRef)
		start := time.Now()
		tables, err := e.Run(params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		for i, tb := range tables {
			fmt.Println(tb.Render())
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				name := fmt.Sprintf("%s_%d.csv", e.ID, i)
				if err := os.WriteFile(filepath.Join(*csvDir, name), []byte(tb.CSV()), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
