// Command kmconvert produces kmgs binary graph stores — the container
// kmrun serves shard-direct via -store and the library
// serves via kmgraph.OpenCluster. Input is either a text edge list or a
// streaming generator; in both cases the graph is written straight to
// disk without ever being resident in memory (the generators' dedup set
// and the writer's compact CSR pass are the only working state).
//
// Usage:
//
//	kmconvert -gen gnm      -n 1000000 -m 3000000 -seed 1 -o g.kmgs
//	kmconvert -gen rmat     -n 1000000 -m 8000000 -o rmat.kmgs
//	kmconvert -gen powerlaw -n 1000000 -m 4000000 -gamma 2.5 -o pl.kmgs
//	kmconvert -input edges.txt -o g.kmgs
//	kmconvert -info g.kmgs
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"kmgraph"
	"kmgraph/internal/graph"
	"kmgraph/internal/store"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func info(path string) {
	r, err := store.Open(path)
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	st, _ := os.Stat(path)
	fmt.Printf("%s: kmgs/v%d\n", path, store.Version)
	fmt.Printf("  n=%d m=%d weighted=%v\n", r.N(), r.M(), r.Weighted())
	if st != nil && r.M() > 0 {
		fmt.Printf("  %d bytes on disk (%.2f bytes/edge)\n",
			st.Size(), float64(st.Size())/float64(r.M()))
	}
	// Decode everything so corruption is reported here, not at load time.
	comps, err := graph.ComponentsFromSource(r.Source())
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	fmt.Printf("  components=%d (streaming union-find)\n", comps)
}

func main() {
	gen := flag.String("gen", "", "streaming generator: gnm|rmat|powerlaw")
	input := flag.String("input", "", "text edge-list file to convert")
	infoPath := flag.String("info", "", "print a store's header and stats, then exit")
	out := flag.String("o", "", "output .kmgs path")
	n := flag.Int("n", 100000, "vertices (generators)")
	m := flag.Int("m", 0, "edges (generators; default 3n)")
	gamma := flag.Float64("gamma", 2.5, "degree exponent (powerlaw)")
	seed := flag.Int64("seed", 1, "generator seed")
	flag.Parse()

	if *infoPath != "" {
		info(*infoPath)
		return
	}
	if *out == "" {
		fatal(fmt.Errorf("kmconvert: -o output path required"))
	}
	if *m == 0 {
		*m = 3 * *n
	}

	var src kmgraph.EdgeSource
	switch {
	case *input != "":
		s, err := graph.OpenEdgeList(*input)
		if err != nil {
			fatal(err)
		}
		defer s.Close()
		src = s
	case *gen == "gnm":
		src = kmgraph.StreamGNM(*n, *m, *seed)
	case *gen == "rmat":
		src = kmgraph.StreamRMAT(*n, *m, *seed)
	case *gen == "powerlaw":
		src = kmgraph.StreamPowerLaw(*n, *m, *gamma, *seed)
	case *gen == "":
		fatal(fmt.Errorf("kmconvert: need -gen or -input"))
	default:
		fatal(fmt.Errorf("kmconvert: unknown generator %q", *gen))
	}

	start := time.Now()
	if err := kmgraph.WriteStore(*out, src); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	st, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	r, err := store.Open(*out)
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	fmt.Printf("wrote %s: n=%d m=%d weighted=%v, %d bytes (%.2f bytes/edge) in %v\n",
		*out, r.N(), r.M(), r.Weighted(), st.Size(),
		float64(st.Size())/float64(max(r.M(), 1)), elapsed.Round(time.Millisecond))
}
