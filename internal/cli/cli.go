// Package cli is the one plumbing layer under cmd/kmrun's job families:
// the shared flag set (where the graph comes from, the cluster it is put
// on, -timeout, -trace), the open step that turns it into a Cluster —
// resident over an in-memory graph or a store, or fleet-backed with
// -transport tcp — and the job context, failure and trace handling every
// family ends with.
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kmgraph"
	"kmgraph/internal/dist"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/procstat"
	"kmgraph/internal/telemetry"
)

// Fatal prints err on standard error and exits 1.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// SplitAddrs splits a comma-separated worker list. An empty address is
// refused: "a,b," would otherwise name a worker "" that is dialed and
// retried.
func SplitAddrs(list string) ([]string, error) {
	addrs := strings.Split(list, ",")
	for _, a := range addrs {
		if strings.TrimSpace(a) == "" {
			return nil, fmt.Errorf("empty worker address in %q", list)
		}
	}
	return addrs, nil
}

// Flags are the flags every job family shares.
type Flags struct {
	fs *flag.FlagSet

	// The graph: a generator, an edge-list file, or a kmgs store.
	Gen, Input, Store *string
	N, M, C, Bridges  *int
	P                 *float64
	Seed              *int64

	// The cluster and the job.
	K       *int
	Timeout *time.Duration
	Trace   *string

	// -transport tcp: the k machines on a kmworker fleet.
	Transport, FlightDir *string
	Workers              []string
	Retries              *int
	HeartbeatTimeout     *time.Duration
}

// Register registers the shared flags on fs with a family's default
// generator, size and bridge count.
func Register(fs *flag.FlagSet, gen string, n, bridges int) *Flags {
	f := &Flags{
		fs:      fs,
		Gen:     fs.String("gen", gen, "graph generator: gnm|gnp|path|cycle|star|complete|components|planted|powerlaw|bridged (stream: churn|window|splitmerge)"),
		Input:   fs.String("input", "", "read an edge-list file instead of generating"),
		Store:   fs.String("store", "", "serve a kmgs store shard-direct (the graph never enters this process)"),
		N:       fs.Int("n", n, "vertices"),
		M:       fs.Int("m", 0, "edges (gnm, powerlaw, churn; default 3n)"),
		P:       fs.Float64("p", 0.01, "edge probability (gnp)"),
		C:       fs.Int("c", 5, "components/communities (components, planted)"),
		Bridges: fs.Int("bridges", bridges, "bridge edges (bridged)"),
		Seed:    fs.Int64("seed", 1, "seed"),
		K:       fs.Int("k", 8, "machines"),
		Timeout: fs.Duration("timeout", 0, "per-job deadline (0 = none), e.g. 30s"),
		Trace:   fs.String("trace", "", "write a Chrome trace-event JSON of the jobs' phases to this file"),

		Transport:        fs.String("transport", "local", "local|tcp: where the k machines run"),
		Retries:          fs.Int("retries", 1, "with -transport tcp: total job attempts; lost workers are re-dialed between attempts"),
		HeartbeatTimeout: fs.Duration("heartbeat-timeout", 30*time.Second, "with -transport tcp: silence tolerated on a worker before declaring it stalled"),
		FlightDir:        fs.String("flight-dump", "", "with -transport tcp: on failure, dump flight-recorder snapshots as JSON under this directory"),
	}
	fs.Func("workers", "with -transport tcp: comma-separated kmworker addresses", func(v string) (err error) {
		f.Workers, err = SplitAddrs(v)
		return err
	})
	return f
}

// Usage reports a flag combination that cannot run and exits 2.
func (f *Flags) Usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", f.fs.Name(), fmt.Sprintf(format, args...))
	os.Exit(2)
}

// Parse parses args and checks the placement flags.
func (f *Flags) Parse(args []string) {
	f.fs.Parse(args)
	if *f.M == 0 {
		*f.M = 3 * *f.N
	}
	switch *f.Transport {
	case "local":
	case "tcp":
		if len(f.Workers) == 0 {
			f.Usage("-transport tcp requires -workers")
		}
	default:
		f.Usage("unknown transport %q", *f.Transport)
	}
}

// Graph builds the in-memory graph the flags name (-input, else -gen). It
// returns nil when the graph never enters this process: a -store is loaded
// shard-direct, and a fleet's workers materialize their own shards.
func (f *Flags) Graph() *kmgraph.Graph {
	if *f.Store != "" || *f.Transport == "tcp" {
		return nil
	}
	if *f.Input != "" {
		file, err := os.Open(*f.Input)
		if err != nil {
			Fatal(err)
		}
		defer file.Close()
		g, err := kmgraph.ReadEdgeList(file)
		if err != nil {
			Fatal(err)
		}
		return g
	}
	n, m, c, seed := *f.N, *f.M, *f.C, *f.Seed
	switch *f.Gen {
	case "gnm":
		return kmgraph.GNM(n, m, seed)
	case "gnp":
		return kmgraph.GNP(n, *f.P, seed)
	case "path":
		return kmgraph.Path(n)
	case "cycle":
		return kmgraph.Cycle(n)
	case "star":
		return kmgraph.Star(n)
	case "complete":
		return kmgraph.Complete(n)
	case "components":
		return kmgraph.DisjointComponents(n, c, 0.5, seed)
	case "planted":
		return kmgraph.PlantedPartition(n, c, 0.1, 0.001, seed)
	case "powerlaw":
		return kmgraph.ChungLu(n, 2.5, float64(m)*2/float64(n), seed)
	case "bridged":
		return kmgraph.TwoCliquesBridged(n/2, *f.Bridges, seed)
	}
	Fatal(fmt.Errorf("unknown generator %q", *f.Gen))
	return nil
}

// PrintGraph reports an in-memory graph and the machines it is put on.
func (f *Flags) PrintGraph(g *kmgraph.Graph) {
	label := *f.Gen
	if *f.Input != "" {
		label = *f.Input
	}
	fmt.Printf("graph: %s n=%d m=%d; cluster: k=%d B=%d bits/link/round\n",
		label, g.N(), g.M(), *f.K, kmachine.Bandwidth(g.N()))
}

// Session is an open Cluster with the job plumbing of the flags that
// opened it.
type Session struct {
	Cluster *kmgraph.Cluster
	f       *Flags
	tracer  *telemetry.JobTracer
	spec    kmgraph.FleetSpec // zero (no flight log) unless fleet-backed
}

// Open puts the graph on a Cluster and says where it went: g (from Graph,
// or a family's own) on a resident one, else the -store on a resident one
// loaded shard-direct, or — with -transport tcp — the store or the gnm
// generator's spec on a fleet-backed one, whose workers must be able to
// reproduce the graph independently.
func (f *Flags) Open(g *kmgraph.Graph) *Session {
	s := &Session{f: f}
	opts := []kmgraph.ClusterOption{kmgraph.WithK(*f.K), kmgraph.WithSeed(*f.Seed)}
	if *f.Trace != "" {
		s.tracer = telemetry.NewJobTracer()
		opts = append(opts, kmgraph.WithObserver(s.tracer.Observer()), kmgraph.WithPhaseMetrics())
	}
	var err error
	switch {
	case g != nil:
		f.PrintGraph(g)
		s.Cluster, err = kmgraph.NewCluster(g, opts...)
	case *f.Transport == "tcp":
		switch {
		case *f.Store != "":
			s.spec.Source = "store:" + *f.Store
		case *f.Gen == "gnm" && *f.Input == "":
			s.spec.Source = fmt.Sprintf("gnm:%d:%d:%d", *f.N, *f.M, *f.Seed)
		default:
			f.Usage("-transport tcp supports -store or -gen gnm")
		}
		s.spec.Addrs = f.Workers
		s.spec.Coord = dist.CoordOptions{
			HeartbeatTimeout: *f.HeartbeatTimeout,
			Retry:            dist.RetryPolicy{Attempts: *f.Retries},
		}
		if *f.FlightDir != "" {
			s.spec.Coord.Flight = &dist.FlightLog{}
		}
		fmt.Printf("distributed: %s over %d workers, k=%d\n", s.spec.Source, len(f.Workers), *f.K)
		s.Cluster, err = kmgraph.OpenFleet(s.spec, opts...)
	default:
		start := time.Now()
		if s.Cluster, err = kmgraph.OpenCluster(*f.Store, opts...); err == nil {
			fmt.Printf("store: %s n=%d m=%d; cluster: k=%d B=%d bits/link/round (shard-direct load %v)\n",
				*f.Store, s.Cluster.N(), s.Cluster.Metrics().Edges, *f.K,
				kmachine.Bandwidth(s.Cluster.N()), time.Since(start).Round(time.Millisecond))
			fmt.Printf("after-load peak RSS: %d MB\n", procstat.MaxRSSBytes()>>20)
		}
	}
	if err != nil {
		Fatal(err)
	}
	return s
}

// Job runs one job of the session under -timeout (0 = no deadline) and
// returns its answer; a job that fails ends the run (Fail), named by what
// unless that is empty.
func Job[T any](s *Session, what string, run func(context.Context) (T, error)) T {
	ctx, cancel := context.WithCancel(context.Background())
	if d := *s.f.Timeout; d > 0 {
		ctx, cancel = context.WithTimeout(ctx, d)
	}
	defer cancel()
	res, err := run(ctx)
	if err != nil {
		if what != "" {
			err = fmt.Errorf("%s: %w", what, err)
		}
		s.Fail(err)
	}
	return res
}

// Fail ends a run whose job failed: on a fleet with -flight-dump it dumps
// the flight log first; then Fatal(err).
func (s *Session) Fail(err error) {
	if fl := s.spec.Coord.Flight; fl != nil {
		if derr := fl.Dump(*s.f.FlightDir); derr != nil {
			fmt.Fprintf(os.Stderr, "flight dump: %v\n", derr)
		} else {
			fmt.Fprintf(os.Stderr, "flight dump: wrote %s\n", *s.f.FlightDir)
		}
	}
	Fatal(err)
}

// Close ends a run whose jobs succeeded: it closes the Cluster, reports
// this process's peak RSS and writes the -trace file.
func (s *Session) Close() {
	s.Cluster.Close()
	fmt.Printf("peak RSS: %d MB\n", procstat.MaxRSSBytes()>>20)
	if s.tracer != nil {
		if err := s.tracer.WriteFile(*s.f.Trace); err != nil {
			Fatal(fmt.Errorf("writing trace: %v", err))
		}
		fmt.Printf("trace: wrote %s\n", *s.f.Trace)
	}
}
