// Command kmserve serves a registry of k-machine Clusters — resident in
// this process, or hosted by a kmworker fleet — over HTTP/JSON: every job
// family of the Cluster API — connectivity,
// spanning-tree, MST, approximate min-cut, verification, dynamic edge
// batches, metrics — becomes an endpoint, with per-request deadlines,
// bounded admission queues with 429 backpressure, and an epoch-keyed
// result cache so repeated queries on an unchanged graph cost zero
// simulation rounds.
//
// Usage:
//
//	kmserve -graph web=web.kmgs -graph social=edges.txt [-addr :8471]
//	        [-k 16] [-seed 1] [-max-queue 16] [-timeout 60s] [-cache 128]
//	        [-allow-load] [-debug-addr :8472] [-log-requests]
//
// Each -graph name=path loads a kmgs store (shard-direct, never
// materialized) or a text edge list at startup. With -allow-load,
// clients may also POST /graphs {"name":..., "path":...} to load more
// at runtime and DELETE /graphs/{name} to drop them.
//
// Each -fleet name=source@addr1,addr2,... registers a fleet-backed graph
// (kmgraph.OpenFleet) in the same registry, under the same
// /graphs/{name}/… endpoints, cache, miss coalescing, admission queue,
// /jobs and /trace, serving every family: only its k machines run
// elsewhere, kept resident by the listed kmworker processes, with
// heartbeat supervision and retry recovery (-fleet-retries,
// -fleet-heartbeat-timeout). It degrades gracefully — an unhealthy fleet
// answers 503 with Retry-After instead of hanging, and the
// kmserve_graph_state gauge tracks fleet health on /metrics.
//
// Endpoints (all JSON):
//
//	GET    /healthz
//	GET    /metrics                             (Prometheus text exposition)
//	GET    /version
//	GET    /graphs
//	POST   /graphs                              (with -allow-load)
//	DELETE /graphs/{name}                       (with -allow-load)
//	GET    /graphs/{name}
//	GET    /graphs/{name}/connectivity          ?labels=true&forest=true&timeout=30s
//	GET    /graphs/{name}/spanning-tree
//	GET    /graphs/{name}/mst                   ?strong=true&edges=true
//	GET    /graphs/{name}/mincut                ?trials=3&maxlevel=40
//	POST   /graphs/{name}/verify                {"problem":"bipartite", ...}
//	POST   /graphs/{name}/batch                 {"ops":[{"u":0,"v":1}, ...]}
//	GET    /graphs/{name}/metrics
//	GET    /graphs/{name}/trace                 (Chrome trace-event JSON; one pid per worker on a fleet)
//	GET    /graphs/{name}/jobs                  (recent engine jobs, newest first)
//	GET    /graphs/{name}/jobs/{id}/events      (Server-Sent Events: one job's progress)
//	GET    /fleet                               (health of every fleet-backed graph)
//	GET    /fleet/{name}                        (503 body when the fleet is down)
//
// With -debug-addr, a second private listener serves net/http/pprof
// under /debug/pprof/. With -log-requests, every request emits one
// structured JSON log record (request ID, endpoint, status, duration)
// to stderr; the request ID is echoed as X-Request-Id and threaded
// through job execution.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // mounted on the -debug-addr listener only
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"kmgraph"
	"kmgraph/internal/cli"
	"kmgraph/internal/dist"
	"kmgraph/internal/server"
)

func main() {
	addr := flag.String("addr", ":8471", "listen address")
	k := flag.Int("k", 16, "machines per cluster for -graph loads")
	seed := flag.Int64("seed", 1, "seed for -graph loads")
	maxQueue := flag.Int("max-queue", 16, "per-graph admission queue bound (running job included)")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-request job deadline")
	cache := flag.Int("cache", 128, "per-graph result cache entries (0 disables)")
	allowLoad := flag.Bool("allow-load", false, "allow POST /graphs and DELETE /graphs/{name}")
	debugAddr := flag.String("debug-addr", "", "if set, serve net/http/pprof on this address (keep it private)")
	logRequests := flag.Bool("log-requests", false, "emit one structured (JSON, stderr) log record per request")
	retries := flag.Int("fleet-retries", 3, "job attempts per fleet request (1 disables retry)")
	hbTimeout := flag.Duration("fleet-heartbeat-timeout", 30*time.Second, "silence tolerated on a fleet worker before declaring it stalled")
	var loads []string
	flag.Func("graph", "name=path of a kmgs store or text edge list to serve (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want name=path, got %q", v)
		}
		loads = append(loads, v)
		return nil
	})
	type fleetFlag struct {
		name, source string
		addrs        []string
	}
	var fleets []fleetFlag
	flag.Func("fleet", "name=source@addr1,addr2,... distributed-backed graph over a kmworker fleet (repeatable)", func(v string) error {
		name, rest, named := strings.Cut(v, "=")
		source, addrList, placed := strings.Cut(rest, "@")
		if !named || !placed {
			return fmt.Errorf("want name=source@addr1,addr2,..., got %q", v)
		}
		addrs, err := cli.SplitAddrs(addrList)
		fleets = append(fleets, fleetFlag{name, source, addrs})
		return err
	})
	flag.Parse()

	if len(loads) == 0 && len(fleets) == 0 && !*allowLoad {
		fmt.Fprintln(os.Stderr, "kmserve: nothing to serve: pass at least one -graph name=path, -fleet name=source@addrs, or -allow-load")
		os.Exit(2)
	}

	cacheEntries := *cache
	if cacheEntries == 0 {
		cacheEntries = -1 // flag semantics: 0 disables (server: negative disables)
	}
	var logger *slog.Logger
	if *logRequests {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	srv := server.New(server.Config{
		MaxQueue:       *maxQueue,
		DefaultTimeout: *timeout,
		CacheEntries:   cacheEntries,
		AllowLoad:      *allowLoad,
		DefaultK:       *k,
		DefaultSeed:    *seed,
		Logger:         logger,
	})
	for _, spec := range loads {
		name, path, _ := strings.Cut(spec, "=")
		start := time.Now()
		// The observer is wired before the cluster exists so even the
		// load phase lands in the graph's metrics and trace buffer.
		c, err := kmgraph.OpenCluster(path,
			kmgraph.WithK(*k), kmgraph.WithSeed(*seed),
			kmgraph.WithObserver(srv.JobObserver(name)),
			kmgraph.WithPhaseMetrics())
		if err != nil {
			fmt.Fprintf(os.Stderr, "kmserve: loading %q from %s: %v\n", name, path, err)
			os.Exit(1)
		}
		if err := srv.Register(name, c); err != nil {
			fmt.Fprintf(os.Stderr, "kmserve: %v\n", err)
			os.Exit(1)
		}
		met := c.Metrics()
		fmt.Printf("kmserve: loaded %q from %s: n=%d m=%d k=%d (%d load rounds, %v)\n",
			name, path, c.N(), met.Edges, c.K(), met.LoadRounds, time.Since(start).Round(time.Millisecond))
	}
	for _, fl := range fleets {
		err := srv.RegisterFleet(fl.name, kmgraph.FleetSpec{
			Source: fl.source,
			Addrs:  fl.addrs,
			Coord: dist.CoordOptions{
				HeartbeatTimeout: *hbTimeout,
				Retry:            dist.RetryPolicy{Attempts: *retries},
			},
		}, kmgraph.WithK(*k), kmgraph.WithSeed(*seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "kmserve: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("kmserve: fleet %q: source %s over %d workers (k=%d, %d attempts)\n",
			fl.name, fl.source, len(fl.addrs), *k, *retries)
	}

	// A client that never finishes its request headers must not pin a
	// connection (and its goroutine) forever.
	hs := &http.Server{Addr: *addr, Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Printf("kmserve: listening on %s\n", *addr)

	if *debugAddr != "" {
		// The pprof mux lives on its own listener so profiling endpoints
		// are never exposed on the serving address.
		go func() {
			// The nil Handler is the default mux, where pprof registers.
			ds := &http.Server{Addr: *debugAddr, ReadHeaderTimeout: 10 * time.Second}
			if err := ds.ListenAndServe(); err != nil {
				fmt.Fprintf(os.Stderr, "kmserve: debug listener: %v\n", err)
			}
		}()
		fmt.Printf("kmserve: pprof on %s/debug/pprof/\n", *debugAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "kmserve: %v\n", err)
		srv.Close()
		os.Exit(1)
	case s := <-sig:
		fmt.Printf("kmserve: %v: draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			// Grace period expired with jobs still running: close the
			// connections so request contexts cancel and in-flight jobs
			// abort at their next phase boundary, instead of blocking
			// srv.Close() for the rest of a long computation.
			hs.Close()
		}
		srv.Close()
	}
}
