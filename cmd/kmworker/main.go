// Command kmworker hosts a contiguous range of a distributed k-machine
// cluster. A coordinator (kmrun with -transport tcp, kmserve -fleet) dials
// the worker and ships a job spec; the worker forms a TCP mesh with its
// peers, loads its slice of the graph shard-direct from the job's source
// spec, and keeps that residency for as long as the control connection is
// open, running each command the coordinator sends as one run of the round
// engine over its hosted machines and returning its partial result.
// Workers serve concurrent residencies from different coordinators.
//
// Usage:
//
//	kmworker -listen :9601 [-metrics-addr :9602] [-mesh-timeout 60s]
//	         [-heartbeat 2s] [-drain-timeout 30s]
//
// The worker beats on each job's control connection every -heartbeat so
// coordinators can tell a slow worker from a dead one. On SIGINT or
// SIGTERM it drains: it stops accepting jobs, reports the per-cluster
// state of everything still running, lets each run in flight finish
// within -drain-timeout (ending its residency), and exits 0. A second
// signal (or an expired drain) aborts the rest immediately; their
// coordinators see a classified link-down failure and can retry.
//
// With -metrics-addr, the worker serves its transport telemetry
// (per-link bytes/frames, reconnects, handshake failures, barrier-wait
// histogram) in Prometheus exposition format on GET /metrics, and a
// human-readable GET /statusz debug page listing the in-flight jobs
// (cluster and trace IDs, hosted machine range, live round count, run
// time). Link-down failures are logged as structured JSON (slog) on
// stderr with the failed link's flight-recorder snapshot attached.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kmgraph/internal/dist"
	"kmgraph/internal/telemetry"
	"kmgraph/internal/transport/tcp"
)

// statusz renders the worker's in-flight jobs as a plain-text debug
// page: one line per job plus an uptime header.
func statusz(w *dist.Worker, started time.Time) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		jobs := w.Jobs()
		fmt.Fprintf(rw, "kmworker %s up %v, %d active job(s)\n",
			w.Addr(), time.Since(started).Round(time.Second), len(jobs))
		for _, j := range jobs {
			fmt.Fprintf(rw, "cluster %016x trace %016x machines [%d,%d) round %d (running %v)\n",
				j.ClusterID, j.TraceID, j.Lo, j.Hi, j.Rounds,
				time.Since(j.Started).Round(time.Millisecond))
		}
	}
}

func main() {
	listen := flag.String("listen", ":9601", "address to serve jobs and peer links on")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus transport telemetry on this address (empty = off)")
	meshTimeout := flag.Duration("mesh-timeout", 60*time.Second, "bound on forming the full peer mesh for one job")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "control-connection liveness beat interval (negative disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "on SIGTERM, how long to let active jobs finish before aborting them")
	flag.Parse()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kmworker: %v\n", err)
		os.Exit(1)
	}
	w := dist.NewWorker(ln, dist.WorkerOptions{
		MeshTimeout:       *meshTimeout,
		HeartbeatInterval: *heartbeat,
		Logger:            slog.New(slog.NewJSONHandler(os.Stderr, nil)),
	})
	fmt.Printf("kmworker: serving on %s\n", w.Addr())

	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		tcp.RegisterTelemetry(reg)
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w)
		})
		mux.HandleFunc("GET /statusz", statusz(w, time.Now()))
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kmworker: metrics listener: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("kmworker: metrics on http://%s/metrics (debug: /statusz)\n", mln.Addr())
		// As on kmserve's listeners: a client that never finishes its
		// request headers must not pin a connection forever.
		go (&http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}).Serve(mln)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	draining := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		s := <-sig
		close(draining)
		jobs := w.Jobs()
		fmt.Fprintf(os.Stderr, "kmworker: %v: draining (%d active jobs, up to %v)\n", s, len(jobs), *drainTimeout)
		for _, j := range jobs {
			fmt.Fprintf(os.Stderr, "kmworker:   cluster %016x machines [%d,%d) round %d (running %v)\n",
				j.ClusterID, j.Lo, j.Hi, j.Rounds, time.Since(j.Started).Round(time.Millisecond))
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		go func() {
			// A second signal cuts the drain short: abort what's left.
			<-sig
			fmt.Fprintln(os.Stderr, "kmworker: second signal: aborting active jobs")
			cancel()
		}()
		if err := w.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "kmworker: drain expired, aborted %d jobs: %v\n", len(w.Jobs()), err)
		} else {
			fmt.Fprintln(os.Stderr, "kmworker: drained clean")
		}
		cancel()
		close(drained)
	}()

	err = w.Serve()
	select {
	case <-draining:
		// Deliberate shutdown: Serve returned because the drain closed
		// the listener. Wait for the active jobs to finish, then exit 0.
		<-drained
		return
	default:
	}
	if err != nil && !errors.Is(err, net.ErrClosed) {
		fmt.Fprintf(os.Stderr, "kmworker: %v\n", err)
		os.Exit(1)
	}
}
