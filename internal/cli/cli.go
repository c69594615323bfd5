// Package cli is the plumbing the algorithm binaries share: the -timeout
// job context, the -trace wiring of a Cluster, and the -transport tcp
// flag set that turns into a fleet-backed one, with its flight-dump
// handling.
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
	"kmgraph/internal/telemetry"
)

// JobCtx maps the -timeout flag to a job context (0 = no deadline).
func JobCtx(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.WithCancel(context.Background())
}

// Fatal prints err on standard error and exits 1.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// TraceOpts returns a tracer plus the cluster options that wire it in,
// or nil options when tracing is off.
func TraceOpts(path string) (*telemetry.JobTracer, []kmgraph.ClusterOption) {
	if path == "" {
		return nil, nil
	}
	tr := telemetry.NewJobTracer()
	return tr, []kmgraph.ClusterOption{
		kmgraph.WithObserver(tr.Observer()),
		kmgraph.WithPhaseMetrics(),
	}
}

// WriteTrace flushes the tracer (when tracing is on) and reports the
// output path.
func WriteTrace(tr *telemetry.JobTracer, path string) {
	if tr == nil {
		return
	}
	if err := tr.WriteFile(path); err != nil {
		Fatal(fmt.Errorf("writing trace: %v", err))
	}
	fmt.Printf("trace: wrote %s\n", path)
}

// DistFlags are the flags of a binary that can run its job over a
// kmworker fleet.
type DistFlags struct {
	Transport, Workers, FlightDir *string
	Retries                       *int
	HeartbeatTimeout              *time.Duration
}

// RegisterDistFlags registers -transport, -workers, -retries,
// -heartbeat-timeout and -flight-dump on the default flag set.
func RegisterDistFlags() *DistFlags {
	return &DistFlags{
		Transport:        flag.String("transport", "local", "local|tcp: where the k machines run"),
		Workers:          flag.String("workers", "", "with -transport tcp: comma-separated kmworker addresses"),
		Retries:          flag.Int("retries", 1, "with -transport tcp: total job attempts; lost workers are re-dialed between attempts"),
		HeartbeatTimeout: flag.Duration("heartbeat-timeout", 30*time.Second, "with -transport tcp: silence tolerated on a worker before declaring it stalled"),
		FlightDir:        flag.String("flight-dump", "", "with -transport tcp: on failure, dump flight-recorder snapshots as JSON under this directory"),
	}
}

// Fleet resolves the flags into the spec of a fleet-backed Cluster over
// source: the worker list, the heartbeat and retry policy, and a flight
// log when -flight-dump is set.
func (f *DistFlags) Fleet(source string) kmgraph.FleetSpec {
	spec := kmgraph.FleetSpec{
		Source: source,
		Addrs:  strings.Split(*f.Workers, ","),
		Coord: dist.CoordOptions{
			HeartbeatTimeout: *f.HeartbeatTimeout,
			Retry:            dist.RetryPolicy{Attempts: *f.Retries},
		},
	}
	if *f.FlightDir != "" {
		spec.Coord.Flight = &dist.FlightLog{}
	}
	return spec
}

// Fail dumps the fleet's flight log (when -flight-dump is set), then
// Fatal(err). A spec without one (a local run) just fails.
func (f *DistFlags) Fail(spec kmgraph.FleetSpec, err error) {
	if fl := spec.Coord.Flight; fl != nil {
		if derr := fl.Dump(*f.FlightDir); derr != nil {
			fmt.Fprintf(os.Stderr, "flight dump: %v\n", derr)
		} else {
			fmt.Fprintf(os.Stderr, "flight dump: wrote %s\n", *f.FlightDir)
		}
	}
	Fatal(err)
}
