// Package cli is the plumbing the algorithm binaries share: the -timeout
// job context, the -trace wiring of a resident Cluster, and the
// -transport tcp flag set with its trace and flight-dump handling.
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

// DistJob is one coordinator-side job's observability: the options to
// run it under and the collectors to flush afterwards.
type DistJob struct {
	Workers []string
	Opts    dist.CoordOptions

	tracePath, flightDir string
}

// Job resolves the flags into a job: the worker list, the heartbeat and
// retry policy, a cross-process trace when tracePath is set, and a flight
// log when -flight-dump is.
func (f *DistFlags) Job(tracePath string) *DistJob {
	j := &DistJob{
		Workers: strings.Split(*f.Workers, ","),
		Opts: dist.CoordOptions{
			HeartbeatTimeout: *f.HeartbeatTimeout,
			Retry:            dist.RetryPolicy{Attempts: *f.Retries},
		},
		tracePath: tracePath,
		flightDir: *f.FlightDir,
	}
	if tracePath != "" {
		j.Opts.Trace = &dist.JobTrace{}
	}
	if j.flightDir != "" {
		j.Opts.Flight = &dist.FlightLog{}
	}
	return j
}

// Fail dumps the flight log (when -flight-dump is set), then Fatal(err).
func (j *DistJob) Fail(err error) {
	if j.Opts.Flight != nil {
		if derr := j.Opts.Flight.Dump(j.flightDir); derr != nil {
			fmt.Fprintf(os.Stderr, "flight dump: %v\n", derr)
		} else {
			fmt.Fprintf(os.Stderr, "flight dump: wrote %s\n", j.flightDir)
		}
	}
	Fatal(err)
}

// WriteTrace writes the assembled cross-process trace (when -trace is
// set).
func (j *DistJob) WriteTrace() {
	if j.Opts.Trace == nil {
		return
	}
	if err := telemetry.WriteTrace(j.tracePath, j.Opts.Trace.Assemble()); err != nil {
		Fatal(fmt.Errorf("writing trace: %v", err))
	}
	fmt.Printf("trace: wrote %s (trace id %#x)\n", j.tracePath, j.Opts.Trace.TraceID())
}
