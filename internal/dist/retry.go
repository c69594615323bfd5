package dist

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"kmgraph/internal/telemetry"
	"kmgraph/internal/transport"
	"kmgraph/internal/transport/tcp"
)

// RetryPolicy governs coordinator-side recovery of a fleet-backed engine
// while its epoch is 0: every attempt reopens the residency from the
// source under a new cluster ID — the workers rematerialize their shards
// from the source spec and replay the exact deterministic computation, so
// a recovered result is bit-identical to a fault-free run (results and
// Metrics both).
type RetryPolicy struct {
	// Attempts is the total try budget, first attempt included
	// (default 1 = never retry).
	Attempts int
	// Backoff separates the failure from the first retry (default
	// 500ms); each further retry doubles it, with ±25% jitter so a
	// fleet of coordinators does not re-dial in lockstep.
	Backoff time.Duration
	// MaxBackoff caps the grown delay (default 10s).
	MaxBackoff time.Duration
	// Respawn, when set, runs before each retry with the failing
	// attempt's error. It may restart dead workers (the tcp dialer's
	// retry window then picks the replacements up) and return a
	// replacement address list; returning nil keeps the current
	// addresses, returning an error abandons the job.
	Respawn func(ctx context.Context, attempt int, cause error, addrs []string) ([]string, error)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	if p.Backoff == 0 {
		p.Backoff = 500 * time.Millisecond
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = 10 * time.Second
	}
	return p
}

// delay computes the backoff before retry number retry (1-based), with
// ±25% jitter.
func (p RetryPolicy) delay(retry int) time.Duration {
	d := p.Backoff << (retry - 1)
	if d > p.MaxBackoff || d <= 0 {
		d = p.MaxBackoff
	}
	jitter := time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
	return d + jitter
}

// again decides, after the attempt-th try failed with cause, whether to
// try once more: nil after Respawn (which may replace *addrs) and the
// backoff, or the error that ends the job — cause itself when the attempts
// are spent or it is not a lost worker (crash, stall, desync): a malformed
// job or an unreadable source fails identically every time, so it fails
// fast.
func (p RetryPolicy) again(ctx context.Context, attempt int, cause error, addrs *[]string) error {
	if ctx.Err() != nil || attempt >= p.Attempts || !errors.Is(cause, transport.ErrLinkDown) {
		return cause
	}
	retriesCounter().Inc()
	if p.Respawn != nil {
		replacement, err := p.Respawn(ctx, attempt, cause, *addrs)
		if err != nil {
			return err
		}
		if replacement != nil {
			*addrs = replacement
		}
	}
	t := time.NewTimer(p.delay(attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Recovery telemetry lands in the same registry as the transport's
// (kmserve and kmworker redirect it into their serving registry), so
// retries, missed heartbeats, and recovery latency show on /metrics
// next to the link counters.

func retriesCounter() *telemetry.Counter {
	return tcp.Telemetry().Counter("kmgraph_dist_retries_total",
		"Distributed job attempts retried after a failure.")
}

func heartbeatsMissedCounter() *telemetry.Counter {
	return tcp.Telemetry().Counter("kmgraph_dist_heartbeats_missed_total",
		"Worker control connections declared stalled after heartbeat silence.")
}

func workerFailuresCounter(reason transport.LinkDownReason) *telemetry.Counter {
	return tcp.Telemetry().Counter("kmgraph_dist_worker_failures_total",
		"Worker failures observed by the coordinator's gather, by classification.",
		telemetry.Label{Name: "reason", Value: string(reason)})
}

func recoveryHistogram() *telemetry.Histogram {
	return tcp.Telemetry().HistogramWith(telemetry.LatencyBuckets,
		"kmgraph_dist_recovery_seconds",
		"Time from a job's first failure to its successful recovered completion.")
}
