package dist

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"kmgraph/internal/kmachine"
	"kmgraph/internal/telemetry"
	"kmgraph/internal/transport"
	"kmgraph/internal/transport/tcp"
)

// RetryPolicy governs coordinator-side recovery from failed job
// attempts. Every attempt is a fresh job under a new cluster ID — the
// workers rematerialize their shards from the source spec and replay
// the exact deterministic computation, so a recovered result is
// bit-identical to a fault-free run (results and Metrics both).
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

// retryable reports whether err is worth another attempt: only link-down
// failures (crash, stall, desync) are — a malformed job or an unreadable
// source fails identically every time, so it fails fast.
func retryable(err error) bool { return errors.Is(err, transport.ErrLinkDown) }

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

// runRetry drives attempts of runOnce under the retry policy,
// re-dialing (and, via Respawn, replacing) workers between attempts.
func runRetry(ctx context.Context, addrs []string, job Job, opts CoordOptions, tr *spanLog) (*kmachine.Result, int, error) {
	opts = opts.withDefaults()
	pol := opts.Retry
	var firstFail time.Time
	for attempt := 1; ; attempt++ {
		res, n, err := runOnce(ctx, addrs, job, opts, tr)
		if err == nil {
			if attempt > 1 {
				recoveryHistogram().Observe(time.Since(firstFail).Seconds())
			}
			return res, n, nil
		}
		if ctx.Err() != nil || attempt >= pol.Attempts || !retryable(err) {
			return nil, 0, err
		}
		if firstFail.IsZero() {
			firstFail = time.Now()
		}
		retriesCounter().Inc()
		if pol.Respawn != nil {
			replacement, rerr := pol.Respawn(ctx, attempt, err, addrs)
			if rerr != nil {
				return nil, 0, rerr
			}
			if replacement != nil {
				addrs = replacement
			}
		}
		t := time.NewTimer(pol.delay(attempt))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, 0, ctx.Err()
		}
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
