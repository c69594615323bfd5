package dist

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"kmgraph/internal/core"
	"kmgraph/internal/resident"
	"kmgraph/internal/transport"
	"kmgraph/internal/transport/tcp"
	"kmgraph/internal/wire"
)

// The coordinator hosts zero machines: it assigns ranges, ships the
// job, and reassembles the workers' partial results. All round traffic
// flows worker-to-worker.

// SplitRanges assigns k machines to w workers as contiguous, near-even
// ranges (the first k%w workers get one extra machine).
func SplitRanges(k, w int) ([][2]int, error) {
	if w < 1 {
		return nil, errors.New("dist: no workers")
	}
	if w > k {
		return nil, fmt.Errorf("dist: %d workers for %d machines (need w <= k)", w, k)
	}
	ranges := make([][2]int, w)
	base, extra := k/w, k%w
	lo := 0
	for i := range ranges {
		hi := lo + base
		if i < extra {
			hi++
		}
		ranges[i] = [2]int{lo, hi}
		lo = hi
	}
	return ranges, nil
}

func newClusterID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("dist: crypto/rand unavailable: " + err.Error())
	}
	return binary.LittleEndian.Uint64(b[:])
}

// CoordOptions tune the coordinator side of a distributed job.
type CoordOptions struct {
	// HeartbeatTimeout is the longest silence tolerated on a worker
	// control connection before the gather declares the worker stalled
	// (default 30s; negative disables the deadline). Workers beat every
	// WorkerOptions.HeartbeatInterval, so this must comfortably exceed
	// that.
	HeartbeatTimeout time.Duration
	// Retry governs recovery after a failed attempt. The zero value
	// never retries.
	Retry RetryPolicy
	// Flight, when non-nil, records per-control-link activity and
	// captures any flight-recorder snapshot a failing worker reports,
	// for Flight.Dump / the CLIs' -flight-dump.
	Flight *FlightLog
	// Progress, when non-nil, is called from each control-link gather
	// as heartbeats arrive, with the worker index and its live engine
	// round count (kmserve surfaces these as per-worker gauges and SSE
	// deltas). It must be fast and non-blocking.
	Progress func(worker int, rounds uint64)
}

func (o CoordOptions) withDefaults() CoordOptions {
	if o.HeartbeatTimeout == 0 {
		o.HeartbeatTimeout = 30 * time.Second
	}
	o.Retry = o.Retry.withDefaults()
	return o
}

// RunConnectivity runs one connectivity job over the worker fleet at addrs,
// on the graph named by the source spec, with default coordinator options:
// a residency opened for it (OpenFleet), loaded, run once with fresh
// sketches (resident.Engine.Static) and closed — the coordinator itself,
// for callers that measure it; everything else runs jobs on a fleet-backed
// Cluster. Its result and Metrics (the residency's total: the load plus
// the run) are bit-identical to core.RunSource with the same spec and cfg,
// and a job that ran out of phases returns its partial result with
// core.ErrNotConverged, as core.RunSource does. A config no residency
// hosts (EdgeCheckSelection, CountComponents) is refused with
// resident.ErrBadConfig before anything is dialed.
func RunConnectivity(ctx context.Context, addrs []string, source string, cfg core.Config) (*core.Result, error) {
	e, err := OpenFleet(FleetSpec{Source: source, Addrs: addrs}, resident.Config{Config: cfg})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	res, err := e.Static(ctx)
	if res != nil {
		res.Metrics = e.Metrics().Total
	}
	return res, err
}

// gatherOne reads a worker's result (or error) frame, consuming
// heartbeats as liveness along the way. Silence past the heartbeat
// timeout declares the worker stalled; a dead connection, crashed —
// both as structured LinkDownErrors carrying the worker index, its
// last reported round, and the coordinator's control-link flight
// snapshot. Heartbeat round counts feed opts.Progress, span batches
// feed tr, and every inbound frame is one recorded "round" of the
// control link in opts.Flight.
func gatherOne(conn net.Conn, idx int, addr string, opts CoordOptions, tr *spanLog) (*resultFrame, error) {
	var buf []byte
	var lastRounds uint64
	var flight *transport.FlightRecorder
	if opts.Flight != nil {
		flight = opts.Flight.recorder(idx)
	}
	lastFrame := time.Now()
	record := func(body []byte) {
		if flight == nil {
			return
		}
		now := time.Now()
		flight.Record(transport.RoundFlight{
			Seq:    lastRounds,
			WaitNs: now.Sub(lastFrame).Nanoseconds(),
			Links: []transport.LinkFlight{{
				Peer: idx, FramesRecv: 1, BytesRecv: int64(len(body)),
			}},
		})
		lastFrame = now
	}
	fail := func(reason transport.LinkDownReason, err error) error {
		workerFailuresCounter(reason).Inc()
		ld := &transport.LinkDownError{Peer: idx, Addr: addr, Round: lastRounds, Reason: reason, Err: err}
		if flight != nil {
			flight.RecordError(lastRounds, ld)
			ld.Flight = flight.Snapshot()
		}
		return ld
	}
	for {
		if opts.HeartbeatTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(opts.HeartbeatTimeout))
		} else {
			conn.SetReadDeadline(time.Time{})
		}
		t, body, err := tcp.ReadFrame(conn, &buf)
		if err != nil {
			reason := transport.ReasonCrash
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				reason = transport.ReasonStall
				heartbeatsMissedCounter().Inc()
			}
			return nil, fail(reason, fmt.Errorf("dist: reading result: %v", err))
		}
		switch t {
		case tcp.FrameHeartbeat:
			_, rounds, spans, err := decodeHeartbeat(body)
			if err != nil {
				// A beat that does not decode is no proof of life: a worker
				// streaming garbage must not hold the job open until the
				// caller's deadline.
				return nil, fail(transport.ReasonDesync, fmt.Errorf("dist: undecodable heartbeat: %v", err))
			}
			lastRounds = rounds
			tr.add(idx, spans)
			if opts.Progress != nil {
				opts.Progress(idx, rounds)
			}
			record(body)
		case tcp.FrameResult:
			rf, err := decodeResultFrame(body)
			if err != nil {
				return nil, err
			}
			record(body)
			tr.add(idx, rf.spans)
			return rf, nil
		case tcp.FrameError:
			ef, err := decodeErrorFrame(body)
			if err != nil {
				return nil, err
			}
			record(body)
			if opts.Flight != nil {
				opts.Flight.setRemote(idx, ef.flight)
			}
			if ef.linkDown {
				reason := ef.reason
				if reason == "" {
					reason = transport.ReasonCrash
				}
				workerFailuresCounter(reason).Inc()
			}
			return nil, ef.err()
		default:
			return nil, fail(transport.ReasonDesync, fmt.Errorf("dist: unexpected frame type %d from worker", t))
		}
	}
}

func decodeResultFrame(body []byte) (*resultFrame, error) {
	r := wire.NewReader(body)
	rf := &resultFrame{}
	if r.Ints(&rf.lo, &rf.hi); r.Err() != nil {
		return nil, r.Err()
	}
	if rf.lo < 0 || rf.hi <= rf.lo || rf.hi-rf.lo > maxK {
		return nil, fmt.Errorf("dist: result frame for range [%d,%d)", rf.lo, rf.hi)
	}
	var err error
	if rf.metrics, err = transport.ReadMetrics(r); err != nil {
		return nil, err
	}
	for i := rf.lo; i < rf.hi; i++ {
		o, err := resident.ReadOutput(r)
		if err != nil {
			return nil, err
		}
		rf.outputs = append(rf.outputs, o)
	}
	if rf.spans, err = readSpans(r); err != nil {
		return nil, err
	}
	return rf, r.Done()
}

// maxK mirrors the transport's machine bound.
const maxK = 1 << 16
