// Package dist runs k-machine jobs across OS processes. A coordinator
// (kmrun -transport tcp, kmserve -fleet) splits the k machines into
// contiguous ranges over a set of worker processes (cmd/kmworker) and
// ships each worker a job spec over a control connection. The workers form
// a TCP mesh among themselves (transport/tcp), each loads its own slice of
// the graph shard-direct from the job's source spec, and each keeps that
// residency — mesh, cluster, shards, machines — for exactly as long as its
// control connection is open, running every command frame that follows
// the spec (a resident command: load, apply, query, mst, derived) as one
// run and answering it with its partial result. Every job is a command of
// a residency: a fleet-backed Cluster (OpenFleet) is a resident.Engine
// whose machines live there, and a one-shot job (RunConnectivity) is a
// residency's load plus one fresh-sketch run (resident.Engine.Static).
//
// Determinism carries over wholesale: machine RNGs are seeded from
// (seed, machine id), the vertex partition from the same RVP hash, and
// the bandwidth simulation partitions by destination owner — so the
// merged Metrics and the assembled result are bit-identical to a
// single-process run with the same spec. The golden-equality tests pin
// exactly that.
//
// Graph inputs are named by source specs so every worker can
// independently materialize its shard without the coordinator shipping
// edges: "store:<path>" opens a kmgs container (the path must be
// readable by each worker), "gnm:<n>:<m>:<seed>" and
// "rmat:<n>:<m>:<seed>" replay the deterministic streaming generators.
package dist

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/store"
	"kmgraph/internal/transport"
	"kmgraph/internal/wire"
)

// WorkerSpec is one participant of a job: its dialable address and its
// hosted machine range.
type WorkerSpec struct {
	Addr   string
	Lo, Hi int
}

// Job is everything a worker needs to host its slice of a distributed
// job's residency. The coordinator personalizes Index per worker; every
// other field is identical across the fleet (and validated so by the
// transport handshake).
type Job struct {
	ClusterID uint64
	// TraceID, when non-zero, enables cross-process job tracing: each
	// worker records phase spans and streams them back on its control
	// connection, and the coordinator assembles one multi-pid Chrome
	// trace tagged with this ID.
	TraceID uint64
	Source  string // source spec, see the package comment
	// Config is the algorithm's parameter set, shipped whole
	// (core.AppendConfig) and resolved worker-side for n, identically
	// everywhere. The engine's own fields — Observer, PhaseMetrics,
	// JobTimeout — stay with the coordinator's resident.Config.
	Config  core.Config
	Index   int // this worker's position in Workers
	Workers []WorkerSpec
}

// specVersion 2 added the trace ID, span batches on heartbeat and
// result frames, and flight-recorder snapshots on error frames.
// specVersion 3 changes no byte of the spec: MST elimination now queries
// every slot a sum verified (core.MWOE), and workers of different builds
// would run different elimination protocols and desync mid-job.
// specVersion 4 is the same for the result frame: a machine output carries
// the phase driver's convergence verdict (core.AppendOutput).
// specVersion 5 makes every job a residency that runs the command frames
// following its spec, and packs the control frames' integers as varints.
// specVersion 6 ships the sketch dimensions, drops the one-shot command and
// the output fields only it produced (core.AppendOutput).
// specVersion 7 ships the whole core.Config in core.AppendConfig's form.
// specVersion 8 changes no byte of the spec: a light part travels to its
// proxy as adjacency rows (core.Merger.PartPayload), which a build of
// version 7 would misread as a sketch.
// specVersion 9 changes no byte of the spec: an exchange's count frames
// carry the reduce vector summed on them (proxy.Comm.ExchangeSum), which a
// build of version 8 would refuse as bad count frames.
// specVersion 10 changes no byte of the spec: an exchange sends one frame
// per link, its payloads carried in the frame (proxy.Comm.ExchangeSum), and
// Collapse's changed-sum rides on its next query exchange.
// specVersion 11 drops the query output's component count from the result
// frame (resident.AppendOutput): the host counts from the labels.
// specVersion 12 changes no byte of the spec: a query's final sync ships
// one (pre-query label, post-query label) rename per changed class
// (resident rmachine.query), which a build of version 11 would read as
// per-vertex label changes.
const specVersion = 12

// ErrVersion is the failure of a job spec from a build of another wire
// version: a worker refuses it before it dials or loads anything, and the
// coordinator does not retry it.
var ErrVersion = errors.New("dist: job spec version")

// maxWorkers bounds a decoded worker list.
const maxWorkers = 1 << 16

// AppendJob encodes j as a FrameJob body.
func AppendJob(b []byte, j *Job) []byte {
	b = wire.AppendUvarint(b, specVersion)
	b = wire.AppendU64(b, j.ClusterID)
	b = wire.AppendU64(b, j.TraceID)
	b = wire.AppendBytes(b, []byte(j.Source))
	b = core.AppendConfig(b, j.Config)
	b = wire.AppendInts(b, j.Index, len(j.Workers))
	for _, w := range j.Workers {
		b = wire.AppendBytes(b, []byte(w.Addr))
		b = wire.AppendInts(b, w.Lo, w.Hi)
	}
	return b
}

// DecodeJob decodes a FrameJob body.
func DecodeJob(body []byte) (*Job, error) {
	r := wire.NewReader(body)
	if v := r.Uvarint(); v != specVersion {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("%w %d, want %d", ErrVersion, v, specVersion)
	}
	j := &Job{ClusterID: r.U64(), TraceID: r.U64(), Source: string(r.Bytes()), Config: core.ReadConfig(r)}
	var nw int
	if r.Ints(&j.Index, &nw); r.Err() != nil {
		return nil, r.Err()
	}
	if nw < 1 || nw > maxWorkers {
		return nil, fmt.Errorf("dist: job with %d workers", nw)
	}
	j.Workers = make([]WorkerSpec, nw)
	for i := range j.Workers {
		j.Workers[i].Addr = string(r.Bytes())
		r.Ints(&j.Workers[i].Lo, &j.Workers[i].Hi)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if j.Index < 0 || j.Index >= nw {
		return nil, fmt.Errorf("dist: job index %d of %d workers", j.Index, nw)
	}
	k, sk := j.Config.K, j.Config.Sketch
	if k < 1 {
		return nil, fmt.Errorf("dist: job with k=%d", k)
	}
	if min(sk.N, sk.Levels, sk.Buckets, sk.Reps) < 0 {
		return nil, fmt.Errorf("dist: job with sketch dimensions %+v", sk)
	}
	next := 0
	for i, w := range j.Workers {
		if w.Lo != next || w.Hi <= w.Lo || w.Hi > k {
			return nil, fmt.Errorf("dist: worker %d hosts [%d,%d), want contiguous cover of [0,%d)",
				i, w.Lo, w.Hi, k)
		}
		next = w.Hi
	}
	if next != k {
		return nil, fmt.Errorf("dist: workers cover [0,%d) of %d machines", next, k)
	}
	return j, nil
}

// OpenJobSource opens a job's source spec as an EdgeSource.
func OpenJobSource(spec string) (graph.EdgeSource, io.Closer, error) {
	switch {
	case strings.HasPrefix(spec, "store:"):
		r, err := store.Open(strings.TrimPrefix(spec, "store:"))
		if err != nil {
			return nil, nil, err
		}
		return r.Source(), r, nil
	case strings.HasPrefix(spec, "gnm:"), strings.HasPrefix(spec, "rmat:"):
		parts := strings.Split(spec, ":")
		if len(parts) != 4 {
			return nil, nil, fmt.Errorf("dist: source spec %q, want %s:<n>:<m>:<seed>", spec, parts[0])
		}
		n, err1 := strconv.Atoi(parts[1])
		m, err2 := strconv.Atoi(parts[2])
		seed, err3 := strconv.ParseInt(parts[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, nil, fmt.Errorf("dist: malformed source spec %q", spec)
		}
		if n > graph.MaxN {
			return nil, nil, fmt.Errorf("dist: source spec %q: %w: vertex count %d out of range [2, %d]", spec, store.ErrLimit, n, graph.MaxN)
		}
		if n < 2 || m < 0 || int64(m) > int64(n)*int64(n-1)/2 {
			return nil, nil, fmt.Errorf("dist: source spec %q out of range", spec)
		}
		var src graph.EdgeSource
		if parts[0] == "gnm" {
			src = graph.StreamGNM(n, m, seed)
		} else {
			src = graph.StreamRMAT(n, m, seed)
		}
		return src, nopCloser{}, nil
	default:
		return nil, nil, fmt.Errorf("dist: unknown source spec %q (want store:, gnm:, or rmat:)", spec)
	}
}

type nopCloser struct{}

func (nopCloser) Close() error { return nil }

// resultFrame is a worker's partial result of one run: its hosted range,
// its partial Metrics, its machines' outputs, and — for traced jobs — the
// phase spans not yet streamed on heartbeats (always including the
// trailing sync span, sealed at completion).
type resultFrame struct {
	lo, hi  int
	metrics *transport.Metrics
	outputs []any
	spans   []transport.PhaseSpan
}

// errorFrame is a worker's job failure. Link-down failures carry the
// structured fields of transport.LinkDownError across the wire —
// including the worker's flight-recorder snapshot — so the
// coordinator's classification, retry decisions, and post-mortems see
// the same peer, round, reason, and last-K-rounds history a local
// caller would.
type errorFrame struct {
	msg      string
	linkDown bool
	peer     int // -1 when unknown
	round    uint64
	reason   transport.LinkDownReason
	flight   []transport.RoundFlight
}

// err reconstructs the failure the worker reported, preserving the
// ErrLinkDown identity and the structured fields — and ErrVersion's, which
// a worker of any version words the same.
func (f *errorFrame) err() error {
	if v, skew := strings.CutPrefix(f.msg, ErrVersion.Error()); skew {
		return fmt.Errorf("dist: remote job failed: %w%s", ErrVersion, v)
	}
	if !f.linkDown {
		return fmt.Errorf("dist: remote job failed: %s", f.msg)
	}
	return &transport.LinkDownError{
		Peer:   f.peer,
		Round:  f.round,
		Reason: f.reason,
		Flight: f.flight,
		Err:    fmt.Errorf("dist: remote job failed: %s", f.msg),
	}
}

func appendErrorFrame(b []byte, err error) []byte {
	f := errorFrame{msg: err.Error(), linkDown: errors.Is(err, transport.ErrLinkDown), peer: -1}
	var ld *transport.LinkDownError
	if errors.As(err, &ld) {
		f.peer, f.round, f.reason, f.flight = ld.Peer, ld.Round, ld.Reason, ld.Flight
	}
	b = wire.AppendBytes(b, []byte(f.msg))
	b = wire.AppendBool(b, f.linkDown)
	b = wire.AppendInts(b, f.peer, int(f.round))
	b = wire.AppendBytes(b, []byte(f.reason))
	return appendFlight(b, f.flight)
}

func decodeErrorFrame(body []byte) (*errorFrame, error) {
	r := wire.NewReader(body)
	f := &errorFrame{msg: string(r.Bytes()), linkDown: r.Bool()}
	var round int
	r.Ints(&f.peer, &round)
	f.round, f.reason = uint64(round), transport.LinkDownReason(r.Bytes())
	fl, err := readFlight(r)
	if err != nil {
		return nil, err
	}
	f.flight = fl
	return f, r.Err()
}

// maxFlightRecords bounds a decoded flight snapshot (a recorder ring is
// DefaultFlightDepth deep; the bound only guards corrupt frames).
const maxFlightRecords = 4096

// appendFlight encodes a flight-recorder snapshot.
func appendFlight(b []byte, fl []transport.RoundFlight) []byte {
	b = wire.AppendInts(b, len(fl))
	for _, rf := range fl {
		b = wire.AppendInts(b, int(rf.Seq), int(rf.WaitNs), len(rf.Links))
		b = wire.AppendBytes(b, []byte(rf.Err))
		for _, l := range rf.Links {
			b = wire.AppendInts(b, l.Peer, int(l.FramesSent), int(l.FramesRecv), int(l.BytesSent), int(l.BytesRecv))
		}
	}
	return b
}

func readFlight(r *wire.Reader) ([]transport.RoundFlight, error) {
	n, err := count(r, maxFlightRecords)
	if n == 0 || err != nil {
		return nil, err
	}
	fl := make([]transport.RoundFlight, n)
	for i := range fl {
		var seq, wait, nl int
		r.Ints(&seq, &wait, &nl)
		fl[i].Seq, fl[i].WaitNs, fl[i].Err = uint64(seq), int64(wait), string(r.Bytes())
		if nl < 0 || nl > maxWorkers {
			return nil, fmt.Errorf("dist: flight record with %d links", nl)
		}
		for j := 0; j < nl && r.Err() == nil; j++ {
			var l [5]int
			r.Ints(&l[0], &l[1], &l[2], &l[3], &l[4])
			fl[i].Links = append(fl[i].Links, transport.LinkFlight{Peer: l[0], FramesSent: int64(l[1]),
				FramesRecv: int64(l[2]), BytesSent: int64(l[3]), BytesRecv: int64(l[4])})
		}
	}
	return fl, r.Err()
}

// count reads a collection size, refusing one above limit (the bound
// only guards corrupt frames).
func count(r *wire.Reader, limit int) (int, error) {
	var n int
	if r.Ints(&n); r.Err() != nil {
		return 0, r.Err()
	}
	if n < 0 || n > limit {
		return 0, fmt.Errorf("dist: collection of %d in a control frame", n)
	}
	return n, nil
}

// maxSpanBatch bounds the phase spans one heartbeat carries, keeping
// beats small and regular; the backlog drains across beats and any
// remainder rides the result frame.
const maxSpanBatch = 256

// maxSpanDecode bounds one decoded span batch (phase counts are
// O(log n); the bound only guards corrupt frames).
const maxSpanDecode = 1 << 16

// appendSpans encodes a phase-span batch.
func appendSpans(b []byte, spans []transport.PhaseSpan) []byte {
	b = wire.AppendInts(b, len(spans))
	for _, s := range spans {
		b = wire.AppendInts(b, s.Phase, s.StartRound, s.EndRound, int(s.StartUs), int(s.DurUs),
			int(s.Frames), int(s.Bytes), int(s.WaitNs))
	}
	return b
}

func readSpans(r *wire.Reader) ([]transport.PhaseSpan, error) {
	n, err := count(r, maxSpanDecode)
	if n == 0 || err != nil {
		return nil, err
	}
	spans := make([]transport.PhaseSpan, n)
	for i := range spans {
		s := &spans[i]
		var start, dur, frames, bytes, wait int
		r.Ints(&s.Phase, &s.StartRound, &s.EndRound, &start, &dur, &frames, &bytes, &wait)
		s.StartUs, s.DurUs, s.Frames, s.Bytes, s.WaitNs = int64(start), int64(dur), int64(frames), int64(bytes), int64(wait)
	}
	return spans, r.Err()
}

// appendHeartbeat encodes a FrameHeartbeat body: which cluster the beat
// is for, how many rounds its engine has completed, and a bounded batch
// of freshly completed phase spans (empty unless the job is traced).
func appendHeartbeat(b []byte, clusterID, rounds uint64, spans []transport.PhaseSpan) []byte {
	b = wire.AppendU64(b, clusterID)
	b = wire.AppendUvarint(b, rounds)
	return appendSpans(b, spans)
}

func decodeHeartbeat(body []byte) (clusterID, rounds uint64, spans []transport.PhaseSpan, err error) {
	r := wire.NewReader(body)
	clusterID, rounds = r.U64(), r.Uvarint()
	spans, err = readSpans(r)
	if err == nil {
		err = r.Err()
	}
	return clusterID, rounds, spans, err
}
