// Package dist runs k-machine jobs across OS processes. A coordinator
// (kmrun -transport tcp, kmserve -fleet) splits the k machines into
// contiguous ranges over a set of worker processes (cmd/kmworker),
// ships each worker a job spec over a control connection, and gathers
// partial results. The workers form a TCP mesh among themselves
// (transport/tcp), each loads its own slice of the graph shard-direct
// from the job's source spec, and each runs the ordinary round engine
// over its hosted machines.
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

// Kind selects the algorithm a job runs.
type Kind uint8

const (
	// KindConnectivity runs the Õ(n/k²) connectivity algorithm.
	KindConnectivity Kind = 1
	// KindMST runs the MST algorithm.
	KindMST Kind = 2
)

func (k Kind) String() string {
	switch k {
	case KindConnectivity:
		return "connectivity"
	case KindMST:
		return "mst"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// WorkerSpec is one participant of a job: its dialable address and its
// hosted machine range.
type WorkerSpec struct {
	Addr   string
	Lo, Hi int
}

// Job is everything a worker needs to run its slice of a distributed
// job. The coordinator personalizes Index per worker; every other field
// is identical across the fleet (and validated so by the transport
// handshake).
type Job struct {
	ClusterID uint64
	// TraceID, when non-zero, enables cross-process job tracing: each
	// worker records phase spans and streams them back on its control
	// connection, and the coordinator assembles one multi-pid Chrome
	// trace tagged with this ID.
	TraceID uint64
	Kind    Kind
	Source  string // source spec, see the package comment

	// Algorithm configuration, pre-resolution: zero-valued fields are
	// resolved worker-side with WithDefaults(n), identically everywhere.
	Conn core.Config
	MST  core.MSTConfig // Kind == KindMST; Conn is ignored then

	Index   int // this worker's position in Workers
	Workers []WorkerSpec
}

// K returns the job's machine count.
func (j *Job) K() int {
	if j.Kind == KindMST {
		return j.MST.K
	}
	return j.Conn.K
}

// config returns the job's base Config (shared fields).
func (j *Job) config() core.Config {
	if j.Kind == KindMST {
		return j.MST.Config
	}
	return j.Conn
}

// specVersion 2 added the trace ID, span batches on heartbeat and
// result frames, and flight-recorder snapshots on error frames.
// specVersion 3 changes no byte of the spec: MST elimination now queries
// every slot a sum verified (core.MWOE), and workers of different builds
// would run different elimination protocols and desync mid-job.
// specVersion 4 is the same for the result frame: a machine output carries
// the phase driver's convergence verdict (core.AppendOutput).
const specVersion = 4

// maxWorkers bounds a decoded worker list.
const maxWorkers = 1 << 16

// AppendJob encodes j as a FrameJob body.
func AppendJob(b []byte, j *Job) []byte {
	b = wire.AppendUvarint(b, specVersion)
	b = wire.AppendU64(b, j.ClusterID)
	b = wire.AppendU64(b, j.TraceID)
	b = wire.AppendUvarint(b, uint64(j.Kind))
	b = wire.AppendBytes(b, []byte(j.Source))
	c := j.config()
	b = wire.AppendUvarint(b, uint64(c.K))
	b = wire.AppendUvarint(b, uint64(c.BandwidthBits))
	b = wire.AppendVarint(b, c.Seed)
	b = wire.AppendUvarint(b, uint64(c.MaxPhases))
	b = wire.AppendUvarint(b, uint64(c.MaxRounds))
	b = wire.AppendUvarint(b, uint64(c.MessageOverheadBits))
	b = wire.AppendBool(b, c.CollapseLevelWise)
	b = wire.AppendBool(b, c.CoinMerge)
	b = wire.AppendBool(b, c.EdgeCheckSelection)
	b = wire.AppendBool(b, c.FaithfulRandomness)
	b = wire.AppendBool(b, c.CountComponents)
	b = wire.AppendBool(b, j.MST.StrongOutput)
	b = wire.AppendUvarint(b, uint64(j.MST.MaxElimIters))
	b = wire.AppendUvarint(b, uint64(j.Index))
	b = wire.AppendUvarint(b, uint64(len(j.Workers)))
	for _, w := range j.Workers {
		b = wire.AppendBytes(b, []byte(w.Addr))
		b = wire.AppendUvarint(b, uint64(w.Lo))
		b = wire.AppendUvarint(b, uint64(w.Hi))
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
		return nil, fmt.Errorf("dist: job spec version %d, want %d", v, specVersion)
	}
	j := &Job{ClusterID: r.U64(), TraceID: r.U64(), Kind: Kind(r.Uvarint()), Source: string(r.Bytes())}
	var c core.Config
	c.K = int(r.Uvarint())
	c.BandwidthBits = int(r.Uvarint())
	c.Seed = r.Varint()
	c.MaxPhases = int(r.Uvarint())
	c.MaxRounds = int(r.Uvarint())
	c.MessageOverheadBits = int(r.Uvarint())
	c.CollapseLevelWise = r.Bool()
	c.CoinMerge = r.Bool()
	c.EdgeCheckSelection = r.Bool()
	c.FaithfulRandomness = r.Bool()
	c.CountComponents = r.Bool()
	j.MST.StrongOutput = r.Bool()
	j.MST.MaxElimIters = int(r.Uvarint())
	j.Index = int(r.Uvarint())
	nw := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nw < 1 || nw > maxWorkers {
		return nil, fmt.Errorf("dist: job with %d workers", nw)
	}
	j.Workers = make([]WorkerSpec, nw)
	for i := range j.Workers {
		j.Workers[i] = WorkerSpec{
			Addr: string(r.Bytes()),
			Lo:   int(r.Uvarint()),
			Hi:   int(r.Uvarint()),
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	j.Conn = c
	j.MST.Config = c
	if j.Kind != KindConnectivity && j.Kind != KindMST {
		return nil, fmt.Errorf("dist: unknown job kind %d", j.Kind)
	}
	if j.Index < 0 || j.Index >= nw {
		return nil, fmt.Errorf("dist: job index %d of %d workers", j.Index, nw)
	}
	k := c.K
	if k < 1 {
		return nil, fmt.Errorf("dist: job with k=%d", k)
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
		if n < 2 || m < 0 || m > n*(n-1)/2 {
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

// resultFrame is a worker's partial result: the vertex count it
// observed, its partial Metrics, its hosted machines' outputs, and —
// for traced jobs — the phase spans not yet streamed on heartbeats
// (always including the trailing sync span, sealed at completion).
type resultFrame struct {
	n       int
	lo, hi  int
	metrics []byte // transport.AppendMetrics encoding
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
// ErrLinkDown identity and the structured fields.
func (f *errorFrame) err() error {
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
	b = wire.AppendVarint(b, int64(f.peer))
	b = wire.AppendUvarint(b, f.round)
	b = wire.AppendBytes(b, []byte(f.reason))
	b = appendFlight(b, f.flight)
	return b
}

func decodeErrorFrame(body []byte) (*errorFrame, error) {
	r := wire.NewReader(body)
	f := &errorFrame{
		msg:      string(r.Bytes()),
		linkDown: r.Bool(),
		peer:     int(r.Varint()),
		round:    r.Uvarint(),
		reason:   transport.LinkDownReason(r.Bytes()),
	}
	fl, err := readFlight(r)
	if err != nil {
		return nil, err
	}
	f.flight = fl
	if err := r.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

// maxFlightRecords bounds a decoded flight snapshot (a recorder ring is
// DefaultFlightDepth deep; the bound only guards corrupt frames).
const maxFlightRecords = 4096

// appendFlight encodes a flight-recorder snapshot.
func appendFlight(b []byte, fl []transport.RoundFlight) []byte {
	b = wire.AppendUvarint(b, uint64(len(fl)))
	for _, rf := range fl {
		b = wire.AppendUvarint(b, rf.Seq)
		b = wire.AppendVarint(b, rf.WaitNs)
		b = wire.AppendBytes(b, []byte(rf.Err))
		b = wire.AppendUvarint(b, uint64(len(rf.Links)))
		for _, l := range rf.Links {
			b = wire.AppendVarint(b, int64(l.Peer))
			b = wire.AppendVarint(b, l.FramesSent)
			b = wire.AppendVarint(b, l.FramesRecv)
			b = wire.AppendVarint(b, l.BytesSent)
			b = wire.AppendVarint(b, l.BytesRecv)
		}
	}
	return b
}

func readFlight(r *wire.Reader) ([]transport.RoundFlight, error) {
	n := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > maxFlightRecords {
		return nil, fmt.Errorf("dist: flight snapshot with %d records", n)
	}
	fl := make([]transport.RoundFlight, n)
	for i := range fl {
		fl[i].Seq = r.Uvarint()
		fl[i].WaitNs = r.Varint()
		fl[i].Err = string(r.Bytes())
		nl := int(r.Uvarint())
		if err := r.Err(); err != nil {
			return nil, err
		}
		if nl > maxWorkers {
			return nil, fmt.Errorf("dist: flight record with %d links", nl)
		}
		if nl > 0 {
			fl[i].Links = make([]transport.LinkFlight, nl)
			for j := range fl[i].Links {
				fl[i].Links[j] = transport.LinkFlight{
					Peer:       int(r.Varint()),
					FramesSent: r.Varint(),
					FramesRecv: r.Varint(),
					BytesSent:  r.Varint(),
					BytesRecv:  r.Varint(),
				}
			}
		}
	}
	return fl, r.Err()
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
	b = wire.AppendUvarint(b, uint64(len(spans)))
	for _, s := range spans {
		b = wire.AppendVarint(b, int64(s.Phase))
		b = wire.AppendUvarint(b, uint64(s.StartRound))
		b = wire.AppendUvarint(b, uint64(s.EndRound))
		b = wire.AppendUvarint(b, uint64(s.StartUs))
		b = wire.AppendUvarint(b, uint64(s.DurUs))
		b = wire.AppendVarint(b, s.Frames)
		b = wire.AppendVarint(b, s.Bytes)
		b = wire.AppendVarint(b, s.WaitNs)
	}
	return b
}

func readSpans(r *wire.Reader) ([]transport.PhaseSpan, error) {
	n := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > maxSpanDecode {
		return nil, fmt.Errorf("dist: span batch of %d", n)
	}
	spans := make([]transport.PhaseSpan, n)
	for i := range spans {
		spans[i] = transport.PhaseSpan{
			Phase:      int(r.Varint()),
			StartRound: int(r.Uvarint()),
			EndRound:   int(r.Uvarint()),
			StartUs:    int64(r.Uvarint()),
			DurUs:      int64(r.Uvarint()),
			Frames:     r.Varint(),
			Bytes:      r.Varint(),
			WaitNs:     r.Varint(),
		}
	}
	return spans, r.Err()
}

// appendHeartbeat encodes a FrameHeartbeat body: which cluster the beat
// is for, how many rounds its engine has completed, and a bounded batch
// of freshly completed phase spans (empty unless the job is traced).
func appendHeartbeat(b []byte, clusterID, rounds uint64, spans []transport.PhaseSpan) []byte {
	b = wire.AppendU64(b, clusterID)
	b = wire.AppendUvarint(b, rounds)
	b = appendSpans(b, spans)
	return b
}

func decodeHeartbeat(body []byte) (clusterID, rounds uint64, spans []transport.PhaseSpan, err error) {
	r := wire.NewReader(body)
	clusterID = r.U64()
	rounds = r.Uvarint()
	spans, err = readSpans(r)
	if err != nil {
		return clusterID, rounds, nil, err
	}
	return clusterID, rounds, spans, r.Err()
}
