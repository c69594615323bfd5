// Package transport abstracts the link layer of the k-machine model: how
// one synchronous round of point-to-point traffic moves between machines.
//
// The round engine in internal/kmachine is written against the Transport
// interface, which carries exactly what a round needs — the messages staged
// by the machines a process hosts, the round barrier that keeps every
// participant in lockstep, and the per-destination deliveries whose last
// bit arrived this round. Two backends implement it:
//
//   - transport/local hosts all k machines in one process and is the
//     bit-exact reference: it is the pre-existing in-process simulator's
//     link machinery behind the interface.
//   - transport/tcp hosts a contiguous sub-range of the machines and
//     exchanges length-prefixed round frames with peer processes over TCP,
//     so a cluster spans OS processes and hosts.
//
// Both backends drive the same link simulator (Switch): every directed
// link is a FIFO byte queue drained at BandwidthBits per round, and a
// message is delivered in the round its last bit arrives. Because the
// simulator state of destination d is touched only by d's owner, the
// simulation partitions cleanly across processes by destination — which is
// what makes the two backends produce identical Metrics by construction.
package transport

import (
	"errors"
	"strconv"
)

// Message is a point-to-point message between machines. It is the same
// type the engine exposes as kmachine.Message (an alias).
type Message struct {
	Src, Dst int
	Data     []byte
}

// Params are the link-layer parameters every participant must agree on.
type Params struct {
	// K is the number of machines.
	K int
	// BandwidthBits is the per-round bit budget of each directed link.
	BandwidthBits int
	// MessageOverheadBits is added to every message's transmission cost.
	MessageOverheadBits int
}

// ErrLinkDown is reported when a peer process dies or a link breaks while
// a job is in flight. Jobs fail with this typed error instead of hanging
// the round barrier; callers can errors.Is against it.
var ErrLinkDown = errors.New("transport: link down")

// LinkDownReason classifies why a link was declared down. It drives the
// coordinator's retry decisions and failure telemetry without string
// parsing.
//
//km:exhaustive
type LinkDownReason string

const (
	// ReasonCrash: the peer's connection died (EOF, reset, refused).
	ReasonCrash LinkDownReason = "crash"
	// ReasonStall: the peer stayed silent past its liveness deadline but
	// the connection is formally alive (a wedged or overloaded process).
	ReasonStall LinkDownReason = "stall"
	// ReasonDesync: the peer is alive but violated the round protocol
	// (wrong barrier sequence, out-of-range traffic, range mismatch).
	ReasonDesync LinkDownReason = "desync"
	// ReasonChaos: an injected fault from the chaos transport.
	ReasonChaos LinkDownReason = "chaos"
)

// LinkDownError is the structured form of ErrLinkDown: it names the
// lost peer, where it was, how far the protocol got, and why the link
// was declared dead, so logs and retry policies need no string parsing.
// errors.Is(err, ErrLinkDown) matches it, and errors.As extracts it
// through any number of fmt.Errorf %w wrappings.
type LinkDownError struct {
	// Peer is the remote participant index (-1 when unknown).
	Peer int
	// Addr is the peer's dialable address, when known.
	Addr string
	// Round is the last barrier sequence completed with the peer (0 when
	// the link died before any barrier).
	Round uint64
	// Reason classifies the failure.
	Reason LinkDownReason
	// Err is the underlying cause, when any.
	Err error
	// Flight is the reporting side's flight-recorder snapshot — the
	// last K per-link round events before the link died. It rides along
	// the error (and, for distributed jobs, the control-link error
	// frame) so a post-mortem starts from data, not from a bare
	// classification. Error() deliberately omits it; dump it as JSON.
	Flight []RoundFlight
}

func (e *LinkDownError) Error() string {
	s := "transport: link down"
	if e.Peer >= 0 {
		s += " (peer " + strconv.Itoa(e.Peer)
		if e.Addr != "" {
			s += " at " + e.Addr
		}
		s += ")"
	}
	if e.Reason != "" {
		s += ": " + string(e.Reason)
	}
	if e.Round > 0 {
		s += " after round " + strconv.FormatUint(e.Round, 10)
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Unwrap exposes both the ErrLinkDown sentinel (so errors.Is keeps
// working) and the underlying cause.
func (e *LinkDownError) Unwrap() []error {
	if e.Err == nil {
		return []error{ErrLinkDown}
	}
	return []error{ErrLinkDown, e.Err}
}

// RoundIn is what the engine hands the transport at each round barrier.
// The struct is reused across rounds; the transport must not retain it.
type RoundIn struct {
	// Msgs holds every message staged by hosted machines at this barrier,
	// grouped by source machine ID ascending with per-source send order
	// preserved (the only order the link FIFOs observe).
	Msgs []Message
	// DoneDelta is the number of hosted machines that returned (halted)
	// at this barrier.
	DoneDelta int
}

// RoundOut is the transport's answer to one barrier. Inboxes is owned by
// the transport and reused: slot i stays valid until the second-next
// Round call delivers into it (double buffering), exactly the contract
// machines get from Ctx.Step.
type RoundOut struct {
	// Advanced reports whether a communication round passed. It is false
	// when the cluster halted at this barrier (Running == 0): the engine
	// must not count a round then.
	Advanced bool
	// Running is the global number of machines still running after this
	// barrier, across every participating process.
	Running int
	// Inboxes[i] holds hosted machine (lo+i)'s deliveries this round,
	// sorted by (source, send order).
	Inboxes [][]Message
}

// Transport moves rounds of k-machine traffic for the machines one
// process hosts. Implementations are driven by a single engine goroutine;
// Round is never called concurrently. A transport carries every run of its
// cluster: the barrier at which Running reaches zero ends one run, and the
// next Round call opens the next with all K machines running again and
// whatever the link queues still hold.
type Transport interface {
	// Hosted returns the half-open range [lo, hi) of machine indices this
	// process runs. The local backend hosts [0, K).
	Hosted() (lo, hi int)
	// Round executes one synchronous round: it ships the staged messages
	// and the barrier deltas, waits for every peer to reach the same
	// barrier, advances every hosted incoming link by one bandwidth
	// quantum, and reports the completed deliveries. A transport that has
	// lost a peer returns an error wrapping ErrLinkDown; the engine then
	// aborts the job.
	Round(in *RoundIn, out *RoundOut) error
	// Remnants returns the count and payload bytes of messages still
	// queued on hosted links at termination (protocol-bug accounting).
	Remnants() (int, int64)
	// Close releases the transport's resources. It is safe to call more
	// than once.
	Close() error
}
