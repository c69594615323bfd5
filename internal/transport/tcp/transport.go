package tcp

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"kmgraph/internal/transport"
)

// Transport implements transport.Transport for one participant of a
// multi-process cluster: it runs the link simulator for its hosted
// destinations [lo, hi) and keeps the round barrier in lockstep with
// its peers by exchanging exactly one round frame per link per barrier.
//
// The frame a peer receives carries everything its slice of the
// simulation needs: the messages staged for its hosted machines (each
// source machine lives on exactly one participant, so per-(src,dst)
// FIFO order — the only order the simulator observes — is preserved no
// matter how frames interleave) and the sender's done count, from which
// every participant derives the same global running total and halts at
// the same barrier. All accounting for a destination accrues on its
// owner, so the per-worker partial Metrics merge into exactly the
// single-process numbers.
type Transport struct {
	p      transport.Params
	sw     *transport.Switch
	lo, hi int

	peers   []*Peer // ascending remote index
	owner   []*Peer // machine id -> owning peer (nil for hosted)
	running int     // global running count, derived identically everywhere
	seq     uint64

	inboxes     [][]transport.Message
	barrierWait interface{ Observe(float64) }
	flight      *transport.FlightRecorder
	lastLinks   []transport.LinkFlight // previous cumulative per-peer counters

	closeOnce sync.Once
}

// New assembles the transport for the participant hosting [lo, hi),
// from already-handshaken peer links covering the rest of [0, K). New
// takes ownership of the peers; Close closes them.
func New(p transport.Params, met *transport.Metrics, lo, hi int, peers []*Peer) (*Transport, error) {
	if lo < 0 || hi > p.K || lo >= hi {
		return nil, fmt.Errorf("tcp: hosting [%d,%d) of %d machines", lo, hi, p.K)
	}
	t := &Transport{
		p:           p,
		sw:          transport.NewSwitch(p, lo, hi, met, 1),
		lo:          lo,
		hi:          hi,
		peers:       append([]*Peer(nil), peers...),
		owner:       make([]*Peer, p.K),
		running:     p.K,
		inboxes:     make([][]transport.Message, hi-lo),
		barrierWait: barrierWaitHistogram(),
		flight:      transport.NewFlightRecorder(0),
		lastLinks:   make([]transport.LinkFlight, len(peers)),
	}
	sort.Slice(t.peers, func(i, j int) bool { return t.peers[i].Index < t.peers[j].Index })
	for _, pr := range t.peers {
		for d := pr.Lo; d < pr.Hi; d++ {
			if d >= lo && d < hi || t.owner[d] != nil {
				return nil, fmt.Errorf("tcp: machine %d hosted twice", d)
			}
			t.owner[d] = pr
		}
	}
	for d := 0; d < p.K; d++ {
		if t.owner[d] == nil && (d < lo || d >= hi) {
			return nil, fmt.Errorf("tcp: machine %d hosted by no participant", d)
		}
	}
	return t, nil
}

// Hosted returns this participant's machine range.
func (t *Transport) Hosted() (int, int) { return t.lo, t.hi }

// Flight returns the transport's flight recorder: the last K barriers'
// per-link traffic, for post-mortems and trace-span annotations.
func (t *Transport) Flight() *transport.FlightRecorder { return t.flight }

// fail records a terminal flight entry for the failing barrier and
// attaches the recorder snapshot to the link-down error, so the abort
// carries its own last-K-rounds post-mortem.
func (t *Transport) fail(err error) error {
	t.flight.RecordError(t.seq, err)
	var ld *transport.LinkDownError
	if errors.As(err, &ld) && ld.Flight == nil {
		ld.Flight = t.flight.Snapshot()
	}
	return err
}

// recordBarrier appends one flight entry for the barrier just
// completed, with per-peer traffic deltas since the previous one.
func (t *Transport) recordBarrier(wait time.Duration) {
	rf := transport.RoundFlight{Seq: t.seq, WaitNs: wait.Nanoseconds()}
	if len(t.peers) > 0 {
		links := make([]transport.LinkFlight, len(t.peers))
		for i, pr := range t.peers {
			cur := transport.LinkFlight{
				Peer:       pr.Index,
				FramesSent: pr.sentFrames,
				FramesRecv: pr.recvFrames.Load(),
				BytesSent:  pr.sentBytes,
				BytesRecv:  pr.recvBytes.Load(),
			}
			prev := t.lastLinks[i]
			t.lastLinks[i] = cur
			links[i] = transport.LinkFlight{
				Peer:       cur.Peer,
				FramesSent: cur.FramesSent - prev.FramesSent,
				FramesRecv: cur.FramesRecv - prev.FramesRecv,
				BytesSent:  cur.BytesSent - prev.BytesSent,
				BytesRecv:  cur.BytesRecv - prev.BytesRecv,
			}
		}
		rf.Links = links
	}
	t.flight.Record(rf)
}

// Round runs one barrier: stage hosted traffic locally, ship each
// peer's share in one frame, wait for every peer's frame (the barrier),
// fold in their done counts and messages, then advance the hosted links
// by one bandwidth quantum. A dead or desynchronized peer surfaces as
// an error wrapping transport.ErrLinkDown.
func (t *Transport) Round(in *transport.RoundIn, out *transport.RoundOut) error {
	t.seq++
	t.deadline(time.Now().Add(idleTimeout))
	for _, m := range in.Msgs {
		if own := t.owner[m.Dst]; own != nil {
			own.stage = append(own.stage, m)
		} else {
			t.sw.Enqueue(m)
		}
	}
	for _, pr := range t.peers {
		err := pr.writeRound(t.seq, in.DoneDelta, pr.stage)
		pr.stage = pr.stage[:0]
		if err != nil {
			return t.fail(&transport.LinkDownError{
				Peer: pr.Index, Addr: pr.addr, Round: t.seq - 1, Reason: transport.ReasonCrash,
				Err: fmt.Errorf("tcp: sending round %d: %v", t.seq, err),
			})
		}
	}
	t.running -= in.DoneDelta

	start := time.Now()
	for _, pr := range t.peers {
		f, err := pr.recvRound(t.seq)
		if err != nil {
			return t.fail(err)
		}
		t.running -= f.DoneDelta
		for _, m := range f.Msgs {
			if m.Dst < t.lo || m.Dst >= t.hi {
				return t.fail(&transport.LinkDownError{
					Peer: pr.Index, Addr: pr.addr, Round: t.seq - 1, Reason: transport.ReasonDesync,
					Err: fmt.Errorf("tcp: message for machine %d outside our [%d,%d)", m.Dst, t.lo, t.hi),
				})
			}
			t.sw.Enqueue(m)
		}
	}
	wait := time.Since(start)
	t.barrierWait.Observe(wait.Seconds())
	t.recordBarrier(wait)

	out.Running = t.running
	if t.running <= 0 {
		// The run is over, at this barrier for every participant; the next
		// barrier opens the next, whenever that comes.
		t.running = t.p.K
		t.deadline(time.Time{})
		out.Advanced = false
		out.Inboxes = nil
		return nil
	}
	t.sw.TransmitRound()
	for i := range t.inboxes {
		t.inboxes[i] = t.sw.Inbox(t.lo + i)
	}
	out.Advanced = true
	out.Inboxes = t.inboxes
	return nil
}

// deadline sets every peer link's read deadline: a barrier's, or none
// while the cluster waits between runs.
func (t *Transport) deadline(d time.Time) {
	for _, pr := range t.peers {
		pr.conn.SetReadDeadline(d)
	}
}

// Remnants reports traffic still queued on hosted links at termination.
func (t *Transport) Remnants() (int, int64) { return t.sw.Remnants() }

// Close tears down every peer link (best-effort Bye, then the socket).
func (t *Transport) Close() error {
	t.closeOnce.Do(func() {
		for _, pr := range t.peers {
			pr.Close()
		}
	})
	return nil
}
