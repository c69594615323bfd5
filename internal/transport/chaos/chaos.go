// Package chaos is the fault-injection transport backend: it wraps any
// transport.Transport and perturbs its rounds according to a
// deterministic, seeded plan — dropped messages, delayed messages,
// severed links, and whole-participant crashes at a chosen round. It is
// the robustness analog of the golden-metrics tests: every failure mode
// a distributed run can hit is reproducible bit-for-bit in a unit test
// or CI job, because every fault decision is a pure function of
// (seed, round, src, dst, message ordinal) — never of wall-clock time
// or goroutine scheduling.
//
// A chaos transport with the zero Plan is a pure pass-through: results
// and Metrics are bit-identical to the wrapped backend's (pinned by the
// golden equality test), so the wrapper itself provably adds no
// behavioral drift.
package chaos

import (
	"errors"
	"fmt"
	"sort"

	"kmgraph/internal/hashing"
	"kmgraph/internal/transport"
)

// Action is the kind of fault applied to a message or link.
type Action uint8

const (
	// ActDrop silently discards the message.
	ActDrop Action = iota + 1
	// ActDelay holds the message for a number of barriers (one, for a
	// link fault), then injects it as if freshly staged.
	ActDelay
	// ActSever kills the directed link: the first barrier at or after
	// FromRound that stages a message on it fails with a LinkDownError,
	// exactly as a dead TCP peer would surface.
	ActSever
)

func (a Action) String() string {
	switch a {
	case ActDrop:
		return "drop"
	case ActDelay:
		return "delay"
	case ActSever:
		return "sever"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// LinkFault is one scheduled per-link fault.
type LinkFault struct {
	// Src, Dst name the directed link (-1 matches any machine).
	Src, Dst int
	// FromRound is the first barrier (1-based, counting Round calls) the
	// fault applies to; 0 means from the start.
	FromRound uint64
	// Action is what happens to matching messages.
	Action Action
}

func (f *LinkFault) matches(round uint64, src, dst int) bool {
	if f.FromRound > 0 && round < f.FromRound {
		return false
	}
	if f.Src >= 0 && f.Src != src {
		return false
	}
	if f.Dst >= 0 && f.Dst != dst {
		return false
	}
	return true
}

// Plan is a deterministic fault schedule. The zero value injects
// nothing. Probabilistic faults are decided by hashing
// (Seed, round, src, dst, ordinal), so two runs with the same plan see
// exactly the same faults regardless of timing.
type Plan struct {
	// Seed drives the probabilistic coins.
	Seed int64
	// DropProb drops each staged message independently with this
	// probability.
	DropProb float64
	// DelayProb delays each surviving message with this probability by
	// 1 + (hash mod MaxDelayRounds) barriers.
	DelayProb float64
	// MaxDelayRounds bounds a probabilistic delay (default 4).
	MaxDelayRounds int
	// CrashAtRound makes Round fail with a LinkDownError at that barrier
	// (1-based), simulating this participant observing a peer crash; 0
	// disables. The engine then runs its dead-transport drain path.
	CrashAtRound uint64
	// Links are explicit per-link schedules, applied before the
	// probabilistic coins.
	Links []LinkFault
}

// Fault is one applied fault, journaled for replay comparison.
type Fault struct {
	Round    uint64
	Src, Dst int
	Action   Action
	Delay    int // rounds held, for ActDelay
}

func (f Fault) String() string {
	return fmt.Sprintf("r%d %d->%d %s", f.Round, f.Src, f.Dst, f.Action)
}

// Transport wraps an inner transport and applies the plan's faults to
// every Round. Like every transport, it is driven by a single engine
// goroutine; Round is never called concurrently.
type Transport struct {
	inner transport.Transport
	plan  Plan
	round uint64 // barriers seen (1-based during Round)

	delayed []delayedMsg
	staged  []transport.Message // scratch for the filtered round
	journal []Fault
	flight  *transport.FlightRecorder
	crashed bool
}

type delayedMsg struct {
	due uint64 // barrier at which the message re-enters
	msg transport.Message
}

// New wraps inner with the plan. The wrapper owns inner: Close closes it.
func New(inner transport.Transport, plan Plan) *Transport {
	if plan.MaxDelayRounds <= 0 {
		plan.MaxDelayRounds = 4
	}
	return &Transport{inner: inner, plan: plan, flight: transport.NewFlightRecorder(0)}
}

// Flight returns the chaos layer's flight recorder: the last K rounds
// of staged traffic, so injected crashes carry the same post-mortem a
// real dead link would.
func (t *Transport) Flight() *transport.FlightRecorder { return t.flight }

// fail records a terminal flight entry and attaches the snapshot to the
// injected link-down error.
func (t *Transport) fail(ld *transport.LinkDownError) error {
	t.flight.RecordError(t.round, ld)
	ld.Flight = t.flight.Snapshot()
	return ld
}

// record appends one flight entry for the traffic handed to the inner
// backend this round (the chaos layer sees staged messages, not framed
// links, so it records one aggregate pseudo-link).
func (t *Transport) record(msgs []transport.Message) {
	var bytes int64
	for _, m := range msgs {
		bytes += int64(len(m.Data))
	}
	t.flight.Record(transport.RoundFlight{Seq: t.round,
		Links: []transport.LinkFlight{{Peer: -1, FramesSent: int64(len(msgs)), BytesSent: bytes}}})
}

// wrap attaches our snapshot to an inner link-down error that carries
// none (the local backend, for one, has no recorder of its own).
func (t *Transport) wrap(err error) error {
	if err == nil {
		return nil
	}
	var ld *transport.LinkDownError
	if errors.As(err, &ld) && ld.Flight == nil {
		ld.Flight = t.flight.Snapshot()
	}
	return err
}

// Hosted returns the wrapped transport's machine range.
func (t *Transport) Hosted() (int, int) { return t.inner.Hosted() }

// Remnants reports the wrapped transport's queued remnants plus any
// messages still held by the chaos layer at termination.
func (t *Transport) Remnants() (int, int64) {
	n, b := t.inner.Remnants()
	for _, d := range t.delayed {
		n++
		b += int64(len(d.msg.Data))
	}
	return n, b
}

// Close closes the wrapped transport.
func (t *Transport) Close() error { return t.inner.Close() }

// coin returns a deterministic uniform value in [0,1) for one decision.
func (t *Transport) coin(round uint64, src, dst, ordinal int, salt uint64) float64 {
	h := hashing.Hash4(uint64(t.plan.Seed)^salt, round, uint64(src)<<32|uint64(uint32(dst)), uint64(ordinal))
	return float64(h>>11) / float64(1<<53)
}

const (
	saltDrop  = 0xd509
	saltDelay = 0xde1a
)

// Round applies the plan to the staged messages, then drives the inner
// transport. A crash-at-round or a traversed severed link fails with a
// structured LinkDownError (reason "chaos") wrapping ErrLinkDown, which
// is exactly what the engine's abort path and the coordinator's retry
// logic see from a real dead peer.
func (t *Transport) Round(in *transport.RoundIn, out *transport.RoundOut) error {
	if t.crashed {
		return &transport.LinkDownError{Peer: -1, Round: t.round, Reason: transport.ReasonChaos,
			Err: fmt.Errorf("chaos: transport already crashed")}
	}
	t.round++
	if t.plan.CrashAtRound > 0 && t.round >= t.plan.CrashAtRound {
		t.crashed = true
		return t.fail(&transport.LinkDownError{Peer: -1, Round: t.round - 1, Reason: transport.ReasonChaos,
			Err: fmt.Errorf("chaos: crash scheduled at round %d", t.plan.CrashAtRound)})
	}
	if t.zeroFault() {
		// Pure pass-through: hand the engine's RoundIn to the inner
		// backend untouched, so the no-fault goldens hold trivially.
		t.record(in.Msgs)
		return t.wrap(t.inner.Round(in, out))
	}

	t.staged = t.staged[:0]
	// Delayed messages whose hold expired re-enter first, in (due,
	// original order) — deterministic because the journal order is.
	if len(t.delayed) > 0 {
		keep := t.delayed[:0]
		for _, d := range t.delayed {
			if d.due <= t.round {
				t.staged = append(t.staged, d.msg)
			} else {
				keep = append(keep, d)
			}
		}
		t.delayed = keep
	}
	for i, m := range in.Msgs {
		if fault, err := t.apply(m, i); err != nil {
			t.crashed = true
			var ld *transport.LinkDownError
			if errors.As(err, &ld) {
				return t.fail(ld)
			}
			return err
		} else if !fault {
			t.staged = append(t.staged, m)
		}
	}

	// The inner transport must not observe the engine's slice; swap in
	// the filtered view with the other barrier fields intact.
	t.record(t.staged)
	filtered := transport.RoundIn{Msgs: t.staged, DoneDelta: in.DoneDelta}
	return t.wrap(t.inner.Round(&filtered, out))
}

// zeroFault reports whether the plan can never perturb a message.
func (t *Transport) zeroFault() bool {
	return t.plan.DropProb == 0 && t.plan.DelayProb == 0 &&
		len(t.plan.Links) == 0 && len(t.delayed) == 0
}

// apply runs one message through the schedule and the coins. It reports
// whether the message was consumed (dropped or delayed), or an error for
// a severed link.
func (t *Transport) apply(m transport.Message, ordinal int) (bool, error) {
	for i := range t.plan.Links {
		f := &t.plan.Links[i]
		if !f.matches(t.round, m.Src, m.Dst) {
			continue
		}
		switch f.Action {
		case ActSever:
			t.journal = append(t.journal, Fault{Round: t.round, Src: m.Src, Dst: m.Dst, Action: ActSever})
			return true, &transport.LinkDownError{Peer: -1, Round: t.round - 1, Reason: transport.ReasonChaos,
				Err: fmt.Errorf("chaos: link %d->%d severed since round %d", m.Src, m.Dst, f.FromRound)}
		case ActDrop:
			t.journal = append(t.journal, Fault{Round: t.round, Src: m.Src, Dst: m.Dst, Action: ActDrop})
			return true, nil
		case ActDelay:
			t.hold(m, 1)
			return true, nil
		}
	}
	if t.plan.DropProb > 0 && t.coin(t.round, m.Src, m.Dst, ordinal, saltDrop) < t.plan.DropProb {
		t.journal = append(t.journal, Fault{Round: t.round, Src: m.Src, Dst: m.Dst, Action: ActDrop})
		return true, nil
	}
	if t.plan.DelayProb > 0 && t.coin(t.round, m.Src, m.Dst, ordinal, saltDelay) < t.plan.DelayProb {
		h := hashing.Hash4(uint64(t.plan.Seed)^0x5e1f, t.round, uint64(m.Src), uint64(ordinal))
		t.hold(m, 1+int(h%uint64(t.plan.MaxDelayRounds)))
		return true, nil
	}
	return false, nil
}

// hold journals and parks a delayed message. Payload bytes are safe to
// retain: the engine's send contract makes them immutable once sent.
func (t *Transport) hold(m transport.Message, rounds int) {
	t.journal = append(t.journal, Fault{Round: t.round, Src: m.Src, Dst: m.Dst, Action: ActDelay, Delay: rounds})
	t.delayed = append(t.delayed, delayedMsg{due: t.round + uint64(rounds), msg: m})
	// Keep re-entry order stable under mixed delays: (due, insertion).
	sort.SliceStable(t.delayed, func(i, j int) bool { return t.delayed[i].due < t.delayed[j].due })
}
