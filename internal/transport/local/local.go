// Package local is the in-process transport backend: all k machines run
// in one process and every round's traffic moves through the shared link
// simulator directly, with no serialization. It is the bit-exact
// reference backend — the TCP backend must produce identical Metrics on
// identical inputs. It owns no goroutine, socket or file: a cluster built
// on it that is simply dropped leaks nothing.
package local

import "kmgraph/internal/transport"

// Local implements transport.Transport for a single-process cluster
// hosting machines [0, K).
type Local struct {
	sw      *transport.Switch
	k       int
	running int
	inboxes [][]transport.Message
}

// New returns a local transport over all k machines, accounting into met.
func New(p transport.Params, met *transport.Metrics) *Local {
	return &Local{
		sw:      transport.NewSwitch(p, 0, p.K, met, 1),
		k:       p.K,
		running: p.K,
		inboxes: make([][]transport.Message, p.K),
	}
}

// Hosted returns [0, K): the local backend runs every machine.
func (l *Local) Hosted() (int, int) { return 0, l.k }

// Round stages the barrier's messages, advances every active link by one
// bandwidth quantum, and reports the deliveries. With no peers there is
// no waiting: the engine's own barrier over its machines is the round
// barrier.
func (l *Local) Round(in *transport.RoundIn, out *transport.RoundOut) error {
	for _, m := range in.Msgs {
		l.sw.Enqueue(m)
	}
	l.running -= in.DoneDelta
	out.Running = l.running
	if l.running == 0 {
		l.running = l.k // the run is over; the next barrier opens the next
		out.Advanced = false
		out.Inboxes = nil
		return nil
	}
	l.sw.TransmitRound()
	for d := 0; d < l.k; d++ {
		l.inboxes[d] = l.sw.Inbox(d)
	}
	out.Advanced = true
	out.Inboxes = l.inboxes
	return nil
}

// Remnants reports traffic still queued at termination.
func (l *Local) Remnants() (int, int64) { return l.sw.Remnants() }

// Close is a no-op for the in-process backend.
func (l *Local) Close() error { return nil }
