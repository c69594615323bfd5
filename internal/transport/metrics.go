package transport

import (
	"fmt"

	"kmgraph/internal/wire"
)

// Metrics aggregates the cost of a run. Rounds is the model's complexity
// measure; the byte/bit counters support the load-balancing (Lemma 1) and
// lower-bound (Theorem 5) experiments. The engine exposes this type as
// kmachine.Metrics (an alias).
//
// Every counter except Rounds and the Dropped pair is owned by exactly one
// destination's link simulator, so a distributed run accumulates disjoint
// partial Metrics per process and MergeMetrics reassembles the exact
// accounting a single-process run would have produced.
type Metrics struct {
	// Rounds is the number of communication rounds executed.
	Rounds int
	// Messages is the number of messages delivered.
	Messages int64
	// PayloadBytes is the total payload delivered (headers excluded).
	PayloadBytes int64
	// LinkBits[s][d] is the total bits transmitted on the directed link
	// s -> d (payload + overhead), excluding free self-delivery.
	LinkBits [][]int64
	// SentMsgs / RecvMsgs count messages per machine.
	SentMsgs, RecvMsgs []int64
	// MaxLinkBits is the maximum over directed links of LinkBits.
	MaxLinkBits int64
	// DroppedMessages / DroppedBytes count traffic addressed to machines
	// that had already halted, or still queued at termination. A correct
	// protocol leaves these at zero.
	DroppedMessages int
	DroppedBytes    int64
}

// NewMetrics returns a zeroed Metrics for a k-machine run.
func NewMetrics(k int) *Metrics {
	lb := make([][]int64, k)
	for i := range lb {
		lb[i] = make([]int64, k)
	}
	return &Metrics{
		LinkBits: lb,
		SentMsgs: make([]int64, k),
		RecvMsgs: make([]int64, k),
	}
}

// Snapshot returns a deep copy of the metrics with MaxLinkBits resolved,
// safe to retain after the run advances.
func (m *Metrics) Snapshot() Metrics {
	cp := *m
	cp.LinkBits = make([][]int64, len(m.LinkBits))
	for i, row := range m.LinkBits {
		cp.LinkBits[i] = append([]int64(nil), row...)
	}
	cp.SentMsgs = append([]int64(nil), m.SentMsgs...)
	cp.RecvMsgs = append([]int64(nil), m.RecvMsgs...)
	cp.MaxLinkBits = 0
	cp.Finish()
	return cp
}

// Finish resolves MaxLinkBits from the LinkBits matrix.
func (m *Metrics) Finish() {
	for _, row := range m.LinkBits {
		for _, b := range row {
			if b > m.MaxLinkBits {
				m.MaxLinkBits = b
			}
		}
	}
}

// TotalBits returns the total bits transmitted across all links.
func (m *Metrics) TotalBits() int64 {
	var t int64
	for _, row := range m.LinkBits {
		for _, b := range row {
			t += b
		}
	}
	return t
}

// CutBits returns the bits that crossed the cut between machines with
// inA[i] true and the rest, in both directions. This is the quantity the
// Theorem 5 simulation argument charges to the two-party protocol.
func (m *Metrics) CutBits(inA []bool) int64 {
	var t int64
	for s, row := range m.LinkBits {
		for d, b := range row {
			if inA[s] != inA[d] {
				t += b
			}
		}
	}
	return t
}

// MeanLinkBits returns the average load over the k(k-1) directed links.
func (m *Metrics) MeanLinkBits() float64 {
	k := len(m.LinkBits)
	if k < 2 {
		return 0
	}
	return float64(m.TotalBits()) / float64(k*(k-1))
}

// String summarizes the metrics.
func (m *Metrics) String() string {
	return fmt.Sprintf("rounds=%d msgs=%d payload=%dB maxLink=%db dropped=%d",
		m.Rounds, m.Messages, m.PayloadBytes, m.MaxLinkBits, m.DroppedMessages)
}

// AppendMetrics encodes m (a k-machine accounting, possibly a partial one
// from a distributed worker) onto b in wire form.
func AppendMetrics(b []byte, m *Metrics) []byte {
	b = wire.AppendInts(b, len(m.SentMsgs), m.Rounds, int(m.Messages), int(m.PayloadBytes), m.DroppedMessages,
		int(m.DroppedBytes))
	for _, row := range m.rows() {
		for _, v := range row {
			b = wire.AppendVarint(b, v)
		}
	}
	return b
}

// ReadMetrics decodes a Metrics encoded by AppendMetrics from r.
func ReadMetrics(r *wire.Reader) (*Metrics, error) {
	var k int
	if r.Ints(&k); r.Err() != nil {
		return nil, r.Err()
	}
	const maxK = 1 << 16
	// The k×k link matrix and the two per-machine counters take at least
	// one byte per entry, so a k the remaining bytes cannot back is
	// corrupt — and must not size the allocation.
	if k < 0 || k > maxK || k*(k+2) > r.Len() {
		return nil, fmt.Errorf("transport: metrics k=%d out of range", k)
	}
	m := NewMetrics(k)
	var msgs, payload, dropped int
	r.Ints(&m.Rounds, &msgs, &payload, &m.DroppedMessages, &dropped)
	m.Messages, m.PayloadBytes, m.DroppedBytes = int64(msgs), int64(payload), int64(dropped)
	for _, row := range m.rows() {
		for i := range row {
			row[i] = r.Varint()
		}
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	m.Finish()
	return m, nil
}

// rows lists the per-link and per-machine counters: the LinkBits rows, then
// SentMsgs and RecvMsgs.
func (m *Metrics) rows() [][]int64 {
	return append(append(make([][]int64, 0, len(m.LinkBits)+2), m.LinkBits...), m.SentMsgs, m.RecvMsgs)
}

// MergeMetrics folds the partial accounting src (from one worker's hosted
// destinations) into dst. Rounds must agree across partials — every
// participant counts the same global barriers — so a mismatch is reported
// as an error rather than silently averaged. Call Finish on dst after the
// last merge.
func MergeMetrics(dst, src *Metrics) error {
	if len(dst.SentMsgs) != len(src.SentMsgs) {
		return fmt.Errorf("transport: merging metrics with k=%d into k=%d",
			len(src.SentMsgs), len(dst.SentMsgs))
	}
	if dst.Rounds != 0 && src.Rounds != dst.Rounds {
		return fmt.Errorf("transport: round counts diverged across workers: %d vs %d",
			src.Rounds, dst.Rounds)
	}
	if src.Rounds > dst.Rounds {
		dst.Rounds = src.Rounds
	}
	dst.add(src)
	return nil
}

// add folds every counter of src except Rounds into dst (same k).
func (dst *Metrics) add(src *Metrics) {
	dst.Messages += src.Messages
	dst.PayloadBytes += src.PayloadBytes
	dst.DroppedMessages += src.DroppedMessages
	dst.DroppedBytes += src.DroppedBytes
	for s := range src.LinkBits {
		for d, v := range src.LinkBits[s] {
			dst.LinkBits[s][d] += v
		}
	}
	for i, v := range src.SentMsgs {
		dst.SentMsgs[i] += v
	}
	for i, v := range src.RecvMsgs {
		dst.RecvMsgs[i] += v
	}
}
