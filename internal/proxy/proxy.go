// Package proxy provides the communication layer the paper's algorithms
// are written against:
//
//   - Comm.Exchange, a deterministic bulk point-to-point collective
//     (machines announce per-destination message counts, then stream
//     payloads; the collective completes when every announced message has
//     arrived). All higher-level protocols are built from exchanges.
//     The count frames go to every peer anyway, so they also carry a
//     reduce vector (Comm.ExchangeSum): a cluster-wide sum rides on an
//     exchange the protocol already pays for, and AllSum is one exchange
//     of count frames alone.
//   - RelayBroadcast, the paper's §2.2 routing trick: the source splits its
//     payload into k-1 chunks, sends chunk i across link i, and every
//     machine rebroadcasts its chunk — distributing b bits to all machines
//     in O(b/(k·B)) rounds instead of O(b/B).
//   - Shared randomness (Setup/SetupBits) and the derived proxy-selection
//     hash h_{j,ρ}, component ranks, and per-phase sketch seeds.
//
// Communication via random proxy machines (Lemma 1) is then simply: send
// each component part's message to Shared.ProxyOf(phase, iter, label) in
// one Exchange.
package proxy

import (
	"encoding/binary"
	"fmt"
	"slices"

	"kmgraph/internal/hashing"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/wire"
)

// Out is an outgoing payload addressed to a machine.
//
// Framed marks a payload built with FrameHeadroom reserved bytes in front
// (see Comm.FramedPayload): Exchange stamps the frame header into the
// reservation instead of copying the whole payload into a fresh frame —
// the zero-copy path for large messages.
type Out struct {
	Dst    int
	Data   []byte
	Framed bool
}

// FrameHeadroom is the reservation, in bytes, preceding a Framed payload:
// room for the largest uvarint sequence number plus the kind byte.
const FrameHeadroom = 11

// FramedPayload interns body into the arena with FrameHeadroom reserved
// bytes in front and returns the payload for an Out with Framed set. The
// body bytes are stable; the reservation is stamped by Exchange at send
// time.
func (c *Comm) FramedPayload(body []byte) []byte {
	var headroom [FrameHeadroom]byte
	a := c.ctx.Arena()
	buf := a.Grab(FrameHeadroom + len(body))
	buf = append(buf, headroom[:]...)
	buf = append(buf, body...)
	return a.Commit(buf)
}

const (
	kindCount   = 0
	kindPayload = 1
)

// Comm wraps a machine context with exchange sequencing. All machines must
// execute the same sequence of collective calls (SPMD).
type Comm struct {
	ctx     *kmachine.Ctx
	seq     uint64
	pending map[uint64][]kmachine.Message

	// Reused per-collective scratch (k-sized, zeroed each Exchange).
	counts   []uint64
	expected []int64
	got      []int64
	recvBuf  []kmachine.Message // arrivals, in arrival order
	sortBuf  []kmachine.Message // the same, by source: what Exchange returns
}

// NewComm returns a collective communicator over ctx.
func NewComm(ctx *kmachine.Ctx) *Comm {
	k := ctx.K()
	return &Comm{
		ctx:      ctx,
		pending:  make(map[uint64][]kmachine.Message),
		counts:   make([]uint64, k),
		expected: make([]int64, k),
		got:      make([]int64, k),
	}
}

// Ctx returns the underlying machine context.
func (c *Comm) Ctx() *kmachine.Ctx { return c.ctx }

// Arena returns the machine's message arena; collective payloads built on
// it avoid a heap allocation per message.
func (c *Comm) Arena() *wire.Arena { return c.ctx.Arena() }

// frame seals (seq, kind, payload) into an arena-backed message.
func (c *Comm) frame(seq uint64, kind byte, payload []byte) []byte {
	a := c.ctx.Arena()
	buf := a.Grab(len(payload) + 11)
	buf = wire.AppendUvarint(buf, seq)
	buf = append(buf, kind)
	buf = append(buf, payload...)
	return a.Commit(buf)
}

// Exchange performs one collective all-to-all delivery: this machine sends
// the given messages; the call returns every message addressed to this
// machine in this collective, sorted by (source, send order). The round
// cost is driven by the largest per-link traffic, which is how Lemma 1's
// load-balancing manifests. Every machine announces its per-peer message
// count in a count frame on every link, empty ones included, so an
// exchange costs at least one round.
//
// The returned slice is reused by the next collective call on c; consume
// it before then (retaining individual messages' Data bytes is fine).
func (c *Comm) Exchange(out []Out) []kmachine.Message {
	return c.ExchangeSum(out, nil)
}

// ExchangeSum is Exchange with a reduce vector riding on the count frames:
// each frame's body is uvarint(count) followed by len(sum) uvarint words,
// this machine's contribution. The words received are folded into sum in
// place, so on return sum[i] is the cluster-wide total of every machine's
// sum[i]. All machines must pass vectors of the same length; a count frame
// with any other number of words is refused. A sum therefore costs no
// round beyond the exchange it rides on.
func (c *Comm) ExchangeSum(out []Out, sum []uint64) []kmachine.Message {
	k := c.ctx.K()
	seq := c.seq
	c.seq++

	a := c.ctx.Arena()
	counts := c.counts
	for i := range counts {
		counts[i] = 0
	}
	for _, o := range out {
		counts[o.Dst]++
	}
	// Announce counts to every machine (including zero counts, so
	// receivers know when they are done).
	for d := 0; d < k; d++ {
		if d == c.ctx.ID() {
			continue
		}
		buf := a.Grab(21 + 10*len(sum))
		buf = wire.AppendUvarint(buf, seq)
		buf = append(buf, kindCount)
		buf = wire.AppendUvarint(buf, counts[d])
		for _, x := range sum {
			buf = wire.AppendUvarint(buf, x)
		}
		c.ctx.Send(d, a.Commit(buf))
	}
	for _, o := range out {
		if o.Framed {
			// Stamp the header right-aligned into the reservation; payloads
			// shared by several Outs get identical stamps, so re-stamping is
			// idempotent.
			var hdr [FrameHeadroom]byte
			hn := binary.PutUvarint(hdr[:], seq)
			start := FrameHeadroom - hn - 1
			copy(o.Data[start:], hdr[:hn])
			o.Data[FrameHeadroom-1] = kindPayload
			c.ctx.Send(o.Dst, o.Data[start:])
			continue
		}
		c.ctx.Send(o.Dst, c.frame(seq, kindPayload, o.Data))
	}

	expected := c.expected
	for i := range expected {
		expected[i] = -1
	}
	expected[c.ctx.ID()] = int64(counts[c.ctx.ID()])
	got := c.got
	for i := range got {
		got[i] = 0
	}
	recv := c.recvBuf[:0]

	process := func(m kmachine.Message) error {
		r := wire.NewReader(m.Data)
		mseq := r.Uvarint()
		if r.Err() != nil {
			return fmt.Errorf("proxy: bad frame from %d", m.Src)
		}
		if mseq != seq {
			if mseq < seq {
				return fmt.Errorf("proxy: stale frame seq %d < %d from %d", mseq, seq, m.Src)
			}
			c.pending[mseq] = append(c.pending[mseq], m)
			return nil
		}
		if r.Len() < 1 {
			return fmt.Errorf("proxy: empty frame from %d", m.Src)
		}
		kind := m.Data[len(m.Data)-r.Len()]
		body := m.Data[len(m.Data)-r.Len()+1:]
		switch kind {
		case kindCount:
			rr := wire.NewReader(body)
			expected[m.Src] = int64(rr.Uvarint())
			for i := range sum {
				sum[i] += rr.Uvarint()
			}
			if rr.Done() != nil {
				return fmt.Errorf("proxy: bad count frame from %d", m.Src)
			}
		case kindPayload:
			recv = append(recv, kmachine.Message{Src: m.Src, Dst: m.Dst, Data: body})
			got[m.Src]++
		default:
			return fmt.Errorf("proxy: unknown frame kind %d", kind)
		}
		return nil
	}

	done := func() bool {
		for i := 0; i < k; i++ {
			if expected[i] < 0 || got[i] < expected[i] {
				return false
			}
		}
		return true
	}

	// Drain frames buffered by earlier collectives first.
	if buf, ok := c.pending[seq]; ok {
		delete(c.pending, seq)
		for _, m := range buf {
			if err := process(m); err != nil {
				panic(err)
			}
		}
	}
	for !done() {
		for _, m := range c.ctx.Step() {
			if err := process(m); err != nil {
				panic(err)
			}
		}
	}
	// Stable counting sort by source: got already tallies the arrivals per
	// source, so its prefix sums are each source's first slot in the result.
	at := int64(0)
	for i, n := range got {
		got[i], at = at, at+n
	}
	sorted := slices.Grow(c.sortBuf[:0], len(recv))[:len(recv)]
	for _, m := range recv {
		sorted[got[m.Src]] = m
		got[m.Src]++
	}
	c.recvBuf, c.sortBuf = recv, sorted
	return sorted
}

// GatherTo sends data from every machine to root; root receives all k
// blobs indexed by source machine, others receive nil.
func (c *Comm) GatherTo(root int, data []byte) [][]byte {
	recv := c.Exchange([]Out{{Dst: root, Data: data}})
	if c.ctx.ID() != root {
		return nil
	}
	out := make([][]byte, c.ctx.K())
	for _, m := range recv {
		out[m.Src] = m.Data
	}
	return out
}

// RelayBroadcast distributes data from root to all machines using the
// paper's two-phase relay (§2.2): root scatters k-1 chunks, then every
// machine rebroadcasts its chunk. For b bits this costs O(b/(kB)) rounds
// instead of the O(b/B) of a direct broadcast. Everyone returns the data.
func (c *Comm) RelayBroadcast(root int, data []byte) []byte {
	k := c.ctx.K()
	if k == 1 {
		c.Exchange(nil)
		c.Exchange(nil)
		return data
	}
	// Phase 1: scatter chunk i to relay machine i.
	var out []Out
	if c.ctx.ID() == root {
		// Relays are all machines except root; chunk r goes to relay r.
		relays := make([]int, 0, k-1)
		for d := 0; d < k; d++ {
			if d != root {
				relays = append(relays, d)
			}
		}
		per := (len(data) + len(relays) - 1) / len(relays)
		for i, d := range relays {
			lo := i * per
			hi := lo + per
			if lo > len(data) {
				lo = len(data)
			}
			if hi > len(data) {
				hi = len(data)
			}
			a := c.ctx.Arena()
			body := a.Grab(hi - lo + 30)
			body = wire.AppendUvarint(body, uint64(i))
			body = wire.AppendUvarint(body, uint64(len(data)))
			body = wire.AppendBytes(body, data[lo:hi])
			out = append(out, Out{Dst: d, Data: a.Commit(body)})
		}
	}
	recv := c.Exchange(out)

	// Phase 2: every relay rebroadcasts its chunk.
	out = nil
	var myChunk []byte
	if c.ctx.ID() != root && len(recv) == 1 {
		myChunk = recv[0].Data
		for d := 0; d < k; d++ {
			if d != c.ctx.ID() && d != root {
				out = append(out, Out{Dst: d, Data: myChunk})
			}
		}
	}
	recv = c.Exchange(out)
	if c.ctx.ID() == root {
		return data
	}

	// Reassemble: my own chunk plus everyone else's.
	chunks := make(map[int][]byte)
	var total uint64
	add := func(body []byte) {
		r := wire.NewReader(body)
		idx := int(r.Uvarint())
		total = r.Uvarint()
		chunk := r.Bytes()
		if r.Done() != nil {
			panic("proxy: bad relay chunk")
		}
		chunks[idx] = chunk
	}
	if myChunk != nil {
		add(myChunk)
	}
	for _, m := range recv {
		add(m.Data)
	}
	outBuf := make([]byte, 0, total)
	for i := 0; len(outBuf) < int(total); i++ {
		ch, ok := chunks[i]
		if !ok {
			panic("proxy: missing relay chunk")
		}
		outBuf = append(outBuf, ch...)
	}
	return outBuf[:total]
}

// AllSum returns the sum of x over all machines, on every machine: one
// exchange of count frames alone.
func (c *Comm) AllSum(x uint64) uint64 {
	sum := [1]uint64{x}
	c.ExchangeSum(nil, sum[:])
	return sum[0]
}

// Shared is the shared randomness established by Setup: a seed all
// machines agree on, from which proxy hashes h_{j,ρ}, DRR ranks, and
// per-phase sketch matrices are derived (DESIGN.md substitution #2; the
// faithful bulk-bits path is SetupBits).
type Shared struct {
	seed uint64
}

// Setup has machine 0 draw 8 random bytes and relay-broadcast them; every
// machine returns an identical Shared.
func Setup(c *Comm) *Shared {
	var data []byte
	if c.ctx.ID() == 0 {
		data = wire.AppendU64(nil, c.ctx.Rand().Uint64())
	}
	data = c.RelayBroadcast(0, data)
	r := wire.NewReader(data)
	return &Shared{seed: r.U64()}
}

// SetupBits distributes nBytes of true random bits from machine 0 to all
// machines via the relay broadcast — the paper's faithful construction for
// building d-wise independent hash functions from Θ(d log n) shared bits.
// Every machine returns the identical byte string.
func SetupBits(c *Comm, nBytes int) []byte {
	var data []byte
	if c.ctx.ID() == 0 {
		data = make([]byte, nBytes)
		for i := range data {
			data[i] = byte(c.ctx.Rand().Intn(256))
		}
	}
	return c.RelayBroadcast(0, data)
}

// NewSharedFromSeed builds a Shared directly (for tests).
func NewSharedFromSeed(seed uint64) *Shared { return &Shared{seed: seed} }

// Seed returns the shared seed.
func (s *Shared) Seed() uint64 { return s.seed }

// ProxyOf returns the proxy machine h_{phase,iter}(label) in [0, k) for a
// component label at a given (phase, iteration). Fresh (phase, iter) pairs
// give fresh independent assignments, as Lemma 5 requires.
func (s *Shared) ProxyOf(phase, iter int, label uint64, k int) int {
	return hashing.RangeOf(hashing.Hash4(s.seed^0x9909, uint64(phase), uint64(iter), label), k)
}

// Rank returns the DRR rank of a component for a phase (§2.5). Distinct
// labels yield independent uniform 64-bit ranks, so ties are negligible —
// the Θ(log n)-bit accuracy remark of the paper.
func (s *Shared) Rank(phase int, label uint64) uint64 {
	return hashing.Hash3(s.seed^0x4a4b, uint64(phase), label)
}

// SketchSeed derives the shared seed of the phase/iteration sketch matrix
// L_j (a fresh linear projection per phase, §2.3).
func (s *Shared) SketchSeed(phase, iter int) uint64 {
	return hashing.Hash3(s.seed^0x5e7c, uint64(phase), uint64(iter))
}

// BankSeed derives the shared seed of persistent sketch bank b: the
// session-long linear projections the dynamic subsystem maintains
// incrementally under edge churn (static runs instead draw fresh per-phase
// seeds via SketchSeed). The namespace is disjoint from SketchSeed's.
func (s *Shared) BankSeed(b int) uint64 {
	return hashing.Hash3(s.seed^0xd1ba9c, 0x5e551011, uint64(b))
}
