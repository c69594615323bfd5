// Package proxy provides the communication layer the paper's algorithms
// are written against:
//
//   - Comm.Exchange, a deterministic bulk point-to-point collective: each
//     machine sends every peer exactly one frame, its payloads for that
//     peer inside and empty links included, and the collective completes
//     once a frame from every peer has arrived. All higher-level protocols
//     are built from exchanges. The frames go to every peer anyway, so
//     they also carry a reduce vector (Comm.ExchangeSum): a cluster-wide
//     sum rides on an exchange the protocol already pays for, and AllSum
//     is one exchange of empty frames.
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
	"math/bits"
	"slices"

	"kmgraph/internal/hashing"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/wire"
)

// Out is an outgoing payload addressed to a machine. The exchange copies
// Data into its link's frame, so the caller may reuse it once the call returns.
type Out struct {
	Dst  int
	Data []byte
}

// Comm wraps a machine context with exchange sequencing. All machines must
// execute the same sequence of collective calls (SPMD).
type Comm struct {
	ctx   *kmachine.Ctx
	seq   uint64
	early []kmachine.Message // frames of later exchanges, in arrival order

	// Reused per-exchange scratch, k-sized but for order and recv.
	ends   []int              // per destination: payload count, then where its bucket of order ends
	sizes  []int              // per destination: its entries' bytes
	order  []int32            // out's indices, bucketed by destination
	frames []kmachine.Message // this exchange's frame from each source; nil Data = not yet here
	recv   []kmachine.Message // the frames' payloads, by (source, send order): what Exchange returns
}

// NewComm returns a collective communicator over ctx.
func NewComm(ctx *kmachine.Ctx) *Comm {
	k := ctx.K()
	return &Comm{
		ctx:    ctx,
		ends:   make([]int, k),
		sizes:  make([]int, k),
		frames: make([]kmachine.Message, k),
	}
}

// Ctx returns the underlying machine context.
func (c *Comm) Ctx() *kmachine.Ctx { return c.ctx }

// Arena returns the machine's message arena; collective payloads built on
// it avoid a heap allocation per message.
func (c *Comm) Arena() *wire.Arena { return c.ctx.Arena() }

// Exchange performs one collective all-to-all delivery: this machine sends
// the given messages; the call returns every message addressed to this
// machine in this collective, sorted by (source, send order). The round
// cost is driven by the largest per-link traffic, which is how Lemma 1's
// load-balancing manifests. A link carries exactly one frame per exchange,
// its payloads inside, and an empty link gets one too (so receivers know
// when they are done): an exchange costs at least one round, and
// k(k-1) frames cluster-wide plus one self frame per machine that sends
// itself anything.
//
// The returned slice is reused by the next collective call on c; consume
// it before then (retaining individual messages' Data bytes is fine).
func (c *Comm) Exchange(out []Out) []kmachine.Message {
	return c.ExchangeSum(out, nil)
}

// ExchangeSum is Exchange with a reduce vector riding on the frames. The
// frame to each peer is uvarint(seq), uvarint(count), this machine's
// len(sum) words as uvarints, then count entries uvarint(len) ‖ bytes in
// send order; the payloads a machine sends itself travel as one self
// frame without words, sent only when there are any. The words received
// are folded into sum in place, so on return sum[i] is the cluster-wide
// total of every machine's sum[i]. All machines must pass vectors of the
// same length; a frame with any other number of words is refused, as are
// a stale seq and a second frame from one source in one exchange. A sum
// therefore costs no round beyond the exchange it rides on.
func (c *Comm) ExchangeSum(out []Out, sum []uint64) []kmachine.Message {
	k, me := c.ctx.K(), c.ctx.ID()
	seq := c.seq
	c.seq++

	// Bucket out's indices by destination (a stable counting sort), then
	// build each link's frame in the arena, copying each payload once.
	ends, sizes := c.ends, c.sizes
	clear(ends)
	clear(sizes)
	for _, o := range out {
		ends[o.Dst]++
		sizes[o.Dst] += uvarintLen(uint64(len(o.Data))) + len(o.Data)
	}
	at := 0
	for d, n := range ends {
		ends[d], at = at, at+n
	}
	order := slices.Grow(c.order[:0], len(out))[:len(out)]
	for i, o := range out {
		order[ends[o.Dst]] = int32(i)
		ends[o.Dst]++
	}
	c.order = order
	a, need, from := c.ctx.Arena(), k-1, 0
	for d, end := range ends {
		idx, words := order[from:end], sum
		from = end
		if d == me {
			if len(idx) == 0 {
				continue
			}
			need, words = k, nil
		}
		buf := a.Grab(20 + 10*len(words) + sizes[d])
		buf = binary.AppendUvarint(binary.AppendUvarint(buf, seq), uint64(len(idx)))
		for _, x := range words {
			buf = binary.AppendUvarint(buf, x)
		}
		for _, i := range idx {
			buf = wire.AppendBytes(buf, out[i].Data)
		}
		c.ctx.Send(d, a.Commit(buf))
	}

	frames := c.frames
	clear(frames)
	// Frames that arrived during earlier exchanges go first; arrive keeps
	// the ones still early, compacting c.early in place.
	early := c.early
	c.early = early[:0]
	for _, m := range early {
		need -= c.arrive(m, seq)
	}
	for need > 0 {
		for _, m := range c.ctx.Step() {
			need -= c.arrive(m, seq)
		}
	}
	recv, err := c.recv[:0], error(nil)
	for src, f := range frames {
		words := sum
		if src == me {
			words = nil
		}
		if f.Data != nil {
			if recv, err = readFrame(f.Data, words, src, me, recv); err != nil {
				panic(err)
			}
		}
	}
	c.recv = recv
	return recv
}

// arrive files one frame received during exchange seq: a later exchange's
// is kept for it, this exchange's takes its source's slot. It returns the
// number of slots filled, and panics on a frame no exchange can take.
func (c *Comm) arrive(m kmachine.Message, seq uint64) int {
	mseq, n := uvarint(m.Data)
	switch {
	case n <= 0:
		panic(fmt.Errorf("proxy: bad frame from %d", m.Src))
	case mseq > seq:
		c.early = append(c.early, m)
		return 0
	case mseq < seq:
		panic(fmt.Errorf("proxy: stale frame seq %d < %d from %d", mseq, seq, m.Src))
	case c.frames[m.Src].Data != nil:
		panic(fmt.Errorf("proxy: second frame from %d in exchange %d", m.Src, seq))
	}
	c.frames[m.Src] = m
	return 1
}

// readFrame is the reader of a peer's bytes: it parses one frame from src
// — uvarint(seq), uvarint(count), len(sum) words, count entries — adds the
// words into sum and appends the entries to recv as messages from src to
// dst, each Data aliasing the frame. It refuses a frame whose words or
// entries are short or run past its end, any bytes after the last entry,
// and a uvarint not in its shortest form, so an accepted frame is the one
// encoding of what it carries. It allocates no more than recv's growth by
// at most one message per frame byte.
func readFrame(frame []byte, sum []uint64, src, dst int, recv []kmachine.Message) ([]kmachine.Message, error) {
	b, ok := frame, true
	next := func() uint64 {
		x, n := uvarint(b)
		if ok = ok && n > 0; ok {
			b = b[n:]
		}
		return x
	}
	next() // seq, checked on arrival
	count := next()
	for i := range sum {
		sum[i] += next()
	}
	for ok = ok && count <= uint64(len(b)); ok && count > 0; count-- {
		if l := next(); ok && l <= uint64(len(b)) {
			recv = append(recv, kmachine.Message{Src: src, Dst: dst, Data: b[:l:l]})
			b = b[l:]
		} else {
			ok = false
		}
	}
	if !ok || len(b) != 0 {
		return recv, fmt.Errorf("proxy: bad frame from %d", src)
	}
	return recv, nil
}

// uvarint decodes a uvarint from the front of b in its shortest form: the
// value and its length, or n <= 0 where b holds none (truncated, overflowing
// or padded with a zero continuation byte).
func uvarint(b []byte) (x uint64, n int) {
	x, n = binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -1
	}
	return x, n
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

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
		// Relays are the k-1 machines after root, cyclically; chunk i goes to the i-th.
		per := (len(data) + k - 2) / (k - 1)
		for i := 0; i < k-1; i++ {
			d := (root + 1 + i) % k
			lo, hi := min(i*per, len(data)), min((i+1)*per, len(data))
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
// exchange of empty frames.
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
