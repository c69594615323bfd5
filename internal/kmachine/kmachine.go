// Package kmachine implements the k-machine model of Klauck et al. (SODA
// 2015) as adopted by the paper (§1.1): k >= 2 machines, pairwise
// interconnected by bidirectional point-to-point links, computing in
// synchronous rounds with O(polylog n) bits of bandwidth per link per
// round. Local computation is free; the only measured cost is rounds.
//
// A machine is its local state plus the rounds it joins. The state — each
// machine's Ctx (round counter, arena, private RNG), the link queues and
// the cumulative Metrics — belongs to the Cluster and outlives any one
// Run; a Run lends every machine a goroutine that executes a Handler in
// SPMD style and returns when all of them have. A one-shot algorithm is a
// cluster that is run once; a residency (internal/resident) is one that is
// run once per command, its own state riding beside the Ctxs. Between runs
// a cluster holds memory and no goroutines.
//
// A machine's input is its Shard (shardload.go): the vertices hashed to it
// with their incident edges, the model's random vertex partition. One
// loader produces it for every host from any edge stream.
//
// During a Run a coordinator enforces the round barrier over channels: a
// machine ends its round by calling Ctx.Step, which submits its outgoing
// messages and blocks until the next round's deliveries arrive. Every
// directed link has a FIFO byte queue drained at BandwidthBits per round; a
// message is delivered in the round its last bit arrives, so oversized
// messages automatically cost multiple rounds, exactly as the model
// prescribes.
//
// The link layer itself lives behind transport.Transport: the coordinator
// stages each barrier's outboxes and hands them to the transport, which
// runs the bandwidth simulation for the destinations this process hosts
// and synchronizes the barrier with any peer processes. The default
// backend (transport/local) hosts all k machines in this process and is
// the bit-exact reference; transport/tcp hosts a contiguous sub-range so
// a cluster spans OS processes connected by real sockets, with identical
// Metrics by construction. Nothing above the transport depends on which
// backend carries the rounds.
//
// The simulation is deterministic: machine code is deterministic given its
// inputs and per-machine seeded RNG, events are processed in machine-ID
// order, and deliveries are sorted by (source, send order).
//
// The round engine is allocation-free in steady state: link queues, event
// slots, and delivery buffers are preallocated and recycled across rounds
// and runs, and an active-link index (a per-destination bitmap of sources
// with bits in flight) makes quiescent links cost zero — sparse-
// communication phases run in O(active links) per round instead of O(k²).
//
//km:roundpure
package kmachine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"kmgraph/internal/hashing"
	"kmgraph/internal/transport"
	"kmgraph/internal/transport/local"
	"kmgraph/internal/wire"
)

// Config parameterizes a cluster.
type Config struct {
	// K is the number of machines (>= 2, or 1 for degenerate tests).
	K int
	// BandwidthBits is the per-round bit budget of each directed link.
	// Use Bandwidth(n) for the standard polylog(n) setting.
	BandwidthBits int
	// MessageOverheadBits is added to every message's transmission cost,
	// modeling addressing/framing headers (Θ(log n) in the model). A
	// proxy exchange sends one message per link, so it is paid per frame.
	MessageOverheadBits int
	// Seed drives all per-machine private randomness.
	Seed int64
	// MaxRounds aborts runaway executions: the cap is on the cluster's
	// cumulative rounds, over all its runs. 0 means the default cap.
	MaxRounds int
}

// Bandwidth returns the standard per-link budget used by the experiments:
// 16·ceil(log2 n)^2 bits per round, a concrete O(polylog n).
func Bandwidth(n int) int {
	l := 1
	for s := 1; s < n; s <<= 1 {
		l++
	}
	return 16 * l * l
}

const defaultMaxRounds = 30_000_000

// Message is a point-to-point message between machines. It is the
// transport layer's message type; the alias keeps every algorithm written
// against kmachine.Message compiling unchanged.
type Message = transport.Message

// Metrics aggregates the cost of a run (an alias for the transport
// layer's accounting type, which distributed runs merge across workers).
type Metrics = transport.Metrics

// TransportMaker builds the cluster's transport backend, once, on the
// first Run: it receives the link parameters and the cluster's metrics
// sink. The default maker builds transport/local.
type TransportMaker func(p transport.Params, met *Metrics) (transport.Transport, error)

// Handler is the per-machine program. It runs on every machine (SPMD);
// ctx.ID distinguishes them. Returning ends the machine's participation
// in this run.
type Handler func(ctx *Ctx) error

// Cluster is a configured k-machine system; Run executes a Handler on it,
// any number of times, one at a time. Whoever builds a cluster Closes it.
type Cluster struct {
	cfg Config
	mk  TransportMaker

	// The machines, built by the first Run and kept until Close: what the
	// next run resumes from.
	tr   transport.Transport
	met  *Metrics
	ctxs []*Ctx // hosted machines, ascending ID
	co   coordinator

	mu      sync.Mutex
	evCh    chan event    // live run's event channel (nil before Run)
	runDone chan struct{} // closed when that run's coordinator exits
}

// New validates cfg and returns a cluster on the in-process reference
// transport.
func New(cfg Config) (*Cluster, error) {
	return NewWithTransport(cfg, nil)
}

// NewWithTransport is New with an explicit transport backend; a nil maker
// selects the in-process reference backend (transport/local). A transport
// that hosts a sub-range [lo, hi) of the machines makes this cluster one
// participant of a multi-process run: only the hosted machines execute
// here, and Result.Outputs is filled for them alone.
func NewWithTransport(cfg Config, mk TransportMaker) (*Cluster, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("kmachine: K = %d, need >= 1", cfg.K)
	}
	if cfg.BandwidthBits < 1 {
		return nil, fmt.Errorf("kmachine: BandwidthBits = %d, need >= 1", cfg.BandwidthBits)
	}
	if cfg.MessageOverheadBits < 0 {
		return nil, fmt.Errorf("kmachine: negative MessageOverheadBits")
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = defaultMaxRounds
	}
	if mk == nil {
		mk = func(p transport.Params, met *Metrics) (transport.Transport, error) {
			return local.New(p, met), nil
		}
	}
	return &Cluster{cfg: cfg, mk: mk}, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Close releases the transport (peer links, for a multi-process cluster;
// the in-process backend owns nothing). Call it once no Run is in flight;
// the cluster must not be run again.
func (c *Cluster) Close() error {
	if c.tr == nil {
		return nil
	}
	return c.tr.Close()
}

// Result carries the cluster's metrics — the running total over every run
// so far, this one included — and each machine's designated output
// variable o_i (§1.1), set via Ctx.SetOutput during this run. In a
// multi-process run the Metrics are this process's partial accounting (its
// hosted destinations) and Outputs is filled only for hosted machines;
// transport.MergeMetrics reassembles the global view.
type Result struct {
	Metrics Metrics
	Outputs []any
}

// ErrMaxRounds is returned when the round cap is exceeded.
var ErrMaxRounds = errors.New("kmachine: exceeded MaxRounds")

type event struct {
	id     int
	outbox []Message
	done   bool
	cancel bool         // injected by the RunContext watcher, not a machine
	snap   chan Metrics // metrics snapshot request (host side, free)
	err    error
	output any
}

type delivery struct {
	msgs []Message
	// spare is a drained outbox backing array handed back to the machine
	// for reuse (the coordinator is done reading it once the delivery that
	// carries it is sent).
	spare []Message
	abort bool
}

// Ctx is a machine's handle to the cluster. It is kept between runs (a
// program may hold on to it) but may only be used inside a Handler.
type Ctx struct {
	id  int
	cfg Config
	rng *rand.Rand

	round  int
	outbox []Message
	evCh   chan<- event // the live run's
	inCh   chan delivery
	output any
	arena  *wire.Arena
}

// ID returns this machine's identifier in [0, K).
func (c *Ctx) ID() int { return c.id }

// K returns the number of machines.
func (c *Ctx) K() int { return c.cfg.K }

// Round returns the number of rounds this machine has completed, over
// every run of the cluster.
func (c *Ctx) Round() int { return c.round }

// Rand returns this machine's private source of randomness (§1.1: each
// machine has access to a private source of true random bits). It is
// built on first use — most machines of most runs never draw from it.
func (c *Ctx) Rand() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(int64(hashing.Hash2(uint64(c.cfg.Seed), uint64(c.id)+0xabcd))))
	}
	return c.rng
}

// Arena returns this machine's message arena: an append-style allocator for
// encoding outgoing message payloads without a heap allocation per message.
// Committed regions are immutable and survive as long as any receiver
// references them, so sending an arena-backed buffer is always safe. The
// arena is private to the machine's goroutine.
func (c *Ctx) Arena() *wire.Arena {
	if c.arena == nil {
		c.arena = wire.NewArena(0)
	}
	return c.arena
}

// SetOutput sets the machine's designated local output variable o_i for
// this run.
func (c *Ctx) SetOutput(v any) { c.output = v }

// Send queues a message to machine dst for transmission starting next
// round. Sending to self is free local bookkeeping delivered next round.
// The engine retains data until delivery; callers must not mutate it after
// sending (encode into Arena buffers to reuse scratch space safely).
//
//km:hotpath
func (c *Ctx) Send(dst int, data []byte) {
	if dst < 0 || dst >= c.cfg.K {
		panic(fmt.Sprintf("kmachine: send to invalid machine %d", dst)) //kmvet:ignore panic path; unreachable for in-range destinations
	}
	c.outbox = append(c.outbox, Message{Src: c.id, Dst: dst, Data: data})
}

// Broadcast sends data to every other machine (K-1 messages).
//
//km:hotpath
func (c *Ctx) Broadcast(data []byte) {
	for d := 0; d < c.cfg.K; d++ {
		if d != c.id {
			c.Send(d, data)
		}
	}
}

type abortPanic struct{}

// Step ends the current round and blocks until the coordinator advances
// the cluster. It returns the messages whose transmission completed this
// round, sorted by (Src, send order). The returned slice is reused by the
// engine: it stays valid until the second-next Step call; do not retain it
// (retaining the payload bytes of individual messages is fine).
//
// The coordinator outlives every machine of its run (it returns only once
// each has), so neither the submit nor the wait can be left hanging: an
// aborted run releases its stepping machines with an abort delivery.
//
//km:hotpath
func (c *Ctx) Step() []Message {
	c.evCh <- event{id: c.id, outbox: c.outbox}
	c.outbox = nil
	d := <-c.inCh
	if d.abort {
		panic(abortPanic{})
	}
	if d.spare != nil {
		c.outbox = d.spare
	}
	c.round++
	return d.msgs
}

// Snapshot returns a copy of the cluster's metrics as of the live run's
// current round, observed between rounds (the coordinator serves the
// request at its next event, so the copy is always internally consistent).
// It reports false when no run is active. Snapshot is free host-side
// observability: it does not perturb rounds, queues, or machine state.
func (c *Cluster) Snapshot() (Metrics, bool) {
	c.mu.Lock()
	evCh, runDone := c.evCh, c.runDone
	c.mu.Unlock()
	if evCh == nil {
		return Metrics{}, false
	}
	reply := make(chan Metrics, 1)
	select {
	case evCh <- event{snap: reply}:
	case <-runDone:
		return Metrics{}, false
	}
	select {
	case m := <-reply:
		return m, true
	case <-runDone:
		return Metrics{}, false
	}
}

// coordinator is the engine state above the transport: the event barrier
// slots for hosted machines and the staging buffers of a round, kept with
// the machines so a later run reuses them. Slot indices are
// hosted-relative (machine id minus lo).
type coordinator struct {
	evSlots []event // one slot per hosted machine; replaces sorting per barrier
	evHave  []bool
	evCount int

	stepped     []bool
	running     int         // hosted machines still running
	spareOutbox [][]Message // drained outbox backings awaiting hand-back

	in  transport.RoundIn
	out transport.RoundOut
}

// open builds the machines on the first Run: the transport with its link
// queues, the metrics they account into, one Ctx per hosted machine.
func (c *Cluster) open() error {
	if c.tr != nil {
		return nil
	}
	k := c.cfg.K
	met := transport.NewMetrics(k)
	tr, err := c.mk(transport.Params{
		K:                   k,
		BandwidthBits:       c.cfg.BandwidthBits,
		MessageOverheadBits: c.cfg.MessageOverheadBits,
	}, met)
	if err != nil {
		return err
	}
	lo, hi := tr.Hosted()
	if lo < 0 || hi > k || lo >= hi {
		tr.Close()
		return fmt.Errorf("kmachine: transport hosts [%d,%d) of %d machines", lo, hi, k)
	}
	hosted := hi - lo
	c.tr, c.met = tr, met
	c.ctxs = make([]*Ctx, hosted)
	for i := range c.ctxs {
		c.ctxs[i] = &Ctx{id: lo + i, cfg: c.cfg, inCh: make(chan delivery, 1)}
	}
	c.co = coordinator{
		evSlots:     make([]event, hosted),
		evHave:      make([]bool, hosted),
		stepped:     make([]bool, hosted),
		spareOutbox: make([][]Message, hosted),
	}
	return nil
}

// Run executes h on every machine and returns the metrics and outputs.
// It returns the first handler error, a panic converted to an error, or
// ErrMaxRounds. A run that fails leaves the machines wherever the failure
// caught them: Close the cluster rather than run it again.
func (c *Cluster) Run(h Handler) (*Result, error) {
	return c.RunContext(context.Background(), h)
}

// RunContext is Run with cancellation: when ctx is cancelled, the
// coordinator aborts the execution — machines blocked in Step are released
// with an abort delivery — and RunContext returns ctx.Err() once every
// hosted machine has.
func (c *Cluster) RunContext(ctx context.Context, h Handler) (*Result, error) {
	if err := c.open(); err != nil {
		return nil, err
	}
	k, tr, met, co := c.cfg.K, c.tr, c.met, &c.co
	lo, hosted := c.ctxs[0].id, len(c.ctxs)

	evCh := make(chan event, hosted)
	runDone := make(chan struct{})
	c.mu.Lock()
	c.evCh, c.runDone = evCh, runDone
	c.mu.Unlock()
	defer close(runDone)

	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				select {
				case evCh <- event{cancel: true, err: ctx.Err()}:
				case <-runDone:
				}
			case <-runDone:
			}
		}()
	}

	for _, m := range c.ctxs {
		m.evCh, m.output = evCh, nil
		go func(m *Ctx) {
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, isAbort := r.(abortPanic); isAbort {
							err = ErrMaxRounds
							return
						}
						err = fmt.Errorf("kmachine: machine %d panicked: %v", m.id, r)
					}
				}()
				err = h(m)
			}()
			// The coordinator is done reading the outbox within this run, so
			// its backing array is the next run's.
			out := m.outbox
			m.outbox = out[:0]
			evCh <- event{id: m.id, outbox: out, done: true, err: err, output: m.output}
		}(m)
	}

	res := &Result{Outputs: make([]any, k)}
	co.running = hosted
	var firstErr error
	aborting := false
	unilateral := false // abort not shared by peers (cancel / transport death)
	dead := false       // the transport failed: no more rounds, only drain
	globalRunning := k
	in, out := &co.in, &co.out
	in.Msgs = in.Msgs[:0]

	handle := func(e event) {
		switch {
		case e.cancel:
			aborting = true
			unilateral = true
			if firstErr == nil {
				firstErr = e.err
			}
		case e.snap != nil:
			e.snap <- met.Snapshot()
		default:
			i := e.id - lo
			co.evSlots[i] = e
			co.evHave[i] = true
			co.evCount++
		}
	}
	// abortStepped releases every machine waiting in Step with an abort
	// delivery (the transport is gone: no round will serve them).
	abortStepped := func() {
		in.Msgs = in.Msgs[:0]
		for i, m := range c.ctxs {
			if co.stepped[i] {
				co.stepped[i] = false
				m.inCh <- delivery{abort: true}
			}
		}
	}

	for globalRunning > 0 {
		// Barrier: one event per running hosted machine.
		for co.evCount < co.running {
			handle(<-evCh)
		}

		// Process the barrier's events in machine-ID order (they arrive at
		// most once per machine per barrier, so bucketing by ID replaces a
		// comparison sort).
		doneDelta := 0
		for i := 0; i < hosted; i++ {
			if !co.evHave[i] {
				continue
			}
			e := &co.evSlots[i]
			in.Msgs = append(in.Msgs, e.outbox...)
			if e.done {
				co.running--
				doneDelta++
				res.Outputs[e.id] = e.output
				if e.err != nil && firstErr == nil && !errors.Is(e.err, ErrMaxRounds) {
					// A failed machine fails the run: its peers are aborted
					// as by a cancel, not left to step until MaxRounds.
					firstErr = e.err
					aborting, unilateral = true, true
				}
			} else {
				co.spareOutbox[i] = e.outbox[:0]
				co.stepped[i] = true
			}
			*e = event{}
			co.evHave[i] = false
		}
		co.evCount = 0

		if dead {
			// The transport is gone: drain until every hosted machine has
			// returned.
			abortStepped()
			if co.running == 0 {
				break
			}
			continue
		}
		if unilateral && co.running == 0 && hosted < k {
			// This participant aborted on its own (cancellation) and has
			// fully drained; stop joining barriers (peers observe the link
			// closing, when the owner Closes the cluster, and abort too).
			// Shared aborts (MaxRounds) are hit by every participant at the
			// same round, so those keep joining barriers and drain the whole
			// cluster in lockstep — as does a participant whose machines
			// have merely finished: it paces the shared barrier until the
			// whole cluster's running count hits zero.
			break
		}

		// Run the round: barrier with peers, one bandwidth quantum on
		// every active link.
		in.DoneDelta = doneDelta
		if err := tr.Round(in, out); err != nil {
			dead = true
			aborting = true
			unilateral = true
			if firstErr == nil {
				firstErr = err
			}
			abortStepped()
			if co.running == 0 {
				break
			}
			continue
		}
		in.Msgs = in.Msgs[:0]
		globalRunning = out.Running
		if globalRunning == 0 {
			break
		}
		if !out.Advanced {
			continue
		}
		met.Rounds++

		if met.Rounds > c.cfg.MaxRounds {
			aborting = true
		}
		for i, m := range c.ctxs {
			inbox := out.Inboxes[i]
			if co.stepped[i] {
				co.stepped[i] = false
				m.inCh <- delivery{msgs: inbox, spare: co.spareOutbox[i], abort: aborting}
				co.spareOutbox[i] = nil
			} else if len(inbox) > 0 {
				met.DroppedMessages += len(inbox)
				for _, msg := range inbox {
					met.DroppedBytes += int64(len(msg.Data))
				}
			}
		}
		if aborting && firstErr == nil {
			firstErr = ErrMaxRounds
		}
	}

	// Traffic still queued when the last machine returned is a protocol
	// bug; surface it in this run's result. The queues themselves are
	// kept, so the cumulative accounting does not charge it twice.
	res.Metrics = met.Snapshot()
	rm, rb := tr.Remnants()
	res.Metrics.DroppedMessages += rm
	res.Metrics.DroppedBytes += rb
	return res, firstErr
}
