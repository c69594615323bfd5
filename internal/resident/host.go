package resident

import (
	"context"
	"fmt"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/transport"
	"kmgraph/internal/wire"
)

// Remote is a host whose machines live in other processes (internal/dist's
// kmworker fleet). Run executes one command (appendCommand) as one run of
// every machine and returns their outputs (ReadOutput), the residency's
// cumulative Metrics and each worker's phase spans; phase sees the lowest
// worker's phase boundaries, a cancelled ctx stops the machines at one, and
// a failed run ends the residency. The next command opens a fresh one from
// the immutable source: the load. Retry decides whether a residency lost
// on the job's attempt-th try opens again (nil, after the policy's backoff).
type Remote interface {
	Run(ctx context.Context, cmd []byte, phase core.PhaseFunc) (*kmachine.Result, []transport.WorkerSpans, error)
	Retry(ctx context.Context, attempt int, cause error) error
	Close() error
}

// Machines is the part of a residency one process hosts — all k machines
// of the engine's own, or a fleet worker's range for as long as its control
// connection is open: the cluster carrying the rounds of machines [lo, hi)
// over their shards and, from the load command on, their kept state.
type Machines struct {
	cfg    core.Config
	banksN int
	part   *kmachine.ShardPartition
	kc     *kmachine.Cluster
	lo     int
	ms     []*rmachine // by machine ID; nil outside [lo, hi)
	dead   bool        // a run failed: the machines are wherever it caught them

	// The command in progress: the job's cancel flag, polled through
	// PhaseSync, and the phase hook of the lowest hosted machine.
	cancelled func() bool
	phase     core.PhaseFunc
}

// Load checks cfg against src's vertex count — a k beyond n is refused
// before anything is sized by k — and streams the shards of machines
// [lo, hi) out of src under the random vertex partition: every host's load.
func Load(src graph.EdgeSource, cfg Config, lo, hi int) (*kmachine.ShardPartition, error) {
	if err := validConfig(src.N(), cfg); err != nil {
		return nil, err
	}
	seed := kmachine.RVPSeed(cfg.Seed)
	return kmachine.LoadShardsRange(src, cfg.K, func(v int) int { return kmachine.HomeOf(seed, cfg.K, v) }, lo, hi)
}

// NewMachines builds the cluster that carries part's machines' rounds on
// the transport mk makes (nil: transport/local).
func NewMachines(part *kmachine.ShardPartition, cfg Config, mk kmachine.TransportMaker) (*Machines, error) {
	h := &Machines{cfg: cfg.coreConfig(part.N()), part: part, ms: make([]*rmachine, cfg.K),
		banksN: defaultBanks(part.N())}
	h.lo, _ = part.Range()
	var err error
	if h.kc, err = kmachine.NewWithTransport(h.cfg.MachineConfig(), mk); err != nil {
		return nil, err
	}
	return h, nil
}

// Cluster returns the cluster the hosted machines run on.
func (h *Machines) Cluster() *kmachine.Cluster { return h.kc }

// Run executes one command as a fleet ships it (appendCommand) under ctx:
// cancelled is polled through PhaseSync, and phase (when non-nil) sees the
// lowest hosted machine's phase boundaries. AppendOutput encodes outputs.
// A malformed command is refused before it runs, leaving the machines
// serviceable.
func (h *Machines) Run(ctx context.Context, cmd []byte, cancelled func() bool, phase func(phase, round int)) (*kmachine.Result, error) {
	c, err := readCommand(cmd, h.part.N())
	if err != nil {
		return nil, err
	}
	var hook core.PhaseFunc
	if phase != nil {
		hook = func(i, round int, _, _ uint64) { phase(i, round) }
	}
	return h.run(ctx, c, cancelled, hook)
}

func (h *Machines) run(ctx context.Context, c *command, cancelled func() bool, phase core.PhaseFunc) (*kmachine.Result, error) {
	h.cancelled, h.phase = cancelled, phase
	res, err := h.kc.RunContext(ctx, func(mctx *kmachine.Ctx) error {
		id := mctx.ID()
		if c.kind == cmdLoad {
			view := h.part.Shard(id)
			h.ms[id] = &rmachine{h: h, ctx: mctx, mg: core.NewMerger(mctx, view, h.cfg), view: view}
		}
		out, err := h.ms[id].exec(c)
		mctx.SetOutput(out)
		return err
	})
	h.dead = h.dead || err != nil
	return res, err
}

func (h *Machines) isCancelled() bool { return h.cancelled != nil && h.cancelled() }

// Close ends the machines' residency: kept sums and pools go back to the
// process (unless a failed run left them mid-command), and the cluster
// releases its transport.
func (h *Machines) Close() {
	for _, m := range h.ms {
		if m != nil && !h.dead {
			m.banks.close()
			m.mg.ReleasePools()
		}
	}
	h.ms = nil
	h.kc.Close()
}

// Command kinds.
const (
	cmdLoad = iota + 1
	cmdApply
	cmdQuery
	cmdMST
	cmdDerived
)

// command is one program the host runs over every machine's kept state,
// as data. Its arrival is control plane and free; what is data in the model
// (a batch's ops) is read by machine 0 alone and distributed in-model at
// metered cost, while run and MST specs are public problem statements.
type command struct {
	kind   int
	ops    []graph.EdgeOp // cmdApply
	strong bool           // cmdMST
	spec   *runSpec       // cmdDerived
}

func appendCommand(b []byte, c *command) []byte {
	b = wire.AppendInts(b, c.kind, btoi(c.strong), len(c.ops))
	for _, op := range c.ops {
		b = wire.AppendInts(b, btoi(op.Del), op.U, op.V, int(op.W))
	}
	if s := c.spec; s != nil {
		ids := core.SortedKeys(s.edges)
		b = wire.AppendInts(b, s.kind, s.probeU, s.probeV, int(s.tseed), int(s.threshold), len(ids))
		for _, id := range ids {
			b = wire.AppendUvarint(b, id)
		}
	}
	return b
}

// readCommand decodes a command for a residency of n vertices, refusing
// what no engine sends: an op that is not a canonical edge 0 <= U < V < n,
// a probe outside [0, n) (but for the absent probe, both ends -1), and an
// unknown view kind.
func readCommand(body []byte, n int) (*command, error) {
	r := wire.NewReader(body)
	c := &command{}
	var strong int
	r.Ints(&c.kind, &strong)
	c.strong = strong != 0
	if c.kind < cmdLoad || c.kind > cmdDerived {
		return nil, fmt.Errorf("resident: unknown command %d", c.kind)
	}
	c.ops = make([]graph.EdgeOp, size(r))
	for i := range c.ops {
		op := &c.ops[i]
		var del, w int
		r.Ints(&del, &op.U, &op.V, &w)
		op.Del, op.W = del != 0, int64(w)
		if op.U < 0 || op.U >= op.V || op.V >= n {
			return nil, fmt.Errorf("resident: command op (%d,%d) of %d vertices", op.U, op.V, n)
		}
	}
	if c.kind == cmdDerived {
		s := &runSpec{edges: map[uint64]bool{}}
		var tseed, threshold int
		r.Ints(&s.kind, &s.probeU, &s.probeV, &tseed, &threshold)
		s.tseed, s.threshold = uint64(tseed), uint64(threshold)
		if s.kind < viewFull || s.kind > viewCover {
			return nil, fmt.Errorf("resident: unknown view kind %d", s.kind)
		}
		absent := s.probeU == -1 && s.probeV == -1
		if !absent && (s.probeU < 0 || s.probeU >= n || s.probeV < 0 || s.probeV >= n) {
			return nil, fmt.Errorf("resident: probe (%d,%d) of %d vertices", s.probeU, s.probeV, n)
		}
		for i := size(r); i > 0; i-- {
			s.edges[r.Uvarint()] = true
		}
		c.spec = s
	}
	return c, r.Done()
}

// output is one machine's output of one command — the model's designated
// output variable o_i of that run — and its sketch-bank ledger after it.
type output struct {
	machine      any          // *core.MachineOutput or *core.MSTOutput: queries, derived runs, MSTs
	cancelled    bool         // the job stopped at a phase boundary on request
	probePresent bool         // derived runs with a presence probe
	n, m         int          // the load: the graph's vertex and edge counts
	banks        BankMetrics  // the machine's sketch-bank ledger after the command
	batch        *batchOutput // a batch, on machine 0
	query        *queryOutput // a query, on machine 0
}

// AppendOutput encodes one machine's output of a command (Machines.Run)
// in wire form: core.AppendOutput plus the batch and query extras.
func AppendOutput(b []byte, o any) ([]byte, error) {
	out := o.(*output)
	var err error
	if b = wire.AppendBool(b, out.machine != nil); out.machine != nil {
		if b, err = core.AppendOutput(b, out.machine); err != nil {
			return nil, err
		}
	}
	bk, bt, q := out.banks, out.batch, out.query
	b = wire.AppendInts(b, btoi(out.cancelled), btoi(out.probePresent), out.n, out.m, bk.KeptSums, int(bk.KeptBytes),
		int(bk.ReadsKept), int(bk.ReadsRebuilt), int(bk.Dropped), bk.KeptPeak, bk.PoolPeak)
	if b = wire.AppendBool(b, bt != nil); bt != nil {
		b = wire.AppendInts(b, bt.applied, bt.appliedIns, bt.appliedDel, bt.rejIns, bt.rejDel)
	}
	if b = wire.AppendBool(b, q != nil); q != nil {
		b = wire.AppendInts(b, q.relabeled, q.certEdges, q.mergeEdges, len(q.forest))
		for _, e := range q.forest {
			b = wire.AppendInts(b, e.U, e.V, int(e.W))
		}
	}
	return b, nil
}

// ReadOutput decodes a machine output encoded by AppendOutput.
func ReadOutput(r *wire.Reader) (any, error) {
	out := &output{}
	if r.Bool() {
		mo, err := core.ReadOutput(r)
		if err != nil {
			return nil, err
		}
		out.machine = mo
	}
	bk := &out.banks
	var cancelled, probe, keptBytes, kept, rebuilt, dropped int
	r.Ints(&cancelled, &probe, &out.n, &out.m, &bk.KeptSums, &keptBytes, &kept, &rebuilt, &dropped, &bk.KeptPeak, &bk.PoolPeak)
	out.cancelled, out.probePresent = cancelled != 0, probe != 0
	bk.KeptBytes, bk.ReadsKept, bk.ReadsRebuilt, bk.Dropped = int64(keptBytes), int64(kept), int64(rebuilt), int64(dropped)
	if r.Bool() {
		out.batch = &batchOutput{}
		r.Ints(&out.batch.applied, &out.batch.appliedIns, &out.batch.appliedDel, &out.batch.rejIns, &out.batch.rejDel)
	}
	if r.Bool() {
		q := &queryOutput{}
		r.Ints(&q.relabeled, &q.certEdges, &q.mergeEdges)
		q.forest = make([]graph.Edge, size(r))
		for i := range q.forest {
			var w int
			r.Ints(&q.forest[i].U, &q.forest[i].V, &w)
			q.forest[i].W = int64(w)
		}
		out.query = q
	}
	return out, r.Err()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// size reads a collection size. One the bytes left cannot back is corrupt
// and reads as 0, leaving them for the frame's Done to refuse.
func size(r *wire.Reader) int {
	var n int
	if r.Ints(&n); n < 0 || n > r.Len() {
		return 0
	}
	return n
}
