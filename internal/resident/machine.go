package resident

import (
	"slices"
	"sort"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/proxy"
	"kmgraph/internal/sketch"
	"kmgraph/internal/wire"
)

// batchOutput is machine 0's verdict tally for one applied batch.
type batchOutput struct {
	applied, appliedIns, appliedDel int
	rejIns, rejDel                  int
}

// queryOutput is the certificate coordinator's part of a query answer.
type queryOutput struct {
	forest     []graph.Edge
	relabeled  int
	certEdges  int
	mergeEdges int
}

// rmachine is one machine's resident state for the lifetime of the
// residency: its cluster Ctx and the session communicator bound to it, the
// shared merge engine (labels, proxy states), the mutable adjacency view,
// the maintained sketch banks, and — on machine 0 — the certificate
// coordinator. It is plain state: a command's run lends it a goroutine.
type rmachine struct {
	h     *Machines
	ctx   *kmachine.Ctx
	mg    *core.Merger
	view  *kmachine.Shard
	banks *bankCache
	coord *coordinator // machine 0 only

	// globalPhase never repeats within a session, so proxy assignments and
	// DRR ranks stay fresh across jobs (the paper's h_{j,ρ} freshness).
	globalPhase  int
	mergeRecs    []graph.Edge
	moves        []vertLabel  // step 1's relabels, reused across queries
	synced       []uint64     // machine 0: the final sync's renames, reused
	syncedMerges []graph.Edge // machine 0: the final sync's merge edges, reused
	pre          []uint64     // owned labels entering the merge phases, reused
	chg          []byte       // the final sync's encoded renames, reused
}

// exec runs command c over the machine's kept state and returns its output.
func (m *rmachine) exec(c *command) (*output, error) {
	out := &output{}
	switch c.kind {
	case cmdLoad:
		if err := m.load(); err != nil {
			return nil, err
		}
		out.n, out.m = m.view.N(), m.h.part.M()
	case cmdApply:
		out.batch = m.applyBatch(c.ops)
	case cmdQuery:
		out = m.query()
	case cmdMST:
		out = m.runMST(c.strong)
	case cmdDerived:
		out = m.runDerived(c.spec)
	}
	out.banks = m.banks.stats
	out.banks.PoolPeak += m.mg.Pool().Peak()
	out.banks.KeptBytes = int64(out.banks.KeptSums) * int64(m.h.cfg.Sketch.Cells()) * cellBytes
	return out, nil
}

// load is the first command: shared randomness, bank seeds, and — on
// machine 0 — the certificate coordinator.
func (m *rmachine) load() error {
	if err := m.mg.Setup(); err != nil {
		return err
	}
	m.mg.Cancelled = m.h.isCancelled
	seeds := make([]uint64, m.h.banksN)
	for b := range seeds {
		seeds[b] = m.mg.Sh.BankSeed(b)
	}
	m.banks = newBankCache(m.h.cfg.Sketch.Cells(), seeds, m.mg.Pool())
	m.mg.OnRelabel = func(relabel map[uint64]uint64, parts []core.Part) {
		m.banks.mergeRelabel(relabel, parts, m.view)
	}
	if m.ctx.ID() == 0 {
		m.coord = newCoordinator(m.view.N())
	}
	return nil
}

// phases returns the command's phase hook on the lowest hosted machine
// (free host-side observability, between metered rounds).
func (m *rmachine) phases() core.PhaseFunc {
	if m.ctx.ID() != m.h.lo {
		return nil
	}
	return m.h.phase
}

// jobMerger returns a fresh merge engine for one job over view: it reuses
// the residency (session communicator, shared randomness) but none of the
// incremental state — labels start as singletons. Release its pools when
// the job is over.
func (m *rmachine) jobMerger(view *kmachine.Shard, cfg core.Config) *core.Merger {
	fm := core.NewMergerOn(m.mg.Comm, view, cfg, m.mg.Sh, m.mg.Poly)
	fm.Cancelled = m.h.isCancelled
	return fm
}

// applyBatch distributes a batch from the ingress to the endpoints' home
// machines, applies it against the live adjacency and maintained banks,
// and collects per-op accept/reject verdicts back at machine 0 (which
// folds accepted ops into the certificate). Ops arrive canonicalized
// (U < V); the home of U is the primary, responsible for the verdict.
func (m *rmachine) applyBatch(ops []graph.EdgeOp) *batchOutput {
	k := m.ctx.K()

	// Exchange 1: ingress routes each op to both endpoints' homes.
	var out []proxy.Out
	if m.ctx.ID() == 0 {
		bufs := make([][]byte, k)
		counts := make([]int, k)
		addTo := func(dst, idx int, op graph.EdgeOp) {
			b := bufs[dst]
			b = wire.AppendUvarint(b, uint64(idx))
			b = wire.AppendBool(b, op.Del)
			b = wire.AppendUvarint(b, uint64(op.U))
			b = wire.AppendUvarint(b, uint64(op.V))
			b = wire.AppendVarint(b, op.W)
			bufs[dst] = b
			counts[dst]++
		}
		for i, op := range ops {
			hu, hv := m.view.Home(op.U), m.view.Home(op.V)
			addTo(hu, i, op)
			if hv != hu {
				addTo(hv, i, op)
			}
		}
		a := m.mg.Comm.Arena()
		for d := 0; d < k; d++ {
			if counts[d] == 0 {
				continue
			}
			data := a.Grab(10 + len(bufs[d]))
			data = wire.AppendUvarint(data, uint64(counts[d]))
			data = append(data, bufs[d]...)
			out = append(out, proxy.Out{Dst: d, Data: a.Commit(data)})
		}
	}
	recv := m.mg.Comm.Exchange(out)

	// Apply my ops in batch order; primaries record verdicts.
	type rop struct {
		idx  int
		del  bool
		u, v int
		w    int64
	}
	var mine []rop
	for _, msg := range recv {
		r := wire.NewReader(msg.Data)
		cnt := int(r.Uvarint())
		for i := 0; i < cnt; i++ {
			mine = append(mine, rop{
				idx: int(r.Uvarint()),
				del: r.Bool(),
				u:   int(r.Uvarint()),
				v:   int(r.Uvarint()),
				w:   r.Varint(),
			})
		}
	}
	sort.Slice(mine, func(i, j int) bool { return mine[i].idx < mine[j].idx })
	var verdicts []byte
	nv := 0
	for _, op := range mine {
		acc := m.applyOp(op.del, op.u, op.v, op.w)
		if m.view.Home(op.u) == m.ctx.ID() {
			verdicts = wire.AppendUvarint(verdicts, uint64(op.idx))
			verdicts = wire.AppendBool(verdicts, acc)
			nv++
		}
	}

	// Exchange 2: verdicts to the ingress.
	out = nil
	if nv > 0 {
		a := m.mg.Comm.Arena()
		data := a.Grab(10 + len(verdicts))
		data = wire.AppendUvarint(data, uint64(nv))
		data = append(data, verdicts...)
		out = append(out, proxy.Out{Dst: 0, Data: a.Commit(data)})
	}
	recv = m.mg.Comm.Exchange(out)
	rep := &batchOutput{}
	if m.ctx.ID() == 0 {
		acc := make([]bool, len(ops))
		for _, msg := range recv {
			r := wire.NewReader(msg.Data)
			cnt := int(r.Uvarint())
			for i := 0; i < cnt; i++ {
				idx := int(r.Uvarint())
				a := r.Bool()
				if idx < len(acc) {
					acc[idx] = a
				}
			}
		}
		for i, op := range ops {
			if !acc[i] {
				if op.Del {
					rep.rejDel++
				} else {
					rep.rejIns++
				}
				continue
			}
			rep.applied++
			if op.Del {
				rep.appliedDel++
			} else {
				rep.appliedIns++
			}
			m.coord.applyAccepted(op)
		}
	}
	return rep
}

// applyOp mutates the live adjacency and the maintained banks for the
// endpoints this machine owns. Both endpoint homes see identical prior
// state for the edge, so their accept decisions agree. Sign convention
// follows a_u (§2.3): +1 for the smaller endpoint's incidence, negated on
// deletion.
func (m *rmachine) applyOp(del bool, u, v int, w int64) bool {
	id := graph.EdgeID(u, v, m.view.N())
	me := m.ctx.ID()
	ownU := m.view.Home(u) == me
	ownV := m.view.Home(v) == me
	var present bool
	if ownU {
		present = m.view.Has(u, v)
	} else {
		present = m.view.Has(v, u)
	}
	if del {
		if !present {
			return false
		}
		if ownU {
			m.view.Remove(u, v)
			m.banks.update(m.mg.LabelOf(u), id, -1)
		}
		if ownV {
			m.view.Remove(v, u)
			m.banks.update(m.mg.LabelOf(v), id, +1)
		}
		return true
	}
	if present {
		return false
	}
	if ownU {
		m.view.Insert(u, graph.Half{To: v, W: w})
		m.banks.update(m.mg.LabelOf(u), id, +1)
	}
	if ownV {
		m.view.Insert(v, graph.Half{To: u, W: w})
		m.banks.update(m.mg.LabelOf(v), id, -1)
	}
	return true
}

// query answers connectivity on the current graph: certificate piece
// relabel (only changed labels travel), Boruvka merge phases over the
// maintained banks via the shared engine, and a final sync that returns
// fresh forest edges and class renames to the coordinator. A cancelled
// query breaks at a phase boundary but still runs the final sync, so the
// coordinator's certificate stays consistent with the machines' labels.
func (m *rmachine) query() *output {
	startFail := m.mg.Failures
	startCollapse := m.mg.CollapseIters
	rep := &output{}

	// Step 1: certificate piece relabel.
	var out []proxy.Out
	if m.ctx.ID() == 0 {
		changes, cert := m.coord.recompute()
		rep.query = &queryOutput{relabeled: len(changes), certEdges: cert}
		k := m.ctx.K()
		bufs := make([][]byte, k)
		counts := make([]int, k)
		for _, ch := range changes {
			d := m.view.Home(ch.v)
			bufs[d] = wire.AppendUvarint(bufs[d], uint64(ch.v))
			bufs[d] = wire.AppendUvarint(bufs[d], ch.label)
			counts[d]++
		}
		a := m.mg.Comm.Arena()
		for d := 0; d < k; d++ {
			if counts[d] == 0 {
				continue
			}
			data := a.Grab(10 + len(bufs[d]))
			data = wire.AppendUvarint(data, uint64(counts[d]))
			data = append(data, bufs[d]...)
			out = append(out, proxy.Out{Dst: d, Data: a.Commit(data)})
		}
	}
	recv := m.mg.Comm.Exchange(out)
	m.moves = m.moves[:0]
	for _, msg := range recv {
		r := wire.NewReader(msg.Data)
		cnt := int(r.Uvarint())
		for i := 0; i < cnt; i++ {
			m.moves = append(m.moves, vertLabel{v: int(r.Uvarint()), label: r.Uvarint()})
		}
	}
	m.banks.move(m.moves, m.mg.Labels, m.mg.Parts, m.view)
	for _, mv := range m.moves {
		m.mg.Labels[m.view.Ordinal(mv.v)] = mv.label
	}

	// Step 2: Boruvka merge phases from the piece labeling.
	m.pre = append(m.pre[:0], m.mg.Labels...)
	m.mergeRecs = m.mergeRecs[:0]
	phases, converged, cancelled := m.mg.RunPhases(m.globalPhase, m.h.cfg.MaxPhases,
		func(i int) { m.selectBanks(i % m.h.banksN) }, m.phases())
	m.globalPhase += phases
	rep.cancelled = cancelled

	// Step 3: final sync — class renames and sampled merge edges flow to
	// the coordinator, which relabels class-wise and grows the forest.
	// Boruvka phases only merge, so a pre label's class takes one post
	// label: this machine sends one pre<<32 | post word per changed class,
	// pre ascending (a cold query's pre labels are the owned vertices). The
	// words overwrite m.pre from the front, behind the walk's reads.
	ren := m.pre[:0]
	for i, l := range m.mg.Labels {
		if w := m.pre[i]<<32 | l; l != m.pre[i] && (len(ren) == 0 || ren[len(ren)-1] != w) {
			ren = append(ren, w)
		}
	}
	if !slices.IsSorted(ren) {
		slices.Sort(ren)
		ren = slices.Compact(ren)
	}
	chg := m.chg[:0]
	for _, w := range ren {
		chg = wire.AppendUvarint(chg, w>>32)
		chg = wire.AppendUvarint(chg, w&(1<<32-1))
	}
	m.chg = chg
	a := m.mg.Comm.Arena()
	data := a.Grab(20 + len(chg) + 30*len(m.mergeRecs))
	data = wire.AppendUvarint(data, uint64(len(ren)))
	data = append(data, chg...)
	data = wire.AppendUvarint(data, uint64(len(m.mergeRecs)))
	for _, e := range m.mergeRecs {
		data = wire.AppendUvarint(data, uint64(e.U))
		data = wire.AppendUvarint(data, uint64(e.V))
		data = wire.AppendVarint(data, e.W)
	}
	data = a.Commit(data)
	recv = m.mg.Comm.Exchange([]proxy.Out{{Dst: 0, Data: data}})
	if m.ctx.ID() == 0 {
		// Sized from the frames' counts: a cold query renames every vertex
		// but the roots.
		nr, ne := 0, 0
		for _, msg := range recv {
			r := wire.NewReader(msg.Data)
			c := int(r.Uvarint())
			for i := 0; i < 2*c; i++ {
				r.Uvarint()
			}
			nr, ne = nr+c, ne+int(r.Uvarint())
		}
		renames := slices.Grow(m.synced[:0], nr)
		merges := slices.Grow(m.syncedMerges[:0], ne)
		for _, msg := range recv {
			r := wire.NewReader(msg.Data)
			for c := r.Uvarint(); c > 0; c-- {
				renames = append(renames, r.Uvarint()<<32|r.Uvarint())
			}
			for c := r.Uvarint(); c > 0; c-- {
				merges = append(merges, graph.Edge{U: int(r.Uvarint()), V: int(r.Uvarint()), W: r.Varint()})
			}
		}
		m.synced, m.syncedMerges = renames, merges
		m.coord.relabelAndGrow(renames, merges)
		rep.query.forest = m.coord.forestEdges()
		rep.query.mergeEdges = len(merges)
	}
	// The session merger's labels and counters outlive the job: the output
	// is this query's deltas and the live labels, which the host
	// assembles into its own slice before it admits the next command — and
	// only a command changes labels.
	rep.machine = &core.MachineOutput{
		Owned:         m.view.Owned(),
		Labels:        m.mg.Labels,
		Failures:      m.mg.Failures - startFail,
		Phases:        phases,
		Converged:     converged,
		CollapseIters: m.mg.CollapseIters - startCollapse,
		ProtocolCount: -1,
	}
	return rep
}

// selectBanks is the dynamic selection step: the static sketch path
// (§2.3–2.5) with heavy parts' sketches drawn from the maintained banks
// instead of built fresh against a per-phase projection (light parts ship
// their adjacency rows), and every applied merge's sampled edge recorded
// for the certificate forest.
func (m *rmachine) selectBanks(bank int) {
	m.mg.GatherParts(m.banks.seeds[bank], func(label uint64, members []int) *sketch.Sketch {
		return m.banks.get(label, bank, members, m.view)
	})
	// A step records at most one merge per state this machine proxies.
	m.mergeRecs = slices.Grow(m.mergeRecs, len(m.mg.States))
	m.mg.RankSampled(func(_ *core.CompState, e graph.Edge) { m.mergeRecs = append(m.mergeRecs, e) })
}

// runDerived executes one fresh connectivity computation over a derived
// view of the live graph — the building block of the min-cut sampling
// trials and the verification reductions: core's connectivity job on a
// per-job merger over the derived view.
func (m *rmachine) runDerived(spec *runSpec) *output {
	rep := &output{}
	if spec.probeU >= 0 && m.view.Home(spec.probeU) == m.ctx.ID() {
		rep.probePresent = m.view.Has(spec.probeU, spec.probeV)
	}
	fm := m.jobMerger(m.derive(spec), m.runConfig(spec))
	defer fm.ReleasePools()
	out, cancelled := fm.ConnectivityJob(m.globalPhase, m.phases())
	m.globalPhase += out.Phases
	rep.machine, rep.cancelled = out, cancelled
	return rep
}

// runMST constructs the minimum spanning forest of the live graph: core's
// §3.1 MST job on a per-job merger over the resident adjacency.
func (m *rmachine) runMST(strong bool) *output {
	fm := m.jobMerger(m.view, m.h.cfg)
	defer fm.ReleasePools()
	out, cancelled := fm.MSTJob(m.globalPhase, strong, m.phases())
	m.globalPhase += out.Phases
	return &output{machine: out, cancelled: cancelled}
}
