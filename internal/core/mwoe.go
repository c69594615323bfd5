// MWOE is the per-phase minimum-weight-outgoing-edge selector of the MST
// algorithm (§3.1), extracted from the one-shot MST machine so the
// resident substrate can run MST jobs against an already-loaded cluster:
// it operates on any Merger (static LocalView or the resident mutable
// view) and records the MST edges it decides on the proxy machines.

package core

import (
	"cmp"
	"slices"

	"kmgraph/internal/graph"
	"kmgraph/internal/proxy"
	"kmgraph/internal/sketch"
	"kmgraph/internal/wire"
)

const (
	tagThreshold = byte(1)
	tagState     = byte(2)
)

// edgeLessHalf reports whether edge (u, h) precedes threshold (tw, tid)
// in the (weight, edge ID) total order.
func edgeLessHalf(u int, h graph.Half, n int, tw int64, tid uint64) bool {
	if h.W != tw {
		return h.W < tw
	}
	return graph.EdgeID(u, h.To, n) < tid
}

// MWOE drives MWOE selection phases over a Merger. Edges accumulates the
// decided MST edges known to this machine (the weak output criterion:
// every MST edge is known to the proxy that recorded it).
type MWOE struct {
	M            *Merger
	MaxElimIters int
	Edges        map[uint64]graph.Edge
	ElimIters    int

	thresholds []threshold                    // this iteration's, reused
	cut        threshold                      // the one lighter filters against
	lighter    func(u int, h graph.Half) bool // AddVertex filter, bound once
}

// threshold is a component's current best edge in the (weight, edge ID)
// order, as its part holders receive it: the next filtered sketch keeps
// only strictly lighter edges.
type threshold struct {
	label uint64
	w     int64
	id    uint64
}

// NewMWOE returns an MWOE selector over m. maxElimIters caps elimination
// iterations per phase.
func NewMWOE(m *Merger, maxElimIters int) *MWOE {
	w := &MWOE{M: m, MaxElimIters: maxElimIters, Edges: make(map[uint64]graph.Edge)}
	n := m.View.N()
	w.lighter = func(u int, h graph.Half) bool { return edgeLessHalf(u, h, n, w.cut.w, w.cut.id) }
	return w
}

// Select runs the per-phase elimination loop (§3.1) and leaves, in
// m.States, each component's MWOE decision with DRR parent applied.
func (w *MWOE) Select() {
	m := w.M
	k := m.Ctx.K()
	n := m.View.N()

	// Iteration 0: unfiltered sketches, exactly as connectivity.
	m.GatherFreshParts(m.Sh.SketchSeed(m.Phase, 0))
	parts := m.Parts()
	a := m.Comm.Arena()

	active := w.sampleAndResolve()

	// Elimination iterations: threshold broadcast, filtered re-sketch,
	// re-sample, until every component's sampler comes back empty (or the
	// job is cancelled — the verdict rides the same collective, so all
	// machines break together).
	for s := 1; ; s++ {
		ac := m.Comm.AllSum(active | m.CancelBit()<<cancelShift)
		if ac>>cancelShift > 0 {
			// Cancelled mid-elimination: discard undecided components and
			// finish the phase; the phase loop observes the cancellation at
			// its PhaseSync and stops.
			for _, st := range m.States {
				if !st.ElimDone {
					st.ElimDone = true
					st.HasBest = false
					st.Cur, st.Parent = st.Label, st.Label
				}
			}
			break
		}
		if ac&(1<<cancelShift-1) == 0 {
			break
		}
		w.ElimIters++
		if s > w.MaxElimIters {
			// Truncated: discard this phase's decision for the remaining
			// active components (conservative; negligible probability).
			for _, st := range m.States {
				if !st.ElimDone {
					st.ElimDone = true
					st.HasBest = false
					st.Cur, st.Parent = st.Label, st.Label
					m.Failures++
				}
			}
			break
		}

		// Combined exchange: thresholds to part holders + state handoff.
		out := m.outBuf[:0]
		newStates := m.takeSpareStates()
		for _, label := range m.StateKeys() {
			st := m.States[label]
			if st.HasBest && !st.ElimDone {
				buf := a.Grab(40)
				buf = append(buf, tagThreshold)
				buf = wire.AppendUvarint(buf, st.Label)
				buf = wire.AppendVarint(buf, st.BestW)
				buf = wire.AppendUvarint(buf, graph.EdgeID(st.BestU, st.BestV, n))
				data := a.Commit(buf)
				for h := 0; h < k; h++ {
					if st.Holders[h/8]&(1<<uint(h%8)) != 0 {
						out = append(out, proxy.Out{Dst: h, Data: data})
					}
				}
			}
			dst := m.ProxyOf(m.StateSlot+1, label)
			if dst == m.Ctx.ID() {
				newStates[label] = st
			} else {
				buf := a.Grab(97 + len(st.Holders))
				buf = append(buf, tagState)
				buf = st.Encode(buf)
				out = append(out, proxy.Out{Dst: dst, Data: a.Commit(buf)})
				m.stFree = append(m.stFree, st)
			}
		}
		recv := m.Comm.Exchange(out)
		ths := w.thresholds[:0]
		for _, msg := range recv {
			switch msg.Data[0] {
			case tagThreshold:
				r := wire.NewReader(msg.Data[1:])
				ths = append(ths, threshold{label: r.Uvarint(), w: r.Varint(), id: r.Uvarint()})
			case tagState:
				r := wire.NewReader(msg.Data[1:])
				st := m.DecodeStateInto(r)
				newStates[st.Label] = st
			default:
				panic("core: unknown elimination message tag")
			}
		}
		m.putSpareStates(m.States)
		m.States = newStates
		m.StateSlot++

		// Filtered part re-sketches to the (new) proxies, by ascending label
		// (a component has one proxy, so labels are distinct).
		slices.SortFunc(ths, func(a, b threshold) int { return cmp.Compare(a.label, b.label) })
		w.thresholds = ths
		seed := m.Sh.SketchSeed(m.Phase, s)
		out = out[:0]
		part := m.Pool().Get(seed)
		for _, th := range ths {
			w.cut = th
			for _, v := range parts[th.label] {
				part.AddVertex(v, m.View.Adj(v), w.lighter)
			}
			out = append(out, proxy.Out{Dst: m.ProxyOf(m.StateSlot, th.label), Data: m.SketchPayload(th.label, part), Framed: true})
			part.Reset()
		}
		m.Pool().Put(part)
		recv = m.Comm.Exchange(out)
		m.outBuf = out
		m.SumAndSample(recv, seed, false)
		active = w.sampleAndResolve()
	}

	// Decisions: record MWOEs as MST edges and apply the merge rule.
	for _, label := range m.StateKeys() {
		st := m.States[label]
		if st.ElimDone && st.HasBest {
			u, v := st.BestU, st.BestV
			w.Edges[graph.EdgeID(u, v, n)] = graph.Edge{U: u, V: v, W: st.BestW}
			m.PhaseActive++
			m.ApplyRank(st, st.TargetLabel)
		}
	}
}

// sampleAndResolve samples each state's summed sketch, resolves neighbor
// labels and edge weights via home-machine queries, updates component
// states, and returns the local count of components still eliminating.
//
// A component whose filtered vector comes back empty has converged: the
// current best edge is the MWOE.
func (w *MWOE) sampleAndResolve() uint64 {
	m := w.M
	a := m.Comm.Arena()
	out := m.outBuf[:0]
	for _, label := range m.StateKeys() {
		st := m.States[label]
		x, y, insideSmaller, status, ok := st.takeSample()
		if st.ElimDone || !ok {
			continue
		}
		switch status {
		case sketch.Empty:
			// Nothing lighter remains. If a best edge exists, it is the
			// MWOE; otherwise the component has no outgoing edges at all.
			st.ElimDone = true
		case sketch.Failed:
			m.Failures++
			st.ElimDone = true
			st.HasBest = false
		case sketch.Sampled:
			outside := x
			if insideSmaller {
				outside = y
			}
			q := a.Grab(40)
			q = wire.AppendUvarint(q, uint64(outside))
			q = wire.AppendUvarint(q, uint64(x))
			q = wire.AppendUvarint(q, uint64(y))
			q = wire.AppendUvarint(q, label)
			out = append(out, proxy.Out{Dst: m.View.Home(outside), Data: a.Commit(q)})
		}
	}
	recv := m.Comm.Exchange(out)
	m.outBuf = out
	recv = m.Comm.Exchange(m.AnswerLabelQueries(recv))

	var active uint64
	for _, msg := range recv {
		r := wire.NewReader(msg.Data)
		askLabel := r.Uvarint()
		nbrLabel := r.Uvarint()
		valid := r.Bool()
		wgt := r.Varint()
		st := m.States[askLabel]
		if st == nil {
			panic("core: MST reply for unknown component")
		}
		if !valid || nbrLabel == askLabel {
			m.Failures++
			st.ElimDone = true
			st.HasBest = false
			continue
		}
		st.HasBest = true
		st.BestU, st.BestV = st.PendU, st.PendV
		st.BestW = wgt
		st.TargetLabel = nbrLabel
		active++
	}
	return active
}

// DisseminateStrong routes every recorded MST edge to the home machines of
// both endpoints (Theorem 2(b)'s output criterion) and returns this
// machine's vertex-to-incident-MST-edges map.
func (w *MWOE) DisseminateStrong() map[int][]graph.Edge {
	m := w.M
	n := m.View.N()
	a := m.Comm.Arena()
	var out []proxy.Out
	for _, id := range SortedKeys(w.Edges) {
		e := w.Edges[id]
		buf := a.Grab(30)
		buf = wire.AppendUvarint(buf, uint64(e.U))
		buf = wire.AppendUvarint(buf, uint64(e.V))
		buf = wire.AppendVarint(buf, e.W)
		buf = a.Commit(buf)
		hu, hv := m.View.Home(e.U), m.View.Home(e.V)
		out = append(out, proxy.Out{Dst: hu, Data: buf})
		if hv != hu {
			out = append(out, proxy.Out{Dst: hv, Data: buf})
		}
	}
	recv := m.Comm.Exchange(out)
	seen := make(map[int]map[uint64]bool)
	ve := make(map[int][]graph.Edge)
	add := func(v int, e graph.Edge) {
		if m.View.Home(v) != m.Ctx.ID() {
			return
		}
		id := graph.EdgeID(e.U, e.V, n)
		if seen[v] == nil {
			seen[v] = make(map[uint64]bool)
		}
		if seen[v][id] {
			return
		}
		seen[v][id] = true
		ve[v] = append(ve[v], e)
	}
	for _, msg := range recv {
		r := wire.NewReader(msg.Data)
		e := graph.Edge{U: int(r.Uvarint()), V: int(r.Uvarint()), W: r.Varint()}
		add(e.U, e)
		add(e.V, e)
	}
	return ve
}
