// MWOE is the per-phase minimum-weight-outgoing-edge selector of the MST
// algorithm (§3.1), extracted from the one-shot MST machine so the
// resident substrate can run MST jobs against an already-loaded cluster:
// it operates on any Merger, whatever shard it views, and records the MST
// edges it decides on the proxy machines.

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
// every MST edge is known to the proxy that recorded it), in decision
// order until sortEdges orders them by edge ID.
//
// It runs connectivity's selection pipeline — SumAndSample's one sampler
// scan, askSlots' one label-query round trip — with one departure from
// §3.1, on every host: the paper draws one outgoing edge from a
// component's summed sketch per elimination iteration, so the candidates
// halve and a phase takes ~log2 of their number in iterations. Here an
// iteration takes every slot the sum verified (an all-slots
// sketch.SampleSlots scan: 4.4 per sum on G(3000, 9000), a third of the
// sums decoding in full), asks about all of them in the exchanges the one
// draw already costs, and thresholds on the lightest: the candidates fall
// ~(s+1)-fold with s slots, a phase takes ~log_(s+1) iterations, and a sum
// that decodes in full ends the component's elimination at once. The
// answer is unchanged — elimination still ends only on an empty filtered
// sketch or a full decode, so each decision is the component's minimum
// outgoing edge under (weight, edge ID) and the forest the unique MST;
// rounds, messages and bytes are what move (about half, E6).
type MWOE struct {
	M         *Merger
	Edges     []graph.Edge
	ElimIters int

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

// NewMWOE returns an MWOE selector over m; m.Cfg.MaxElimIters caps
// elimination iterations per phase.
func NewMWOE(m *Merger) *MWOE {
	w := &MWOE{M: m}
	m.allSlots = true
	n := m.View.N()
	w.lighter = func(u int, h graph.Half) bool { return edgeLessHalf(u, h, n, w.cut.w, w.cut.id) }
	return w
}

// Select runs the per-phase elimination loop (§3.1, every verified slot a
// candidate) and leaves, in m.States, each component's MWOE decision with
// DRR parent applied.
func (w *MWOE) Select() {
	m := w.M
	k := m.Ctx.K()
	n := m.View.N()

	// Iteration 0: unfiltered sketches, exactly as connectivity.
	parts := m.GatherFreshParts(m.Sh.SketchSeed(m.Phase, 0))
	a := m.Comm.Arena()

	active := w.sampleAndResolve()

	// Elimination iterations: threshold broadcast, filtered re-sketch,
	// re-sample, until every component's sampler comes back empty or
	// decodes in full (or the job is cancelled — the verdict rides the same
	// collective, so all machines break together).
	for s := 1; ; s++ {
		ac := m.Comm.AllSum(active | m.CancelBit()<<cancelShift)
		cancelled := ac>>cancelShift > 0
		if !cancelled {
			if ac == 0 {
				break
			}
			w.ElimIters++
		}
		if cancelled || s > m.Cfg.MaxElimIters {
			// Cancelled mid-elimination (the phase loop observes it at its
			// PhaseSync and stops), or truncated (a failure; conservative,
			// negligible probability): discard this phase's decision for
			// the components still eliminating and finish the phase.
			for _, st := range m.States {
				if !st.ElimDone {
					st.ElimDone, st.HasBest = true, false
					st.Cur, st.Parent = st.Label, st.Label
					if !cancelled {
						m.Failures++
					}
				}
			}
			break
		}

		// Combined exchange: thresholds to part holders + state handoff.
		out, kept := m.outBuf[:0], m.States[:0]
		for _, st := range m.States {
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
			kept, out = m.handOff(st, tagState, kept, out)
		}
		recv := m.Comm.Exchange(out)
		ths := w.thresholds[:0]
		for _, msg := range recv {
			switch msg.Data[0] {
			case tagThreshold:
				r := wire.NewReader(msg.Data[1:])
				ths = append(ths, threshold{label: r.Uvarint(), w: r.Varint(), id: r.Uvarint()})
			case tagState:
				kept = append(kept, m.DecodeStateInto(wire.NewReader(msg.Data[1:])))
			default:
				panic("core: unknown elimination message tag")
			}
		}
		m.installStates(kept)

		// Filtered parts to the (new) proxies, by ascending label (a
		// component has one proxy, so labels are distinct): a re-sketch, or
		// a light part's rows lighter than the threshold.
		slices.SortFunc(ths, func(a, b threshold) int { return cmp.Compare(a.label, b.label) })
		w.thresholds = ths
		seed := m.Sh.SketchSeed(m.Phase, s)
		out, m.encScratch = out[:0], m.encScratch[:0]
		part := m.Pool().Get(seed)
		for _, th := range ths {
			w.cut = th
			members := Members(parts, th.label)
			sk := m.partSketch(part, members, w.lighter)
			out = append(out, proxy.Out{Dst: m.ProxyOf(m.StateSlot, th.label), Data: m.PartPayload(th.label, members, w.lighter, sk)})
		}
		m.Pool().Put(part)
		recv = m.Comm.Exchange(out)
		m.outBuf = out
		m.SumAndSample(recv, seed, false)
		active = w.sampleAndResolve()
	}

	// Decisions: record MWOEs as MST edges and apply the merge rule.
	for _, st := range m.States {
		if st.ElimDone && st.HasBest {
			w.Edges = append(w.Edges, graph.Edge{U: st.BestU, V: st.BestV, W: st.BestW})
			m.PhaseActive++
			m.ApplyRank(st, st.TargetLabel)
		}
	}
}

// sampleAndResolve takes every slot each state's summed sketch verified,
// asks the outside endpoint's home machine about each of them (askSlots:
// neighbour label, existence, weight), and makes the lightest valid reply
// under the (weight, edge ID) order the component's new best edge. It
// returns the local count of components still eliminating.
//
// A component has converged — its best edge is the MWOE — when its
// filtered vector comes back empty, or when the sum decoded in full and
// every slot was confirmed: the slots then are all the lighter outgoing
// edges there are, and the lightest of them needs no confirming empty
// iteration. A step fails only when no reply is usable.
func (w *MWOE) sampleAndResolve() uint64 {
	m := w.M
	asked := m.sl.asked[:0]
	for _, st := range m.States {
		fresh := st.sampled
		st.sampled = false
		if st.ElimDone || !fresh {
			continue
		}
		switch st.status {
		case sketch.Empty:
			// Nothing lighter remains. If a best edge exists, it is the
			// MWOE; otherwise the component has no outgoing edges at all.
			st.ElimDone = true
		case sketch.Failed:
			m.Failures++
			st.ElimDone = true
			st.HasBest = false
		case sketch.Sampled:
			asked = append(asked, st)
		}
	}
	m.sl.asked = asked
	var active uint64
	m.askSlots(asked, func(st *CompState, slots []sketch.Slot, reps []reply) {
		usable, confirmed := false, true
		var bestID uint64
		for i, sl := range slots {
			rp := reps[i]
			if !rp.valid || rp.label == st.Label {
				// A fingerprint collision produced a slot that is no
				// outgoing edge: the decode cannot be trusted to be whole.
				confirmed = false
				continue
			}
			if usable && (rp.w > st.BestW || rp.w == st.BestW && sl.ID > bestID) {
				continue
			}
			usable, bestID = true, sl.ID
			st.BestU, st.BestV, _ = sl.Edge(m.Cfg.Sketch.N)
			st.BestW, st.TargetLabel = rp.w, rp.label
		}
		switch {
		case !usable:
			m.Failures++
			st.ElimDone = true
			st.HasBest = false
		case st.full && confirmed:
			st.HasBest, st.ElimDone = true, true
		default:
			st.HasBest = true
			active++
		}
	})
	return active
}

// sortEdges orders es by edge ID over n vertices and drops repeats: two
// components proxied on one machine, or two machines, can record one edge.
func sortEdges(es []graph.Edge, n int) []graph.Edge {
	slices.SortFunc(es, func(a, b graph.Edge) int {
		return cmp.Compare(graph.EdgeID(a.U, a.V, n), graph.EdgeID(b.U, b.V, n))
	})
	return slices.CompactFunc(es, func(a, b graph.Edge) bool {
		return graph.EdgeID(a.U, a.V, n) == graph.EdgeID(b.U, b.V, n)
	})
}

// DisseminateStrong routes every recorded MST edge, in Edges' order, to the
// home machines of both endpoints (Theorem 2(b)'s output criterion) and
// returns this machine's vertex-to-incident-MST-edges map.
func (w *MWOE) DisseminateStrong() map[int][]graph.Edge {
	m := w.M
	n := m.View.N()
	a := m.Comm.Arena()
	var out []proxy.Out
	for _, e := range w.Edges {
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
