// Derived views: the per-job graph transformations that let one resident
// cluster serve min-cut sampling trials and the verification reductions
// without touching the loaded adjacency. Every transformation is local
// knowledge in the model — an edge's membership is decidable at both
// endpoints' home machines from the spec alone (an edge-ID set shipped on
// the free control plane, a shared hash, or the double-cover construction)
// — so deriving a view costs zero rounds.

package resident

import (
	"slices"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/mincut"
	"kmgraph/internal/verify"
)

// View kinds of a derived run.
const (
	viewFull   = iota // the live resident graph as-is
	viewKeep          // keep only edges in the spec's edge-ID set
	viewRemove        // remove the edges in the spec's edge-ID set
	viewSample        // keep edges whose shared hash clears a threshold
	viewCover         // the bipartite double cover of the live graph
)

// runSpec describes one derived-view connectivity run. It travels on the
// control plane (a cmdDerived command): subgraph membership is local
// knowledge — every machine knows which of its vertices' incident edges
// are in H.
type runSpec struct {
	kind             int
	edges            map[uint64]bool // viewKeep / viewRemove, by EdgeID over n
	tseed, threshold uint64          // viewSample
	probeU, probeV   int             // live-graph presence probe; -1 = none
}

// newRunSpec returns a spec of the given view kind with no presence
// probe (probe endpoints are -1; a probe is requested by setting both).
func newRunSpec(kind int) *runSpec {
	return &runSpec{kind: kind, probeU: -1, probeV: -1}
}

// specForView maps a verification reduction's view of G to the run spec
// the machines derive it from; edge sets travel as EdgeIDs over n.
func specForView(v verify.View, n int) *runSpec {
	s := newRunSpec(viewFull)
	switch v.Kind {
	case verify.ViewKeep:
		s.kind = viewKeep
	case verify.ViewRemove:
		s.kind = viewRemove
	case verify.ViewDoubleCover:
		s.kind = viewCover
	}
	if s.kind == viewKeep || s.kind == viewRemove {
		s.edges = make(map[uint64]bool, len(v.Edges))
		for _, ed := range v.Edges {
			ed = ed.Canon()
			s.edges[graph.EdgeID(ed.U, ed.V, n)] = true
		}
	}
	if v.Probe != nil {
		s.probeU, s.probeV = v.Probe.U, v.Probe.V
	}
	return s
}

// keepEdge reports whether the (canonical) edge {u,v} of the live n-vertex
// graph survives the spec's filter.
func (s *runSpec) keepEdge(u, v, n int) bool {
	switch s.kind {
	case viewKeep:
		return s.edges[graph.EdgeID(u, v, n)]
	case viewRemove:
		return !s.edges[graph.EdgeID(u, v, n)]
	case viewSample:
		return mincut.Sampled(s.tseed, s.threshold, graph.EdgeID(u, v, n))
	}
	return true
}

// derive materializes the spec's view over the machine's live adjacency:
// the shard one job runs over. Local computation is free in the model;
// only the merge phases that run over the view are metered.
func (m *rmachine) derive(spec *runSpec) *kmachine.Shard {
	live := m.view
	if spec.kind == viewFull {
		return live
	}
	if spec.kind == viewCover {
		// Bipartite double cover: vertices v and v+n, each base edge {u,v}
		// lifts to {u, v+n} and {u+n, v}. Keeping both copies of a vertex
		// on its base home machine preserves the RVP locality argument.
		// The owned list is the base vertices, then their lifts: ascending.
		n, base := live.N(), live.Owned()
		owned := make([]int, 2*len(base))
		rows := make([][]graph.Half, 2*len(base))
		for i, v := range base {
			row := live.Row(i)
			up := make([]graph.Half, len(row))
			for j, h := range row {
				up[j] = graph.Half{To: h.To + n, W: h.W}
			}
			owned[i], rows[i] = v, up
			owned[len(base)+i], rows[len(base)+i] = v+n, slices.Clone(row)
		}
		return kmachine.NewShard(2*n, live.ID(), owned, func(x int) int { return live.Home(x % n) }, rows)
	}
	n := live.N()
	rows := make([][]graph.Half, len(live.Owned()))
	for i, v := range live.Owned() {
		for _, h := range live.Row(i) {
			if spec.keepEdge(v, h.To, n) {
				rows[i] = append(rows[i], h)
			}
		}
	}
	return kmachine.NewShard(n, live.ID(), live.Owned(), live.Home, rows)
}

// runConfig resolves the core config a derived run uses: the double cover
// doubles the vertex universe, so sketch dimensions and the phase cap
// scale exactly as a run on the cover graph itself would size them.
func (m *rmachine) runConfig(spec *runSpec) core.Config {
	cfg := m.h.cfg
	if spec.kind == viewCover {
		cfg.Sketch.N = 2 * m.view.N()
		cfg.Sketch.Levels += 2
		cfg.MaxPhases += 12
	}
	return cfg
}
