// MST construction (§3.1, Theorem 2): Boruvka phases as in connectivity,
// but each phase finds every component's minimum-weight outgoing edge
// (MWOE) by repeated sketch-and-eliminate: sample outgoing edges (every
// slot the summed sketch verifies, where the paper draws one — see MWOE),
// broadcast the lightest one's weight to the component's parts, re-sketch
// only strictly lighter edges, and repeat until the sampler reports an
// empty vector or decodes the remaining edges in full — the lightest edge
// seen is then the MWOE w.h.p. Every MWOE is an MST edge
// by the cut property (weights are totally ordered by (w, edge ID), so the
// MST is unique); components then merge along DRR trees exactly as in the
// connectivity algorithm.
//
// Output criteria (Theorem 2): by default every MST edge is known to at
// least one machine (the proxy that recorded it), achieving Õ(n/k²)
// rounds. StrongOutput additionally routes every MST edge to the home
// machines of both endpoints — the classical output criterion — which the
// paper proves costs Θ̃(n/k) in the worst case (experiment E7 reproduces
// the star-graph separation).

package core

import (
	"context"
	"fmt"
	"slices"

	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
)

// MSTConfig parameterizes an MST run.
type MSTConfig struct {
	Config
	// StrongOutput also delivers each MST edge to both endpoints' home
	// machines (Theorem 2(b)).
	StrongOutput bool
}

// MSTResult is the outcome of an MST run.
type MSTResult struct {
	// Edges is the minimum spanning forest under the (weight, edge ID)
	// order, in canonical form, sorted by edge ID.
	Edges []graph.Edge
	// TotalWeight is the forest weight.
	TotalWeight int64
	// Labels is the final component labeling (as in connectivity).
	Labels []uint64
	// Phases is the number of Boruvka phases executed.
	Phases int
	// ElimIters is the total number of elimination iterations.
	ElimIters int
	// SketchFailures counts sampling failures.
	SketchFailures int64
	// WeakRounds is the round count before strong-output dissemination
	// (equals Metrics.Rounds when StrongOutput is false).
	WeakRounds int
	// VertexEdges, in StrongOutput mode, maps each vertex to the MST
	// edges incident to it as known by its home machine.
	VertexEdges map[int][]graph.Edge
	// Metrics is the engine's cost accounting.
	Metrics kmachine.Metrics
}

// MSTOutput is each machine's designated output of an MST job (the MST
// counterpart of MachineOutput).
type MSTOutput struct {
	Owned       []int    // as in MachineOutput
	Labels      []uint64 // Labels[i] is the component label of Owned[i]
	Edges       []graph.Edge
	VertexEdges map[int][]graph.Edge
	Failures    int64
	Phases      int
	Converged   bool
	ElimIters   int
	WeakRounds  int
}

// RunMST executes the MST algorithm on g under a fresh random vertex
// partition.
func RunMST(g *graph.Graph, cfg MSTConfig) (*MSTResult, error) {
	return RunMSTContext(context.Background(), g, cfg)
}

// RunMSTContext is RunMST with cancellation: when ctx is cancelled or its
// deadline passes, the underlying cluster aborts and ctx.Err() is
// returned.
func RunMSTContext(ctx context.Context, g *graph.Graph, cfg MSTConfig) (*MSTResult, error) {
	cfg.Config = cfg.Config.WithDefaults(g.N())
	part, err := kmachine.LoadShards(g.Source(), cfg.K, kmachine.RVPSeed(cfg.Seed))
	if err != nil {
		return nil, err
	}
	res, err := runOneShot(ctx, cfg.Config, mstHandler(part.Shard, cfg))
	if err != nil {
		return nil, err
	}
	out, err := AssembleMST(g.N(), res.Outputs)
	if out != nil {
		out.Metrics = res.Metrics
	}
	return out, err
}

// AssembleMST combines one MSTOutput per machine into the global MST
// result over n vertices (Metrics is left to the host, as in Assemble).
// Every vertex must be labeled by exactly one machine. When the machines
// ran out of phases the edges are MST edges but the forest is not whole,
// and it comes back together with ErrNotConverged.
func AssembleMST(n int, outputs []any) (*MSTResult, error) {
	out := &MSTResult{Labels: make([]uint64, n)}
	converged := true
	placed := make([]bool, n)
	for i, o := range outputs {
		mo, ok := o.(*MSTOutput)
		if !ok {
			return nil, fmt.Errorf("core: machine %d produced no MST output", i)
		}
		if err := placeLabels(out.Labels, placed, i, mo.Owned, mo.Labels); err != nil {
			return nil, err
		}
		out.Edges = append(out.Edges, mo.Edges...)
		out.SketchFailures += mo.Failures
		converged = converged && mo.Converged
		if mo.Phases > out.Phases {
			out.Phases = mo.Phases
		}
		if mo.ElimIters > out.ElimIters {
			out.ElimIters = mo.ElimIters
		}
		if mo.WeakRounds > out.WeakRounds {
			out.WeakRounds = mo.WeakRounds
		}
		if mo.VertexEdges != nil {
			if out.VertexEdges == nil {
				out.VertexEdges = make(map[int][]graph.Edge)
			}
			for v, es := range mo.VertexEdges {
				out.VertexEdges[v] = es
			}
		}
	}
	if v := slices.Index(placed, false); v >= 0 {
		return nil, fmt.Errorf("core: no machine labeled vertex %d of %d", v, n)
	}
	out.Edges = sortEdges(out.Edges, n)
	for _, e := range out.Edges {
		out.TotalWeight += e.W
	}
	if !converged {
		return out, ErrNotConverged
	}
	return out, nil
}

// mstHandler returns the per-machine MST program over the given shard
// lookup. cfg must already be resolved (Config.WithDefaults).
func mstHandler(shard func(id int) *kmachine.Shard, cfg MSTConfig) kmachine.Handler {
	return func(mctx *kmachine.Ctx) error {
		m := NewMerger(mctx, shard(mctx.ID()), cfg.Config)
		defer m.ReleasePools()
		if err := m.Setup(); err != nil {
			return err
		}
		out, _ := m.MSTJob(0, cfg.StrongOutput, nil)
		mctx.SetOutput(out)
		return nil
	}
}

// MSTJob is the Theorem 2 program over a ready Merger: MWOE selection
// phases numbered from firstPhase, MST edges accumulated on the proxies
// (weak output) and, with strong set, disseminated to both endpoints'
// homes. A cancelled job skips the dissemination.
func (m *Merger) MSTJob(firstPhase int, strong bool, after PhaseFunc) (out *MSTOutput, cancelled bool) {
	w := NewMWOE(m)
	phases, converged, cancelled := m.RunPhases(firstPhase, m.Cfg.MaxPhases, func(int) { w.Select() }, after)
	out = &MSTOutput{Phases: phases, Converged: converged, WeakRounds: m.Ctx.Round()}
	w.Edges = sortEdges(w.Edges, m.View.N())
	if strong && !cancelled {
		out.VertexEdges = w.DisseminateStrong()
	}
	out.Owned, out.Labels = m.View.Owned(), m.Labels
	out.Failures = m.Failures
	out.ElimIters = w.ElimIters
	out.Edges = w.Edges
	return out, cancelled
}
