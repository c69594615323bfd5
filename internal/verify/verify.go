// Package verify implements the paper's graph verification problems
// (§3.3, Theorem 4), each as a reduction to one or two runs of the fast
// connectivity algorithm, all in Õ(n/k²) rounds:
//
//   - spanning connected subgraph (SCS)
//   - cut verification
//   - s-t connectivity
//   - edge on all paths
//   - s-t cut verification
//   - bipartiteness (via the bipartite double cover, following AGM §3.3)
//   - cycle containment
//   - e-cycle containment
//
// Subgraphs are presented as edge sets; filtering is local knowledge in
// the model (every machine knows which of its vertices' incident edges are
// in H), so running connectivity on the filtered graph under the same
// partition is the faithful protocol.
package verify

import (
	"errors"
	"fmt"

	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
)

// Problem identifies one of the Theorem 4 verification problems.
type Problem int

const (
	// SpanningConnectedSubgraph: does H span G and is it connected?
	SpanningConnectedSubgraph Problem = iota
	// CutVerification: does removing the edge set disconnect G further?
	CutVerification
	// STConnectivity: are S and T connected?
	STConnectivity
	// EdgeOnAllPaths: does E lie on every S-T path?
	EdgeOnAllPaths
	// STCutVerification: does removing the edge set separate S from T?
	STCutVerification
	// Bipartiteness: is G 2-colorable (via the double cover)?
	Bipartiteness
	// CycleContainment: does G contain any cycle?
	CycleContainment
	// ECycleContainment: does E lie on some cycle?
	ECycleContainment
)

// problemNames is the one name table: Problem.String, ParseProblem, the
// kmserve verify endpoint and cmd/kmrun verify all read it.
var problemNames = [...]string{
	SpanningConnectedSubgraph: "scs",
	CutVerification:           "cut",
	STConnectivity:            "stconn",
	EdgeOnAllPaths:            "allpaths",
	STCutVerification:         "stcut",
	Bipartiteness:             "bipartite",
	CycleContainment:          "cycle",
	ECycleContainment:         "ecycle",
}

// String returns the problem's short name.
func (p Problem) String() string {
	if p >= 0 && int(p) < len(problemNames) {
		return problemNames[p]
	}
	return fmt.Sprintf("problem(%d)", int(p))
}

// ParseProblem resolves a short name (as printed by String).
func ParseProblem(name string) (Problem, bool) {
	for p, s := range problemNames {
		if s == name {
			return Problem(p), true
		}
	}
	return 0, false
}

// Args carries the per-problem arguments. Unused fields are ignored.
type Args struct {
	// H is the subgraph edge set (SpanningConnectedSubgraph).
	H []graph.Edge
	// Cut is the candidate cut edge set (CutVerification,
	// STCutVerification).
	Cut []graph.Edge
	// S and T are the query vertices (STConnectivity, EdgeOnAllPaths,
	// STCutVerification).
	S, T int
	// E is the query edge (EdgeOnAllPaths, ECycleContainment).
	E graph.Edge
}

// ErrBadArgs tags a refused argument: an s/t vertex or an H / Cut / E
// endpoint outside [0, n). Decide refuses it before any run, on every host.
var ErrBadArgs = errors.New("invalid arguments")

// Outcome reports a verification verdict and its cost.
type Outcome struct {
	// Holds is the verification verdict.
	Holds bool
	// Runs is the number of connectivity executions used.
	Runs int
	// Rounds is the total k-machine rounds across executions.
	Rounds int
	// Metrics aggregates the executions' cost.
	Metrics kmachine.Metrics
}

// ViewKind selects how a connectivity run's graph derives from G; the
// zero ViewKind is G itself.
type ViewKind int

const (
	// ViewKeep keeps only the edges in View.Edges.
	ViewKeep ViewKind = iota + 1
	// ViewRemove removes the edges in View.Edges.
	ViewRemove
	// ViewDoubleCover is the bipartite double cover of G (2n vertices).
	ViewDoubleCover
)

// View describes the graph one connectivity run of a reduction sees.
// Membership is local knowledge in the model, so a host derives it at
// zero rounds: the resident host filters each machine's live adjacency.
type View struct {
	Kind  ViewKind
	Edges []graph.Edge
	// Probe, when set, additionally asks whether this (canonical) edge is
	// present in G itself; the answer comes back as Run.ProbePresent.
	Probe *graph.Edge
}

// Run is what a reduction reads off one connectivity execution.
type Run struct {
	Components   int
	Labels       []uint64
	ProbePresent bool
}

// Decide expresses each Theorem 4 reduction once, over the host's
// connectivity runner: n and m are G's vertex and edge counts, run
// executes connectivity on a View of G. It fills Holds and Runs; the
// host accounts Rounds and Metrics.
func Decide(p Problem, args Args, n, m int, run func(View) (Run, error)) (*Outcome, error) {
	out := &Outcome{}
	var err error
	// do is run with a sticky error, so a reduction reads top to bottom.
	do := func(v View) Run {
		if err != nil {
			return Run{}
		}
		var r Run
		if r, err = run(v); err != nil {
			return Run{}
		}
		out.Runs++
		return r
	}
	// inRange refuses, before any run, an edge argument with an endpoint
	// outside [0, n): graph.EdgeID(u, v, n) = u·n + v would alias it onto a
	// real edge ({0, 12} is (1, 2) when n = 10).
	inRange := func(what string, es ...graph.Edge) {
		for _, e := range es {
			if err == nil && (e.U < 0 || e.V < 0 || e.U >= n || e.V >= n) {
				err = fmt.Errorf("verify: %w: %s edge (%d,%d) outside [0,%d)", ErrBadArgs, what, e.U, e.V, n)
			}
		}
	}
	// connected answers s-t connectivity on a view of G.
	connected := func(v View, s, t int) bool {
		if err == nil && (s < 0 || t < 0 || s >= n || t >= n) {
			err = fmt.Errorf("verify: %w: s/t (%d,%d) outside [0,%d)", ErrBadArgs, s, t, n)
		}
		r := do(v)
		return err == nil && r.Labels[s] == r.Labels[t]
	}

	switch p {
	case SpanningConnectedSubgraph:
		inRange("H", args.H...)
		out.Holds = do(View{Kind: ViewKeep, Edges: args.H}).Components == 1 || n <= 1
	case CutVerification:
		inRange("cut", args.Cut...)
		before := do(View{}).Components
		after := do(View{Kind: ViewRemove, Edges: args.Cut}).Components
		out.Holds = after > before
	case STConnectivity:
		out.Holds = connected(View{}, args.S, args.T)
	case EdgeOnAllPaths:
		// True iff S and T are disconnected in G \ {E} (§3.3).
		inRange("E", args.E)
		out.Holds = !connected(View{Kind: ViewRemove, Edges: []graph.Edge{args.E}}, args.S, args.T)
	case STCutVerification:
		inRange("cut", args.Cut...)
		out.Holds = !connected(View{Kind: ViewRemove, Edges: args.Cut}, args.S, args.T)
	case Bipartiteness:
		// G is bipartite iff its double cover has exactly twice as many
		// connected components as G.
		ccG := do(View{}).Components
		ccD := do(View{Kind: ViewDoubleCover}).Components
		out.Holds = ccD == 2*ccG
	case CycleContainment:
		out.Holds = m > n-do(View{}).Components
	case ECycleContainment:
		// True iff E's endpoints remain connected in G \ {E}.
		e := args.E.Canon()
		inRange("E", e)
		var r Run
		if e.U != e.V { // a self-loop is absent without asking
			r = do(View{Kind: ViewRemove, Edges: []graph.Edge{e}, Probe: &e})
		}
		if err == nil && !r.ProbePresent {
			err = fmt.Errorf("verify: edge (%d,%d) not in graph", e.U, e.V)
		}
		out.Holds = err == nil && r.Labels[e.U] == r.Labels[e.V]
	default:
		return nil, fmt.Errorf("verify: unknown problem %d", int(p))
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
