package experiments

import (
	"context"
	"math"

	"kmgraph/internal/congested"
	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/rep"
	"kmgraph/internal/resident"
	"kmgraph/internal/stats"
	"kmgraph/internal/verify"
)

// E6: Theorem 2(a) — MST rounds vs k scale like k^-2 (weak output), with
// the REP-model MST (Θ̃(n/k)) as the contrast.
func E6() Experiment {
	return Experiment{
		ID:       "E6",
		Title:    "MST rounds vs k (RVP sketch vs REP model)",
		PaperRef: "Theorem 2(a); §1.3",
		Run: func(p Params) ([]*stats.Table, error) {
			n, ks := 1024, []int{2, 4, 8, 16}
			if p.Quick {
				n, ks = 256, []int{2, 4, 8}
			}
			g := graph.WithDistinctWeights(graph.GNM(n, 3*n, p.Seed+19), p.Seed+23)
			want, wantTotal := graph.KruskalMST(g)
			tb := stats.NewTable("E6: MST rounds vs k (n="+stats.I(n)+", m="+stats.I(3*n)+")",
				"k", "sketch MST", "weight ok")
			var kf, rvp []float64
			for _, k := range ks {
				r, err := core.RunMST(g, core.MSTConfig{Config: core.Config{K: k, Seed: p.Seed}})
				if err != nil {
					return nil, err
				}
				ok := r.TotalWeight == wantTotal && len(r.Edges) == len(want)
				kf = append(kf, float64(k))
				rvp = append(rvp, float64(r.Metrics.Rounds))
				okCell := "yes"
				if !ok {
					okCell = "NO"
				}
				tb.AddRow(stats.I(k), stats.I(r.Metrics.Rounds), okCell)
			}
			cut := 0
			for i, k := range ks {
				if k <= 8 {
					cut = i + 1
				}
			}
			s1, _ := stats.FitPowerLaw(kf[:cut], rvp[:cut])
			tb.AddNote("sketch MST slope (k<=8): %.2f (paper Theorem 2a: ~-2)", s1)
			floor := rvp[len(rvp)-1]
			var vol []float64
			for _, r := range rvp[:cut] {
				vol = append(vol, r-floor)
			}
			vs, _ := stats.FitPowerLaw(kf[:cut], vol)
			tb.AddNote("volume slope after subtracting the k=%d floor (%.0f rounds): %.2f",
				ks[len(ks)-1], floor, vs)

			// REP contrast on a dense graph, where the local cycle-property
			// filter bites and the conversion routes Θ(k·n) edge copies —
			// Θ̃(n/k) rounds per §1.3 (slope ~-1 while k(n-1) < m).
			nd := n / 2
			md := nd * nd / 8
			gd := graph.WithDistinctWeights(graph.GNM(nd, md, p.Seed+53), p.Seed+59)
			_, denseTotal := graph.KruskalMST(gd)
			tb2 := stats.NewTable("E6b: REP-model MST on a dense graph (n="+stats.I(nd)+", m="+stats.I(md)+")",
				"k", "conversion rounds", "MST rounds", "total", "filtered edges", "weight ok")
			var kf2, conv []float64
			for _, k := range ks {
				rr, err := rep.MST(gd, core.Config{K: k, Seed: p.Seed})
				if err != nil {
					return nil, err
				}
				okCell := "yes"
				if rr.TotalWeight != denseTotal {
					okCell = "NO"
				}
				kf2 = append(kf2, float64(k))
				conv = append(conv, float64(rr.ConversionRounds))
				tb2.AddRow(stats.I(k), stats.I(rr.ConversionRounds), stats.I(rr.MSTRounds),
					stats.I(rr.TotalRounds), stats.I(rr.FilteredEdges), okCell)
			}
			s2, _ := stats.FitPowerLaw(kf2[:cut], conv[:cut])
			tb2.AddNote("conversion slope (k<=8): %.2f (paper §1.3: ~-1 — the Θ̃(n/k) REP bottleneck)", s2)
			return []*stats.Table{tb, tb2}, nil
		},
	}
}

// E7: Theorem 2(b) — the strong output criterion (both endpoints' homes
// must know each MST edge) costs Θ̃(n/k) on a star, where one machine must
// receive Θ(n) edge announcements, but little on bounded-degree graphs.
func E7() Experiment {
	return Experiment{
		ID:       "E7",
		Title:    "MST output criteria: weak vs strong dissemination cost",
		PaperRef: "Theorem 2(b)",
		Run: func(p Params) ([]*stats.Table, error) {
			n, ks := 1024, []int{2, 4, 8, 16}
			if p.Quick {
				n, ks = 256, []int{2, 4, 8}
			}
			tb := stats.NewTable("E7: strong-output extra rounds (n="+stats.I(n)+")",
				"k", "star extra", "GNM extra")
			star := graph.WithDistinctWeights(graph.Star(n), p.Seed+29)
			gnm := graph.WithDistinctWeights(graph.GNM(n, 3*n, p.Seed+31), p.Seed+37)
			var kf, starX []float64
			for _, k := range ks {
				extra := func(g *graph.Graph) (float64, error) {
					r, err := core.RunMST(g, core.MSTConfig{
						Config: core.Config{K: k, Seed: p.Seed}, StrongOutput: true})
					if err != nil {
						return 0, err
					}
					return float64(r.Metrics.Rounds - r.WeakRounds), nil
				}
				se, err := extra(star)
				if err != nil {
					return nil, err
				}
				ge, err := extra(gnm)
				if err != nil {
					return nil, err
				}
				kf = append(kf, float64(k))
				starX = append(starX, se)
				tb.AddRow(stats.I(k), stats.F(se), stats.F(ge))
			}
			slope, _ := stats.FitPowerLaw(kf, starX)
			tb.AddNote("star extra-cost slope: %.2f (paper: ~-1, the Θ̃(n/k) bottleneck)", slope)
			return []*stats.Table{tb}, nil
		},
	}
}

// E8: Theorem 3 — min-cut O(log n)-approximation quality and cost.
func E8() Experiment {
	return Experiment{
		ID:       "E8",
		Title:    "Min-cut approximation quality",
		PaperRef: "Theorem 3",
		Run: func(p Params) ([]*stats.Table, error) {
			s := 24
			if p.Quick {
				s = 10
			}
			cases := []struct {
				name string
				g    *graph.Graph
			}{
				{"cycle", graph.Cycle(4 * s)},
				{"bridged-1", graph.TwoCliquesBridged(s, 1, p.Seed+1)},
				{"bridged-4", graph.TwoCliquesBridged(s, 4, p.Seed+2)},
				{"bridged-16", graph.TwoCliquesBridged(s, 16, p.Seed+3)},
				{"complete", graph.Complete(2 * s)},
			}
			tb := stats.NewTable("E8: min-cut estimates",
				"graph", "n", "true λ", "estimate", "ratio", "runs", "rounds")
			for _, tc := range cases {
				lambda := graph.MinCut(tc.g)
				e, err := resident.New(tc.g, resident.Config{Config: core.Config{K: 4, Seed: p.Seed}})
				if err != nil {
					return nil, err
				}
				r, err := e.MinCut(context.Background(), 0, 0)
				e.Close()
				if err != nil {
					return nil, err
				}
				ratio := r.Estimate / float64(lambda)
				if ratio < 1 {
					ratio = 1 / ratio
				}
				tb.AddRow(tc.name, stats.I(tc.g.N()), stats.I(lambda), stats.F(r.Estimate),
					stats.F(ratio), stats.I(r.Runs), stats.I(r.Rounds))
			}
			tb.AddNote("paper: O(log n)-approximation w.h.p.; ln(%d) = %.1f", 2*s, math.Log(float64(2*s)))
			return []*stats.Table{tb}, nil
		},
	}
}

// E9: Theorem 4 — all eight verification problems at Õ(n/k²) cost, with
// verdicts matched against sequential oracles.
func E9() Experiment {
	return Experiment{
		ID:       "E9",
		Title:    "Verification problems",
		PaperRef: "Theorem 4",
		Run: func(p Params) ([]*stats.Table, error) {
			n := 1024
			if p.Quick {
				n = 256
			}
			g := graph.RandomConnected(n, 2*n, p.Seed+41)
			tree, _ := graph.KruskalMST(g)
			bridgedG := graph.TwoCliquesBridged(n/8, 2, p.Seed+43)
			var bridges []graph.Edge
			for _, e := range bridgedG.Edges() {
				if (e.U < n/8) != (e.V < n/8) {
					bridges = append(bridges, e)
				}
			}
			path, grid, odd := graph.Path(n), graph.Grid(n/32, 32), graph.Cycle(n+1)
			probe := g.Edges()[0]
			onCycle := graph.SameComponent(g.RemoveEdges([]graph.Edge{probe}), probe.U, probe.V)

			tb := stats.NewTable("E9: verification verdicts and cost (k=4, n="+stats.I(n)+")",
				"problem", "verdict", "oracle", "match", "runs", "rounds")
			rows := []struct {
				name   string
				g      *graph.Graph
				p      verify.Problem
				args   verify.Args
				oracle bool
			}{
				{"spanning connected subgraph", g, verify.SpanningConnectedSubgraph, verify.Args{H: tree}, true},
				{"cut", bridgedG, verify.CutVerification, verify.Args{Cut: bridges}, true},
				{"s-t connectivity", g, verify.STConnectivity, verify.Args{S: 0, T: n - 1}, graph.SameComponent(g, 0, n-1)},
				{"edge on all paths", path, verify.EdgeOnAllPaths, verify.Args{S: 0, T: n - 1, E: graph.Edge{U: n / 2, V: n/2 + 1}}, true},
				{"s-t cut", bridgedG, verify.STCutVerification, verify.Args{S: 0, T: n / 8, Cut: bridges}, true},
				{"bipartiteness (grid)", grid, verify.Bipartiteness, verify.Args{}, true},
				{"bipartiteness (odd cycle)", odd, verify.Bipartiteness, verify.Args{}, false},
				{"cycle containment", g, verify.CycleContainment, verify.Args{}, graph.HasCycle(g)},
				{"e-cycle containment", g, verify.ECycleContainment, verify.Args{E: probe}, onCycle},
			}
			// One residency per graph serves every problem asked of it.
			engines := make(map[*graph.Graph]*resident.Engine)
			for _, r := range rows {
				e := engines[r.g]
				if e == nil {
					var err error
					if e, err = resident.New(r.g, resident.Config{Config: core.Config{K: 4, Seed: p.Seed}}); err != nil {
						return nil, err
					}
					defer e.Close()
					engines[r.g] = e
				}
				out, err := e.Verify(context.Background(), r.p, r.args)
				if err != nil {
					return nil, err
				}
				verdict, oracle := "false", "false"
				if out.Holds {
					verdict = "true"
				}
				if r.oracle {
					oracle = "true"
				}
				match := "yes"
				if out.Holds != r.oracle {
					match = "NO"
				}
				tb.AddRow(r.name, verdict, oracle, match, stats.I(out.Runs), stats.I(out.Rounds))
			}
			tb.AddNote("every verdict must equal its oracle column")
			return []*stats.Table{tb}, nil
		},
	}
}

// E12: §1.2/§1.3 — the Conversion Theorem replay and its Õ(M/k² + Δ'T/k)
// prediction.
func E12() Experiment {
	return Experiment{
		ID:       "E12",
		Title:    "Congested-clique conversion vs prediction",
		PaperRef: "§2 warm-up; Klauck et al. Theorem 4.1",
		Run: func(p Params) ([]*stats.Table, error) {
			n, ks := 512, []int{2, 4, 8, 16}
			if p.Quick {
				n, ks = 128, []int{2, 4, 8}
			}
			g := graph.GNM(n, 4*n, p.Seed+47)
			labels, tr := congested.FloodingCC(g)
			want, _ := graph.Components(g)
			if !graph.SameLabeling(labels, want) {
				panic("congested clique flooding incorrect")
			}
			tb := stats.NewTable("E12: conversion of a congested-clique flooding trace (n="+stats.I(n)+")",
				"k", "measured rounds", "M/(k²B) term", "Δ'T/(kB) term", "predicted")
			for _, k := range ks {
				r, err := congested.Convert(tr, core.Config{K: k, Seed: p.Seed})
				if err != nil {
					return nil, err
				}
				tb.AddRow(stats.I(k), stats.I(r.Rounds), stats.F(r.TermMessages),
					stats.F(r.TermDelta), stats.F(r.Predicted()))
			}
			tb.AddNote("trace: T=%d rounds, M=%d messages, Δ'=%d", tr.Rounds, len(tr.Messages), tr.MaxDelta)
			tb.AddNote("measured includes the 2-exchange-per-round floor; shapes should track the prediction")
			return []*stats.Table{tb}, nil
		},
	}
}
