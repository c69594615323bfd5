package experiments

import (
	"math"

	"math/rand"

	"kmgraph/internal/baseline"
	"kmgraph/internal/core"
	"kmgraph/internal/drr"
	"kmgraph/internal/graph"
	"kmgraph/internal/stats"
)

// E1: Theorem 1 — connectivity rounds vs k. The sketch algorithm should
// scale like k^-2; the edge-check, flooding, and referee baselines like
// k^-1 (or worse). Slopes are fitted on the small-k range where the n/k²
// term dominates the additive polylog floor that Õ(·) hides.
func E1() Experiment {
	return Experiment{
		ID:       "E1",
		Title:    "Connectivity rounds vs k (sketch vs baselines)",
		PaperRef: "Theorem 1; §1.2 flooding/referee discussion",
		Run: func(p Params) ([]*stats.Table, error) {
			n, ks := 2048, []int{2, 3, 4, 6, 8, 12, 16}
			if p.Quick {
				n, ks = 512, []int{2, 4, 8}
			}
			g := graph.GNM(n, 3*n, p.Seed+5)
			tb := stats.NewTable("E1: connectivity rounds vs k (n="+stats.I(n)+", m="+stats.I(3*n)+")",
				"k", "sketch", "edge-check", "flooding", "referee")
			series := map[string][]float64{}
			kf := make([]float64, 0, len(ks))
			for _, k := range ks {
				kf = append(kf, float64(k))
				row := []string{stats.I(k)}
				for _, algo := range []string{"sketch", "edge-check", "flooding", "referee"} {
					algo := algo
					mean, err := meanOver(p.trials(), p.Seed, func(seed int64) (float64, error) {
						switch algo {
						case "sketch":
							r, err := core.Run(g, core.Config{K: k, Seed: seed})
							if err != nil {
								return 0, err
							}
							return float64(r.Metrics.Rounds), nil
						case "edge-check":
							r, err := core.Run(g, core.Config{K: k, Seed: seed, EdgeCheckSelection: true})
							if err != nil {
								return 0, err
							}
							return float64(r.Metrics.Rounds), nil
						case "flooding":
							r, err := baseline.Flooding(g, core.Config{K: k, Seed: seed})
							if err != nil {
								return 0, err
							}
							return float64(r.Metrics.Rounds), nil
						default:
							r, err := baseline.Referee(g, core.Config{K: k, Seed: seed})
							if err != nil {
								return 0, err
							}
							return float64(r.Metrics.Rounds), nil
						}
					})
					if err != nil {
						return nil, err
					}
					series[algo] = append(series[algo], mean)
					row = append(row, stats.F(mean))
				}
				tb.AddRow(row...)
			}
			// Fit on the dominated range (k <= 8). For the sketch algorithm
			// also fit after subtracting the additive per-phase barrier
			// floor (the "+polylog" term of Õ; estimated by the largest-k
			// measurement, where the n/k² volume term is negligible).
			cut := 0
			for i, k := range ks {
				if k <= 8 {
					cut = i + 1
				}
			}
			for _, algo := range []string{"sketch", "edge-check", "flooding", "referee"} {
				slope, _ := stats.FitPowerLaw(kf[:cut], series[algo][:cut])
				tb.AddNote("%s slope (k<=8): %.2f", algo, slope)
			}
			floor := series["sketch"][len(series["sketch"])-1]
			var vol []float64
			for _, r := range series["sketch"][:cut] {
				vol = append(vol, r-floor)
			}
			vslope, _ := stats.FitPowerLaw(kf[:cut], vol)
			tb.AddNote("sketch volume slope after subtracting the k=%d floor (%.0f rounds): %.2f",
				ks[len(ks)-1], floor, vslope)
			tb.AddNote("paper: sketch ~ n/k^2 + polylog additive term (Thm 1), referee ~ k^-1, flooding ~ n/k + D")

			// Second regime: a path graph, where flooding pays Θ(D) = Θ(n)
			// regardless of k while the sketch algorithm is oblivious to
			// diameter — the crossover the paper's §1.2 discussion implies.
			np := n / 2
			pg := graph.Path(np)
			tb2 := stats.NewTable("E1b: high-diameter regime, Path(n="+stats.I(np)+")",
				"k", "sketch", "flooding")
			for _, k := range []int{4, 16} {
				sk, err := core.Run(pg, core.Config{K: k, Seed: p.Seed})
				if err != nil {
					return nil, err
				}
				fl, err := baseline.Flooding(pg, core.Config{K: k, Seed: p.Seed})
				if err != nil {
					return nil, err
				}
				tb2.AddRow(stats.I(k), stats.I(sk.Metrics.Rounds), stats.I(fl.Metrics.Rounds))
			}
			tb2.AddNote("flooding needs Θ(D)=Θ(n) rounds here at every k; sketches do not")
			return []*stats.Table{tb, tb2}, nil
		},
	}
}

// E2: Theorem 1 — connectivity rounds vs n at fixed k: near-linear in n.
func E2() Experiment {
	return Experiment{
		ID:       "E2",
		Title:    "Connectivity rounds vs n (fixed k)",
		PaperRef: "Theorem 1",
		Run: func(p Params) ([]*stats.Table, error) {
			k, ns := 8, []int{256, 512, 1024, 2048, 4096}
			if p.Quick {
				k, ns = 4, []int{128, 256, 512}
			}
			tb := stats.NewTable("E2: connectivity cost vs n (k="+stats.I(k)+")",
				"n", "m", "rounds", "total Mbits", "phases")
			var nf, rf, bf []float64
			for _, n := range ns {
				g := graph.GNM(n, 3*n, p.Seed+7)
				var phases, bits float64
				mean, err := meanOver(p.trials(), p.Seed, func(seed int64) (float64, error) {
					r, err := core.Run(g, core.Config{K: k, Seed: seed})
					if err != nil {
						return 0, err
					}
					phases = float64(r.Phases)
					bits = float64(r.Metrics.TotalBits())
					return float64(r.Metrics.Rounds), nil
				})
				if err != nil {
					return nil, err
				}
				nf = append(nf, float64(n))
				rf = append(rf, mean)
				bf = append(bf, bits)
				tb.AddRow(stats.I(n), stats.I(3*n), stats.F(mean), stats.F(bits/1e6), stats.F(phases))
			}
			slope, _ := stats.FitPowerLaw(nf, rf)
			bslope, _ := stats.FitPowerLaw(nf, bf)
			tb.AddNote("rounds vs n slope: %.2f (additive polylog floor flattens small n)", slope)
			tb.AddNote("total-bits vs n slope: %.2f (paper: Θ̃(n) information, ~1 up to polylog)", bslope)

			// Per-phase cost decay at the largest n: components shrink
			// geometrically (Lemma 7), so the per-phase volume decays and
			// the total is dominated by the first phases — the structure
			// behind "O(log n) phases still cost Õ(n/k²) overall".
			nBig := ns[len(ns)-1]
			r, err := core.Run(graph.GNM(nBig, 3*nBig, p.Seed+7), core.Config{K: k, Seed: p.Seed})
			if err != nil {
				return nil, err
			}
			tb2 := stats.NewTable("E2b: per-phase rounds (n="+stats.I(nBig)+", k="+stats.I(k)+")",
				"phase", "rounds in phase")
			prev := 0
			for i, end := range r.PhaseRounds {
				tb2.AddRow(stats.I(i+1), stats.I(end-prev))
				prev = end
			}
			tb2.AddNote("early phases carry the sketch volume; late phases approach the barrier floor")
			return []*stats.Table{tb, tb2}, nil
		},
	}
}

// E3: Lemma 6 / Figure 2 — DRR tree depth stays O(log n).
func E3() Experiment {
	return Experiment{
		ID:       "E3",
		Title:    "DRR tree depth vs component count",
		PaperRef: "Lemma 6, Figure 2, Appendix A.1",
		Run: func(p Params) ([]*stats.Table, error) {
			sizes := []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16}
			trials := 30
			if p.Quick {
				sizes = []int{1 << 8, 1 << 10, 1 << 12}
				trials = 10
			}
			tb := stats.NewTable("E3: DRR forest depth", "components", "mean depth", "max depth", "6*log2(n+1)")
			rng := rand.New(rand.NewSource(p.Seed + 3))
			for _, n := range sizes {
				var depths []float64
				for t := 0; t < trials; t++ {
					depths = append(depths, float64(drr.SimulateRoundDepth(n, rng)))
				}
				_, max := stats.MinMax(depths)
				bound := 6 * math.Log2(float64(n+1))
				tb.AddRow(stats.I(n), stats.F(stats.Mean(depths)), stats.F(max), stats.F(bound))
			}
			tb.AddNote("paper: depth = O(log n) w.h.p.; expected path length <= ln(n)+1")
			return []*stats.Table{tb}, nil
		},
	}
}

// E4: Lemma 7 — Boruvka phases grow like log n, far under 12*log2(n).
func E4() Experiment {
	return Experiment{
		ID:       "E4",
		Title:    "Boruvka phases vs n",
		PaperRef: "Lemma 7",
		Run: func(p Params) ([]*stats.Table, error) {
			ns := []int{256, 512, 1024, 2048, 4096}
			if p.Quick {
				ns = []int{128, 256, 512}
			}
			tb := stats.NewTable("E4: phases to convergence (k=8, connected GNM)",
				"n", "mean phases", "max phases", "12*log2(n)", "sketch failures")
			for _, n := range ns {
				g := graph.RandomConnected(n, 2*n, p.Seed+11)
				var phases, fails []float64
				for t := 0; t < p.trials(); t++ {
					r, err := core.Run(g, core.Config{K: 8, Seed: p.Seed + int64(t)*31})
					if err != nil {
						return nil, err
					}
					phases = append(phases, float64(r.Phases))
					fails = append(fails, float64(r.SketchFailures))
				}
				_, maxP := stats.MinMax(phases)
				tb.AddRow(stats.I(n), stats.F(stats.Mean(phases)), stats.F(maxP),
					stats.F(12*math.Log2(float64(n))), stats.F(stats.Mean(fails)))
			}
			tb.AddNote("paper: <= 12 log n phases w.h.p.")
			return []*stats.Table{tb}, nil
		},
	}
}

// E5: Lemma 1/3 — proxy routing balances per-link load: the max link
// carries within a small factor of the mean.
func E5() Experiment {
	return Experiment{
		ID:       "E5",
		Title:    "Proxy routing load balance",
		PaperRef: "Lemma 1, Lemma 3",
		Run: func(p Params) ([]*stats.Table, error) {
			n := 2048
			ks := []int{4, 8, 16}
			if p.Quick {
				n, ks = 512, []int{4, 8}
			}
			g := graph.GNM(n, 3*n, p.Seed+13)
			tb := stats.NewTable("E5: link load balance during connectivity (n="+stats.I(n)+")",
				"k", "max link bits", "mean link bits", "max/mean", "rounds")
			for _, k := range ks {
				r, err := core.Run(g, core.Config{K: k, Seed: p.Seed})
				if err != nil {
					return nil, err
				}
				max := float64(r.Metrics.MaxLinkBits)
				mean := r.Metrics.MeanLinkBits()
				tb.AddRow(stats.I(k), stats.F(max), stats.F(mean), stats.F(max/mean),
					stats.I(r.Metrics.Rounds))
			}
			tb.AddNote("paper: randomized proxies keep every link's load within polylog of the mean")
			return []*stats.Table{tb}, nil
		},
	}
}

// E10: Lemma 5 ablation — pointer doubling vs the paper-exact level-wise
// collapse, and the faithful-randomness mode's setup cost.
func E10() Experiment {
	return Experiment{
		ID:       "E10",
		Title:    "Tree-collapse ablation (doubling vs level-wise) and faithful randomness",
		PaperRef: "Lemma 5; §2.2",
		Run: func(p Params) ([]*stats.Table, error) {
			n := 2048
			if p.Quick {
				n = 512
			}
			g := graph.RandomConnected(n, 2*n, p.Seed+17)
			tb := stats.NewTable("E10: collapse ablation (n="+stats.I(n)+", k=8)",
				"variant", "rounds", "phases", "collapse iters")
			variants := []struct {
				name string
				cfg  core.Config
			}{
				{"pointer doubling", core.Config{K: 8, Seed: p.Seed}},
				{"level-wise (paper)", core.Config{K: 8, Seed: p.Seed, CollapseLevelWise: true}},
				{"coin merge (fn. 9)", core.Config{K: 8, Seed: p.Seed, CoinMerge: true}},
				{"faithful randomness", core.Config{K: 8, Seed: p.Seed, FaithfulRandomness: true}},
			}
			for _, v := range variants {
				r, err := core.Run(g, v.cfg)
				if err != nil {
					return nil, err
				}
				tb.AddRow(v.name, stats.I(r.Metrics.Rounds), stats.I(r.Phases), stats.I(r.CollapseIters))
			}
			tb.AddNote("level-wise walks O(depth) iterations/phase, doubling O(log depth); both O~(n/k^2)")
			tb.AddNote("DRR depths are small (Lemma 6), so the iteration gap is modest at this scale")
			return []*stats.Table{tb}, nil
		},
	}
}
