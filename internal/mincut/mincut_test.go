package mincut

import (
	"math"
	"testing"

	"kmgraph/internal/graph"
)

// sequential is the host these tests run the level search on: every
// sample is materialized with Filter and counted by union-find, so what
// is tested is Search itself. The k-machine hosts are held to this one by
// the root TestCrossHostDifferential.
func sequential(g *graph.Graph, seed int64, trials int) (*Result, error) {
	return Search(g.N(), seed, trials, 0, func(level, _ int, tseed, threshold uint64) (int, error) {
		sub := g
		if level > 0 {
			sub = g.Filter(func(e graph.Edge) bool {
				return Sampled(tseed, threshold, graph.EdgeID(e.U, e.V, g.N()))
			})
		}
		_, cc := graph.Components(sub)
		return cc, nil
	})
}

func approxRatioOK(t *testing.T, name string, got float64, want int64, n int) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s: estimate %.1f for disconnected graph", name, got)
		}
		return
	}
	ratio := got / float64(want)
	if ratio < 1 {
		ratio = 1 / ratio
	}
	// Theorem 3: O(log n)-approximation. Allow a generous constant.
	bound := 6 * math.Log(float64(n)+2)
	if ratio > bound {
		t.Errorf("%s: estimate %.1f vs true %d: ratio %.1f exceeds %.1f",
			name, got, want, ratio, bound)
	}
}

func TestDisconnectedInput(t *testing.T) {
	g := graph.DisjointComponents(80, 2, 0.5, 1)
	res, err := sequential(g, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 || res.Level != -1 {
		t.Errorf("estimate = %.1f level = %d, want 0/-1", res.Estimate, res.Level)
	}
}

func TestKnownCuts(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"path", graph.Path(60), 1},
		{"cycle", graph.Cycle(60), 2},
		{"bridged-1", graph.TwoCliquesBridged(15, 1, 2), 1},
		{"bridged-4", graph.TwoCliquesBridged(15, 4, 3), 4},
		{"complete", graph.Complete(30), 29},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := sequential(tc.g, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			if oracle := graph.MinCut(tc.g); oracle != tc.want {
				t.Fatalf("oracle says %d, test expects %d", oracle, tc.want)
			}
			approxRatioOK(t, tc.name, res.Estimate, tc.want, tc.g.N())
			if res.Runs == 0 {
				t.Error("no runs counted")
			}
		})
	}
}

func TestEstimateOrdersCuts(t *testing.T) {
	// A graph with λ=1 should get a smaller estimate than one with λ=24.
	low, err := sequential(graph.TwoCliquesBridged(12, 1, 4), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	high, err := sequential(graph.Complete(25), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if low.Estimate >= high.Estimate {
		t.Errorf("λ=1 estimate %.1f not below λ=24 estimate %.1f", low.Estimate, high.Estimate)
	}
}

func TestTrialsConfig(t *testing.T) {
	g := graph.Cycle(40)
	res, err := sequential(g, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	// runs = 1 (base) + levels*5
	if (res.Runs-1)%5 != 0 {
		t.Errorf("runs = %d inconsistent with 5 trials per level", res.Runs)
	}
}
