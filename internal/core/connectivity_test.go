package core

import (
	"math"
	"testing"

	"kmgraph/internal/graph"
)

func toInt(labels []uint64) []int {
	out := make([]int, len(labels))
	for i, l := range labels {
		out[i] = int(l)
	}
	return out
}

func checkAgainstOracle(t *testing.T, name string, g *graph.Graph, cfg Config) *Result {
	t.Helper()
	res, err := Run(g, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, wantCount := graph.Components(g)
	if res.Components != wantCount {
		t.Errorf("%s: components = %d, want %d", name, res.Components, wantCount)
	}
	if !graph.SameLabeling(toInt(res.Labels), want) {
		t.Errorf("%s: labeling disagrees with oracle", name)
	}
	if res.Metrics.DroppedMessages != 0 {
		t.Errorf("%s: dropped %d messages", name, res.Metrics.DroppedMessages)
	}
	return res
}

func TestConnectivityFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(200)},
		{"cycle", graph.Cycle(150)},
		{"star", graph.Star(200)},
		{"tree", graph.RandomTree(300, 1)},
		{"gnm-sparse", graph.GNM(300, 500, 2)},
		{"gnm-dense", graph.GNM(100, 2500, 3)},
		{"gnp", graph.GNP(250, 0.02, 4)},
		{"components-5", graph.DisjointComponents(250, 5, 0.4, 5)},
		{"components-40", graph.DisjointComponents(200, 40, 0.2, 6)},
		{"barbell", graph.Barbell(20, 10)},
		{"planted", graph.PlantedPartition(150, 3, 0.15, 0.002, 7)},
		{"grid", graph.Grid(12, 15)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstOracle(t, tc.name, tc.g, Config{K: 4, Seed: 11})
		})
	}
}

func TestConnectivityAcrossK(t *testing.T) {
	g := graph.DisjointComponents(300, 3, 0.5, 9)
	for _, k := range []int{2, 3, 5, 8, 16} {
		res := checkAgainstOracle(t, "k", g, Config{K: k, Seed: 13})
		if res.Phases < 1 {
			t.Errorf("k=%d: phases = %d", k, res.Phases)
		}
	}
}

func TestConnectivityAcrossSeeds(t *testing.T) {
	g := graph.GNM(200, 350, 21)
	for seed := int64(0); seed < 8; seed++ {
		checkAgainstOracle(t, "seed", g, Config{K: 6, Seed: seed})
	}
}

func TestDegenerateInputs(t *testing.T) {
	// Edgeless graph: n components, terminates in one phase.
	edgeless := graph.NewBuilder(50).Build()
	res := checkAgainstOracle(t, "edgeless", edgeless, Config{K: 4, Seed: 1})
	if res.Phases != 1 {
		t.Errorf("edgeless phases = %d, want 1", res.Phases)
	}
	// Single vertex.
	single := graph.NewBuilder(1).Build()
	checkAgainstOracle(t, "single", single, Config{K: 3, Seed: 1})
	// Two vertices one edge.
	pair := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, W: 1}})
	res = checkAgainstOracle(t, "pair", pair, Config{K: 2, Seed: 1})
	if res.Components != 1 {
		t.Error("pair should merge")
	}
	// k = 1 degenerate cluster.
	checkAgainstOracle(t, "k1", graph.Cycle(40), Config{K: 1, Seed: 1})
}

func TestPhasesLogarithmic(t *testing.T) {
	// Lemma 7: phases <= 12 log2 n w.h.p. Measured phases are usually far
	// lower; assert the hard cap and a sane typical value.
	g := graph.RandomConnected(600, 1200, 3)
	res := checkAgainstOracle(t, "phases", g, Config{K: 8, Seed: 5})
	bound := 12 * math.Log2(600)
	if float64(res.Phases) > bound {
		t.Errorf("phases %d exceed Lemma 7 bound %.0f", res.Phases, bound)
	}
	if res.Phases > 25 {
		t.Errorf("phases %d unexpectedly high for n=600", res.Phases)
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.GNM(150, 300, 8)
	cfg := Config{K: 5, Seed: 99}
	a, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.Rounds != b.Metrics.Rounds || a.Phases != b.Phases {
		t.Errorf("nondeterministic: rounds %d/%d phases %d/%d",
			a.Metrics.Rounds, b.Metrics.Rounds, a.Phases, b.Phases)
	}
	for v := range a.Labels {
		if a.Labels[v] != b.Labels[v] {
			t.Fatalf("labels differ at %d", v)
		}
	}
}

func TestCollapseLevelWiseAblation(t *testing.T) {
	g := graph.RandomConnected(300, 600, 12)
	base := checkAgainstOracle(t, "doubling", g, Config{K: 4, Seed: 3})
	lw := checkAgainstOracle(t, "levelwise", g, Config{K: 4, Seed: 3, CollapseLevelWise: true})
	if !graph.SameLabeling(toInt(base.Labels), toInt(lw.Labels)) {
		t.Error("collapse modes disagree on the partition")
	}
}

func TestCoinMergeVariant(t *testing.T) {
	// Footnote 9: 0->1 coin merging gives the same answers with depth-1
	// trees and roughly twice the phases.
	g := graph.RandomConnected(300, 600, 15)
	drrRes := checkAgainstOracle(t, "drr", g, Config{K: 4, Seed: 8})
	coin := checkAgainstOracle(t, "coin", g, Config{K: 4, Seed: 8, CoinMerge: true})
	if !graph.SameLabeling(toInt(drrRes.Labels), toInt(coin.Labels)) {
		t.Error("merge variants disagree on the partition")
	}
	if coin.Phases < drrRes.Phases {
		t.Logf("coin phases %d < drr phases %d (possible, but unusual)", coin.Phases, drrRes.Phases)
	}
	// Several more families for coverage.
	checkAgainstOracle(t, "coin-components", graph.DisjointComponents(200, 5, 0.3, 16),
		Config{K: 5, Seed: 9, CoinMerge: true})
	checkAgainstOracle(t, "coin-star", graph.Star(150), Config{K: 3, Seed: 10, CoinMerge: true})
}

func TestCoinMergeMST(t *testing.T) {
	g := graph.WithDistinctWeights(graph.GNM(100, 300, 17), 18)
	res := checkMST(t, "coin-mst", g, MSTConfig{Config: Config{K: 4, Seed: 11, CoinMerge: true}})
	if res.Phases == 0 {
		t.Error("no phases")
	}
}

func TestFaithfulRandomness(t *testing.T) {
	g := graph.DisjointComponents(200, 4, 0.4, 2)
	res := checkAgainstOracle(t, "faithful", g, Config{K: 4, Seed: 7, FaithfulRandomness: true})
	// The faithful mode pays for distributing the shared bits up front.
	if res.Metrics.Rounds < 3 {
		t.Errorf("rounds = %d suspiciously small", res.Metrics.Rounds)
	}
}

func TestPhaseRoundsRecorded(t *testing.T) {
	g := graph.RandomConnected(200, 400, 4)
	res := checkAgainstOracle(t, "phaserounds", g, Config{K: 4, Seed: 2})
	if len(res.PhaseRounds) != res.Phases {
		t.Fatalf("phase rounds %d entries, phases %d", len(res.PhaseRounds), res.Phases)
	}
	for i := 1; i < len(res.PhaseRounds); i++ {
		if res.PhaseRounds[i] < res.PhaseRounds[i-1] {
			t.Error("phase round counters must be nondecreasing")
		}
	}
	if res.PhaseRounds[len(res.PhaseRounds)-1] > res.Metrics.Rounds {
		t.Error("phase rounds exceed total rounds")
	}
}

func TestIsolatedVerticesMixed(t *testing.T) {
	// A connected blob plus isolated vertices.
	b := graph.NewBuilder(100)
	for i := 0; i < 49; i++ {
		b.AddEdge(i, i+1, 1)
	}
	g := b.Build()
	res := checkAgainstOracle(t, "isolated", g, Config{K: 4, Seed: 6})
	if res.Components != 51 {
		t.Errorf("components = %d, want 51", res.Components)
	}
}

// TestAssemblersRefuseBadCoverage: machine outputs arrive from peers, so
// both assemblers refuse a vertex two machines label, a vertex one machine
// lists twice, and a run that leaves a vertex unlabeled, and accept the
// same outputs once each vertex is labeled exactly once. A machine's labels
// are given as (vertex, label) pairs.
func TestAssemblersRefuseBadCoverage(t *testing.T) {
	split := func(pairs [][2]int) ([]int, []uint64) {
		owned, labels := []int{}, []uint64{}
		for _, p := range pairs {
			owned, labels = append(owned, p[0]), append(labels, uint64(p[1]))
		}
		return owned, labels
	}
	conn := func(machines ...[][2]int) []any {
		outs := make([]any, len(machines))
		for i, pairs := range machines {
			owned, labels := split(pairs)
			outs[i] = &MachineOutput{Owned: owned, Labels: labels, Converged: true, ProtocolCount: -1}
		}
		return outs
	}
	mst := func(machines ...[][2]int) []any {
		outs := make([]any, len(machines))
		for i, pairs := range machines {
			owned, labels := split(pairs)
			outs[i] = &MSTOutput{Owned: owned, Labels: labels, Converged: true}
		}
		return outs
	}
	for _, tc := range []struct {
		name     string
		machines [][][2]int
		ok       bool
	}{
		{"labeled twice, one missing", [][][2]int{{{0, 0}, {1, 0}}, {{1, 0}}}, false},
		{"one of three labeled", [][][2]int{{{0, 0}}, {}}, false},
		{"labeled twice", [][][2]int{{{0, 0}, {1, 0}}, {{1, 0}, {2, 2}}}, false},
		{"listed twice by one machine", [][][2]int{{{0, 0}, {0, 0}, {1, 0}}, {{2, 2}}}, false},
		{"each once", [][][2]int{{{0, 0}, {1, 0}}, {{2, 2}}}, true},
	} {
		res, err := Assemble(3, conn(tc.machines...))
		if (err == nil) != tc.ok {
			t.Errorf("Assemble, %s: err = %v, want ok = %v", tc.name, err, tc.ok)
		} else if tc.ok && res.Components != 2 {
			t.Errorf("Assemble, %s: %d components, want 2", tc.name, res.Components)
		}
		if _, err := AssembleMST(3, mst(tc.machines...)); (err == nil) != tc.ok {
			t.Errorf("AssembleMST, %s: err = %v, want ok = %v", tc.name, err, tc.ok)
		}
	}
}
