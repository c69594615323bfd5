package baseline

import (
	"testing"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
)

func toInt(labels []uint64) []int {
	out := make([]int, len(labels))
	for i, l := range labels {
		out[i] = int(l)
	}
	return out
}

func check(t *testing.T, name string, g *graph.Graph, res *Result, err error) {
	t.Helper()
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
		t.Errorf("%s: dropped %d", name, res.Metrics.DroppedMessages)
	}
}

func TestFloodingFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(120)},
		{"components", graph.DisjointComponents(150, 5, 0.3, 1)},
		{"gnm", graph.GNM(150, 400, 2)},
		{"star", graph.Star(100)},
		{"edgeless", graph.NewBuilder(40).Build()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Flooding(tc.g, core.Config{K: 4, Seed: 3})
			check(t, tc.name, tc.g, res, err)
		})
	}
}

func TestRefereeFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"components", graph.DisjointComponents(150, 7, 0.3, 4)},
		{"gnm", graph.GNM(150, 500, 5)},
		{"edgeless", graph.NewBuilder(40).Build()},
		{"complete", graph.Complete(50)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Referee(tc.g, core.Config{K: 5, Seed: 6})
			check(t, tc.name, tc.g, res, err)
		})
	}
}

func TestFloodingDiameterSensitivity(t *testing.T) {
	// Flooding pays Θ(D): a path (D = n-1) should need far more rounds
	// than a star (D = 2) at equal size.
	path, err := Flooding(graph.Path(200), core.Config{K: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	star, err := Flooding(graph.Star(200), core.Config{K: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if path.Metrics.Rounds < 4*star.Metrics.Rounds {
		t.Errorf("path rounds %d should dwarf star rounds %d",
			path.Metrics.Rounds, star.Metrics.Rounds)
	}
}

func TestRefereeCongestion(t *testing.T) {
	// The referee's links are the bottleneck: rounds grow with m.
	small, err := Referee(graph.GNM(100, 300, 8), core.Config{K: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Referee(graph.GNM(100, 3000, 8), core.Config{K: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if big.Metrics.Rounds <= small.Metrics.Rounds {
		t.Errorf("rounds should grow with m: %d vs %d", small.Metrics.Rounds, big.Metrics.Rounds)
	}
}

func TestBaselinesAcrossK(t *testing.T) {
	g := graph.GNM(120, 360, 10)
	for _, k := range []int{2, 3, 8} {
		res, err := Flooding(g, core.Config{K: k, Seed: 11})
		check(t, "flooding", g, res, err)
		res, err = Referee(g, core.Config{K: k, Seed: 11})
		check(t, "referee", g, res, err)
	}
}
