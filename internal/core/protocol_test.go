package core

import (
	"testing"

	"kmgraph/internal/graph"
	"kmgraph/internal/sketch"
)

// Tests for the §2.6 output protocol and robustness under hostile engine
// configurations (tiny bandwidth, tight round caps).

func TestCountComponentsProtocol(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"connected", graph.RandomConnected(150, 300, 1), 1},
		{"five", graph.DisjointComponents(150, 5, 0.3, 2), 5},
		{"edgeless", graph.NewBuilder(30).Build(), 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.g, Config{K: 4, Seed: 3, CountComponents: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.ProtocolCount != tc.want {
				t.Errorf("protocol count = %d, want %d", res.ProtocolCount, tc.want)
			}
			if res.ProtocolCount != res.Components {
				t.Errorf("protocol count %d != host-side count %d",
					res.ProtocolCount, res.Components)
			}
		})
	}
	// Disabled by default.
	res, err := Run(graph.Cycle(20), Config{K: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProtocolCount != -1 {
		t.Errorf("protocol count should be -1 when disabled, got %d", res.ProtocolCount)
	}
}

func TestTinyBandwidthStillCorrect(t *testing.T) {
	// Failure injection: a link budget far below one sketch forces heavy
	// fragmentation; correctness must be unaffected, only rounds.
	g := graph.DisjointComponents(80, 4, 0.4, 5)
	normal, err := Run(g, Config{K: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := Run(g, Config{K: 4, Seed: 6, BandwidthBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Components != 4 || normal.Components != 4 {
		t.Errorf("components %d/%d, want 4", tiny.Components, normal.Components)
	}
	// The model's own premise: a link moves at most 64 bits a round, so
	// the busiest link alone takes its bits/64 rounds.
	if floor := (tiny.Metrics.MaxLinkBits + 63) / 64; int64(tiny.Metrics.Rounds) < floor {
		t.Errorf("tiny bandwidth took %d rounds, under its busiest link's %d bits / 64 = %d",
			tiny.Metrics.Rounds, tiny.Metrics.MaxLinkBits, floor)
	}
	if tiny.Metrics.Rounds <= normal.Metrics.Rounds {
		t.Errorf("tiny bandwidth (%d rounds) should cost more than normal (%d)",
			tiny.Metrics.Rounds, normal.Metrics.Rounds)
	}
}

func TestMaxRoundsAbortSurfaces(t *testing.T) {
	g := graph.RandomConnected(200, 400, 7)
	_, err := Run(g, Config{K: 4, Seed: 8, MaxRounds: 10})
	if err == nil {
		t.Fatal("expected MaxRounds abort")
	}
}

func TestTinySketchParamsDegradeGracefully(t *testing.T) {
	// Deliberately weak sketches (1 rep, 2 buckets) raise the failure
	// rate; the phase loop must still converge to the right answer
	// because failures are retried with fresh seeds.
	g := graph.RandomConnected(120, 240, 9)
	p := sketch.DefaultParams(120)
	p.Reps = 1
	p.Buckets = 2
	res, err := Run(g, Config{K: 4, Seed: 10, Sketch: p})
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 1 {
		t.Errorf("components = %d, want 1", res.Components)
	}
	if res.SketchFailures == 0 {
		t.Log("expected some sketch failures with weak parameters (got none; acceptable)")
	}
}

func TestHighK(t *testing.T) {
	// More machines than "natural": k close to n stresses empty machines
	// and tiny parts.
	g := graph.RandomConnected(64, 128, 11)
	res, err := Run(g, Config{K: 48, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 1 {
		t.Errorf("components = %d", res.Components)
	}
}

func TestCountComponentsWithEdgeCheck(t *testing.T) {
	g := graph.DisjointComponents(100, 7, 0.3, 13)
	res, err := Run(g, Config{K: 4, Seed: 14, EdgeCheckSelection: true, CountComponents: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProtocolCount != 7 {
		t.Errorf("protocol count = %d, want 7", res.ProtocolCount)
	}
}
