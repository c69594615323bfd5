package congested

import (
	"testing"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
)

func TestFloodingCCCorrect(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"components", graph.DisjointComponents(100, 4, 0.3, 1)},
		{"path", graph.Path(60)},
		{"gnm", graph.GNM(100, 300, 2)},
		{"edgeless", graph.NewBuilder(20).Build()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			labels, tr := FloodingCC(tc.g)
			want, _ := graph.Components(tc.g)
			if !graph.SameLabeling(labels, want) {
				t.Error("flooding labels disagree with oracle")
			}
			if err := tr.Validate(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestFloodingCCDiameterRounds(t *testing.T) {
	g := graph.Path(80)
	_, tr := FloodingCC(g)
	// Min-label flooding on a path takes ~D rounds.
	if tr.Rounds < 40 || tr.Rounds > 90 {
		t.Errorf("rounds = %d, expected ~diameter 79", tr.Rounds)
	}
	if tr.MaxDelta < 1 || tr.MaxDelta > 4 {
		t.Errorf("max delta %d unexpected for a path", tr.MaxDelta)
	}
}

func TestConvertExecutesAndPredicts(t *testing.T) {
	g := graph.GNM(200, 600, 3)
	_, tr := FloodingCC(g)
	res, err := Convert(tr, core.Config{K: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= 0 {
		t.Fatal("no rounds measured")
	}
	if res.Metrics.DroppedMessages != 0 {
		t.Errorf("dropped %d", res.Metrics.DroppedMessages)
	}
	// The measurement should be within a generous constant+polylog factor
	// of the prediction (two-hop routing and exchange overheads).
	pred := res.Predicted() + 4*float64(tr.Rounds) // + Θ(T) exchange floor
	if float64(res.Rounds) > 40*pred {
		t.Errorf("rounds %d far above prediction %.1f", res.Rounds, pred)
	}
}

func TestConvertImprovesWithK(t *testing.T) {
	g := graph.GNM(300, 2000, 7)
	_, tr := FloodingCC(g)
	r4, err := Convert(tr, core.Config{K: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r16, err := Convert(tr, core.Config{K: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if r16.Rounds >= r4.Rounds {
		t.Errorf("k=16 (%d rounds) should beat k=4 (%d rounds)", r16.Rounds, r4.Rounds)
	}
}

func TestTraceValidateCatchesCorruption(t *testing.T) {
	tr := &Trace{N: 5, Rounds: 2, Messages: []TraceMsg{{Round: 3, Src: 0, Dst: 1, Bits: 8}}}
	if tr.Validate() == nil {
		t.Error("round out of range should fail")
	}
	tr = &Trace{N: 5, Rounds: 2, Messages: []TraceMsg{{Round: 0, Src: 9, Dst: 1, Bits: 8}}}
	if tr.Validate() == nil {
		t.Error("src out of range should fail")
	}
}

// TestConvertRefusesMalformedTraces: Convert returns Validate's error
// instead of indexing past its per-round tables or sizing a payload from
// a negative bit count.
func TestConvertRefusesMalformedTraces(t *testing.T) {
	for name, tr := range map[string]*Trace{
		"round past the end": {N: 5, Rounds: 2, Messages: []TraceMsg{{Round: 3, Src: 0, Dst: 1, Bits: 8}}},
		"negative round":     {N: 5, Rounds: 2, Messages: []TraceMsg{{Round: -1, Src: 0, Dst: 1, Bits: 8}}},
		"negative rounds":    {N: 5, Rounds: -1},
		"src out of range":   {N: 5, Rounds: 2, Messages: []TraceMsg{{Round: 0, Src: 9, Dst: 1, Bits: 8}}},
		"dst out of range":   {N: 5, Rounds: 2, Messages: []TraceMsg{{Round: 0, Src: 0, Dst: -1, Bits: 8}}},
		"negative bits":      {N: 5, Rounds: 2, Messages: []TraceMsg{{Round: 0, Src: 0, Dst: 1, Bits: -100}}},
	} {
		if _, err := Convert(tr, core.Config{K: 4, Seed: 1}); err == nil {
			t.Errorf("%s: Convert returned no error", name)
		}
	}
	// A valid trace on no machines: the cluster is refused before any
	// message is placed on a machine.
	tr := &Trace{N: 5, Rounds: 2, Messages: []TraceMsg{{Round: 0, Src: 0, Dst: 1, Bits: 8}}}
	if _, err := Convert(tr, core.Config{K: 0, Seed: 1}); err == nil {
		t.Error("K = 0: Convert returned no error")
	}
}
