package kmgraph

import (
	"context"
	"errors"
	"testing"

	"kmgraph/internal/baseline"
	"kmgraph/internal/congested"
	"kmgraph/internal/experiments"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/lowerbound"
	"kmgraph/internal/rep"
	"kmgraph/internal/verify"
)

// Facade smoke tests: the public API end to end, the way a downstream
// user would drive it, and the paper apparatus through the internal
// packages cmd/kmrun and cmd/kmbench import.

func TestFacadeConnectivity(t *testing.T) {
	g := DisjointComponents(300, 3, 0.4, 1)
	res, err := Connectivity(g, Config{K: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 3 {
		t.Errorf("components = %d, want 3", res.Components)
	}
	labels, count := ComponentsOracle(g)
	if count != 3 {
		t.Fatal("oracle disagrees with generator")
	}
	_ = labels
}

func TestFacadeMST(t *testing.T) {
	g := WithDistinctWeights(GNM(150, 450, 3), 4)
	res, err := MST(g, MSTConfig{Config: Config{K: 4, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	_, want := MSTOracle(g)
	if res.TotalWeight != want {
		t.Errorf("weight %d, want %d", res.TotalWeight, want)
	}
}

func TestFacadeMinCut(t *testing.T) {
	g := TwoCliquesBridged(12, 2, 6)
	c, err := NewCluster(g, WithK(4), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.ApproxMinCut(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate <= 0 {
		t.Error("no estimate")
	}
	if MinCutOracle(g) != 2 {
		t.Error("oracle")
	}
}

func TestFacadeVerifyAndBaselines(t *testing.T) {
	g := Grid(8, 9)
	c, err := NewCluster(g, WithK(4), WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.Verify(t.Context(), ProblemBipartiteness, VerifyArgs{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Holds || !IsBipartiteOracle(g) {
		t.Error("grid is bipartite")
	}
	fl, err := baseline.Flooding(g, Config{K: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if fl.Components != 1 {
		t.Error("grid is connected")
	}
	rf, err := baseline.Referee(g, Config{K: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rf.Components != 1 {
		t.Error("grid is connected (referee)")
	}
}

func TestFacadeREPAndLowerBound(t *testing.T) {
	g := WithDistinctWeights(GNM(100, 300, 10), 11)
	res, err := rep.MST(g, Config{K: 4, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	_, want := MSTOracle(g)
	if res.TotalWeight != want {
		t.Error("REP MST weight mismatch")
	}

	inst := lowerbound.RandomInstance(32, 13, lowerbound.ForceNothing)
	lb, err := lowerbound.RunSCS(inst, Config{K: 4, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if lb.SCSHolds != lb.Disjoint {
		t.Error("SCS != DISJ")
	}
}

func TestFacadeConversion(t *testing.T) {
	g := GNM(120, 360, 15)
	labels, tr := congested.FloodingCC(g)
	if len(labels) != 120 {
		t.Fatal("labels")
	}
	res, err := congested.Convert(tr, Config{K: 4, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= 0 {
		t.Error("no conversion cost")
	}
}

func TestFacadeDynamic(t *testing.T) {
	stream := RandomChurnStream(200, 500, 3, 20, 0.5, 9)
	sess, err := NewCluster(stream.Initial, WithK(4), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Connectivity(t.Context()); err != nil {
		t.Fatal(err)
	}
	snap := stream.Initial
	for i, ops := range stream.Batches {
		br, err := sess.ApplyBatch(t.Context(), ops)
		if err != nil {
			t.Fatal(err)
		}
		if br.Applied != len(ops) {
			t.Fatalf("batch %d: applied %d of %d", i, br.Applied, len(ops))
		}
		snap = ApplyOps(snap, ops)
		q, err := sess.Connectivity(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if _, count := ComponentsOracle(snap); q.Components != count {
			t.Fatalf("batch %d: %d components, oracle %d", i, q.Components, count)
		}
		if len(q.Forest) != snap.N()-q.Components {
			t.Fatalf("batch %d: forest size %d", i, len(q.Forest))
		}
	}
}

// TestFacadeCluster drives the resident Cluster API end to end: one graph
// load serving every algorithm family, with the load paid exactly once.
func TestFacadeCluster(t *testing.T) {
	ctx := context.Background()
	g := WithDistinctWeights(RandomConnected(300, 700, 11), 12)
	c, err := NewCluster(g, WithK(4), WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	loadRounds := c.Metrics().LoadRounds
	if loadRounds <= 0 {
		t.Fatal("no load rounds recorded")
	}

	q, err := c.Connectivity(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, count := ComponentsOracle(g); q.Components != count {
		t.Fatalf("components %d, oracle %d", q.Components, count)
	}
	st, err := c.SpanningTree(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Forest) != g.N()-q.Components {
		t.Fatalf("spanning forest size %d", len(st.Forest))
	}
	mst, err := c.MST(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, want := MSTOracle(g); mst.TotalWeight != want {
		t.Fatalf("MST weight %d, want %d", mst.TotalWeight, want)
	}
	cut, err := c.ApproxMinCut(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Estimate <= 0 {
		t.Fatal("no min-cut estimate for a connected graph")
	}
	bip, err := c.Verify(ctx, ProblemBipartiteness, VerifyArgs{})
	if err != nil {
		t.Fatal(err)
	}
	if bip.Holds != IsBipartiteOracle(g) {
		t.Fatalf("bipartiteness %v, oracle %v", bip.Holds, IsBipartiteOracle(g))
	}
	stc, err := c.Verify(ctx, ProblemSTConnectivity, VerifyArgs{S: 0, T: g.N() - 1})
	if err != nil {
		t.Fatal(err)
	}
	if !stc.Holds {
		t.Fatal("s-t connectivity on a connected graph")
	}
	if _, err := c.ApplyBatch(ctx, []EdgeOp{{U: 0, V: 42, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Connectivity(ctx); err != nil {
		t.Fatal(err)
	}

	m := c.Metrics()
	if m.LoadRounds != loadRounds {
		t.Fatalf("load rounds changed %d -> %d: graph was re-loaded", loadRounds, m.LoadRounds)
	}
	if m.Jobs != 8 {
		t.Fatalf("jobs = %d, want 8", m.Jobs)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Connectivity(ctx); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("job after close: %v", err)
	}
}

// TestFacadeClusterCancellation: a cancelled context rejects a job before
// it runs, and the cluster keeps serving afterwards.
func TestFacadeClusterCancellation(t *testing.T) {
	g := GNM(200, 500, 21)
	c, err := NewCluster(g, WithK(3), WithSeed(22))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Connectivity(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled job: %v", err)
	}
	if _, err := c.Connectivity(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeExperimentsRegistry(t *testing.T) {
	if len(experiments.All()) != 13 {
		t.Error("expected 13 experiments")
	}
	if _, err := experiments.ByID("E1"); err != nil {
		t.Error(err)
	}
	if kmachine.Bandwidth(1024) <= 0 {
		t.Error("bandwidth")
	}
}

// TestVerifyRefusesOutOfRangeArgs: an edge argument with an endpoint
// outside [0, n) is refused, typed, before any run — EdgeID(u, v, n) =
// u·n + v would otherwise alias {0, 12} onto the path's edge (1, 2) and
// answer true — and so is an out-of-range s/t vertex.
func TestVerifyRefusesOutOfRangeArgs(t *testing.T) {
	g := Path(10)
	c, err := NewCluster(g, WithK(2), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	alias := Edge{U: 0, V: 12}
	h := append([]Edge(nil), g.Edges()...)
	h[1] = alias // (1, 2) spelled as {0, 12}
	for _, tc := range []struct {
		p    Problem
		args VerifyArgs
	}{
		{ProblemCut, VerifyArgs{Cut: []Edge{alias}}},
		{ProblemSpanningConnectedSubgraph, VerifyArgs{H: h}},
		{ProblemEdgeOnAllPaths, VerifyArgs{S: 0, T: 9, E: alias}},
		{ProblemSTConnectivity, VerifyArgs{S: -1, T: 1}},
	} {
		out, err := c.Verify(t.Context(), tc.p, tc.args)
		if !errors.Is(err, verify.ErrBadArgs) {
			t.Errorf("%s %+v: outcome %+v, error %v; want an error wrapping verify.ErrBadArgs", tc.p, tc.args, out, err)
		}
	}
	if m := c.Metrics(); m.Total.Rounds != m.LoadRounds {
		t.Errorf("%d rounds after the load's %d: a refused argument must cost no run", m.Total.Rounds, m.LoadRounds)
	}
}
