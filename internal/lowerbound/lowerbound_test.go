package lowerbound

import (
	"fmt"
	"testing"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
)

func TestInstanceConstruction(t *testing.T) {
	inst := RandomInstance(10, 1, ForceNothing)
	g, h := inst.BuildSCS()
	if g.N() != 22 {
		t.Fatalf("n = %d, want 22", g.N())
	}
	// G always has 1 + 3b edges.
	if g.M() != 1+3*10 {
		t.Errorf("m = %d, want 31", g.M())
	}
	// H contains (s,t), all (u_i,v_i), plus one edge per zero bit.
	zeros := 0
	for i := 0; i < 10; i++ {
		if !inst.X[i] {
			zeros++
		}
		if !inst.Y[i] {
			zeros++
		}
	}
	if len(h) != 1+10+zeros {
		t.Errorf("|H| = %d, want %d", len(h), 1+10+zeros)
	}
	// Diameter of G is 2 (as Theorem 5 emphasizes): s-t edge plus stars.
	if d := graph.Diameter(g); d > 3 {
		t.Errorf("diameter = %d", d)
	}
}

func TestSCSEquivalentToDisjointnessOracle(t *testing.T) {
	// The graph-theoretic equivalence, checked with the sequential oracle.
	for seed := int64(0); seed < 40; seed++ {
		inst := RandomInstance(12, seed, ForceNothing)
		g, h := inst.BuildSCS()
		keep := make(map[uint64]bool)
		for _, e := range h {
			keep[graph.EdgeID(e.U, e.V, g.N())] = true
		}
		hg := g.Filter(func(e graph.Edge) bool { return keep[graph.EdgeID(e.U, e.V, g.N())] })
		scs := graph.IsConnected(hg)
		if scs != inst.Disjoint() {
			t.Fatalf("seed %d: SCS=%v DISJ=%v", seed, scs, inst.Disjoint())
		}
	}
}

func TestRunSCSMatchesDisjointness(t *testing.T) {
	cases := []Force{ForceDisjoint, ForceIntersecting, ForceNothing, ForceNothing}
	for i, force := range cases {
		inst := RandomInstance(16, int64(i)*7+1, force)
		res, err := RunSCS(inst, core.Config{K: 4, Seed: int64(i) + 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.SCSHolds != res.Disjoint {
			t.Errorf("case %d: SCS=%v DISJ=%v", i, res.SCSHolds, res.Disjoint)
		}
		if res.CutBits <= 0 {
			t.Errorf("case %d: no cut traffic metered", i)
		}
		if res.CutCapacityPerRound <= 0 {
			t.Error("cut capacity missing")
		}
	}
}

func TestRunSCSRequiresEvenK(t *testing.T) {
	inst := RandomInstance(8, 3, ForceNothing)
	if _, err := RunSCS(inst, core.Config{K: 3, Seed: 1}); err == nil {
		t.Error("odd k should be rejected")
	}
}

func TestCutTrafficGrowsWithB(t *testing.T) {
	// The Ω(b) information requirement should manifest as growing cut
	// traffic (the algorithm cannot avoid moving Θ(b) bits).
	var prev int64
	for _, b := range []int{8, 32, 128} {
		inst := RandomInstance(b, 11, ForceNothing)
		res, err := RunSCS(inst, core.Config{K: 4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if res.CutBits < prev {
			t.Errorf("b=%d: cut bits %d below smaller instance %d", b, res.CutBits, prev)
		}
		prev = res.CutBits
		// Round bound sanity: rounds * cut capacity >= cut bits.
		if int64(res.Rounds)*res.CutCapacityPerRound < res.CutBits {
			t.Errorf("b=%d: rounds*capacity < cut bits", b)
		}
	}
}

func TestForcedInstances(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		if !RandomInstance(20, seed, ForceDisjoint).Disjoint() {
			t.Fatal("ForceDisjoint produced intersecting instance")
		}
		if RandomInstance(20, seed, ForceIntersecting).Disjoint() {
			t.Fatal("ForceIntersecting produced disjoint instance")
		}
	}
}

func TestPartitionPlacement(t *testing.T) {
	inst := RandomInstance(30, 9, ForceNothing)
	homes, err := inst.Partition(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	// s on Bob's half, t on Alice's half.
	if homes[inst.s()] < 4 {
		t.Error("s should be on Bob's half")
	}
	if homes[inst.t()] >= 4 {
		t.Error("t should be on Alice's half")
	}
	for i := 0; i < inst.B; i++ {
		uAlice := homes[inst.u(i)] < 4
		if uAlice != inst.AliceHoldsX[i] {
			t.Fatalf("u_%d placement inconsistent with bit ownership", i)
		}
		vBob := homes[inst.v(i)] >= 4
		if vBob != inst.BobHoldsY[i] {
			t.Fatalf("v_%d placement inconsistent with bit ownership", i)
		}
	}
}

func ExampleRunSCS() {
	inst := RandomInstance(64, 5, ForceNothing)
	res, err := RunSCS(inst, core.Config{K: 4, Seed: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println("SCS == DISJ:", res.SCSHolds == res.Disjoint)
	// Output: SCS == DISJ: true
}
