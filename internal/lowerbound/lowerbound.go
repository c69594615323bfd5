// Package lowerbound implements the paper's §4 lower-bound apparatus
// (Theorem 5): the reduction from 2-party set disjointness in the
// random-input-partition model to spanning-connected-subgraph (SCS)
// verification in the k-machine model.
//
// The Figure-1 construction: G has special vertices s, t and pairs
// u_i, v_i for i < b = (n-2)/2, with edges (s,t), (u_i,v_i), (s,u_i),
// (v_i,t). The subgraph H always contains (s,t) and every (u_i,v_i);
// it contains (s,u_i) iff X[i] = 0 and (v_i,t) iff Y[i] = 0. H spans G
// and is connected iff no index has X[i] = Y[i] = 1 — i.e. iff X and Y
// are disjoint.
//
// Machines are split into an Alice half and a Bob half; vertex placement
// follows the random input partition (each party places the pair-vertices
// whose input bit it holds). Because solving SCS answers DISJ, and DISJ
// requires Ω(b) bits of communication between the halves (Lemma 8), any
// algorithm must push Ω(b) bits across the Θ(k²) cut links of capacity B,
// forcing Ω̃(b/k²) rounds. The harness meters exactly those cut bits while
// the real connectivity algorithm solves the instance.
package lowerbound

import (
	"context"
	"fmt"
	"math/rand"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
)

// Instance is a 2-party set disjointness instance.
type Instance struct {
	B    int
	X, Y []bool
	// AliceHolds[i] / BobHolds[i] record, per the random input partition,
	// which party places u_i / v_i respectively (true = the canonical
	// owner kept the bit; false = it was revealed to the other party).
	AliceHoldsX, BobHoldsY []bool
}

// Force constrains instance generation.
type Force int

const (
	// ForceNothing samples X, Y uniformly.
	ForceNothing Force = iota
	// ForceDisjoint guarantees no intersecting index.
	ForceDisjoint
	// ForceIntersecting guarantees at least one intersecting index.
	ForceIntersecting
)

// RandomInstance samples a disjointness instance with b-bit inputs.
func RandomInstance(b int, seed int64, force Force) Instance {
	rng := rand.New(rand.NewSource(seed))
	inst := Instance{
		B: b, X: make([]bool, b), Y: make([]bool, b),
		AliceHoldsX: make([]bool, b), BobHoldsY: make([]bool, b),
	}
	for i := 0; i < b; i++ {
		inst.X[i] = rng.Intn(2) == 1
		inst.Y[i] = rng.Intn(2) == 1
		inst.AliceHoldsX[i] = rng.Intn(2) == 1
		inst.BobHoldsY[i] = rng.Intn(2) == 1
	}
	switch force {
	case ForceDisjoint:
		for i := 0; i < b; i++ {
			if inst.X[i] && inst.Y[i] {
				inst.Y[i] = false
			}
		}
	case ForceIntersecting:
		i := rng.Intn(b)
		inst.X[i], inst.Y[i] = true, true
	}
	return inst
}

// Disjoint reports whether X and Y have no common 1-index.
func (inst Instance) Disjoint() bool {
	for i := 0; i < inst.B; i++ {
		if inst.X[i] && inst.Y[i] {
			return false
		}
	}
	return true
}

// vertex layout: s=0, t=1, u_i=2+i, v_i=2+b+i.
func (inst Instance) s() int      { return 0 }
func (inst Instance) t() int      { return 1 }
func (inst Instance) u(i int) int { return 2 + i }
func (inst Instance) v(i int) int { return 2 + inst.B + i }

// N returns the number of vertices of the Figure-1 graph.
func (inst Instance) N() int { return 2 + 2*inst.B }

// BuildSCS constructs the Figure-1 graph G and subgraph H.
func (inst Instance) BuildSCS() (*graph.Graph, []graph.Edge) {
	b := graph.NewBuilder(inst.N())
	var h []graph.Edge
	add := func(x, y int, inH bool) {
		b.AddEdge(x, y, 1)
		if inH {
			e := graph.Edge{U: x, V: y, W: 1}
			h = append(h, e.Canon())
		}
	}
	add(inst.s(), inst.t(), true)
	for i := 0; i < inst.B; i++ {
		add(inst.u(i), inst.v(i), true)
		add(inst.s(), inst.u(i), !inst.X[i])
		add(inst.v(i), inst.t(), !inst.Y[i])
	}
	return b.Build(), h
}

// Partition places vertices on an even number of machines: Alice owns
// machines [0, k/2), Bob [k/2, k). s goes to a random Bob machine and t to
// a random Alice machine (as in the paper's simulation); u_i goes to
// Alice's half iff Alice held X[i], v_i to Bob's half iff Bob held Y[i].
func (inst Instance) Partition(k int, seed int64) ([]int, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("lowerbound: need even k >= 2, got %d", k)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x51de))
	alice := func() int { return rng.Intn(k / 2) }
	bob := func() int { return k/2 + rng.Intn(k/2) }
	homes := make([]int, inst.N())
	homes[inst.s()] = bob()
	homes[inst.t()] = alice()
	for i := 0; i < inst.B; i++ {
		if inst.AliceHoldsX[i] {
			homes[inst.u(i)] = alice()
		} else {
			homes[inst.u(i)] = bob()
		}
		if inst.BobHoldsY[i] {
			homes[inst.v(i)] = bob()
		} else {
			homes[inst.v(i)] = alice()
		}
	}
	return homes, nil
}

// Result reports one lower-bound run.
type Result struct {
	B        int
	K        int
	SCSHolds bool
	Disjoint bool
	// CutBits is the total bits crossing the Alice/Bob machine cut.
	CutBits int64
	// CutCapacityPerRound is the cut's per-round bit capacity
	// 2·(k/2)²·B — the denominator of the Ω̃(b/k²) argument.
	CutCapacityPerRound int64
	Rounds              int
	Metrics             kmachine.Metrics
}

// RunSCS solves the SCS instance with the real connectivity algorithm
// under the reduction's placement and meters the Alice/Bob cut traffic.
func RunSCS(inst Instance, cfg core.Config) (*Result, error) {
	g, h := inst.BuildSCS()
	keep := make(map[uint64]bool, len(h))
	for _, e := range h {
		keep[graph.EdgeID(e.U, e.V, g.N())] = true
	}
	hGraph := g.Filter(func(e graph.Edge) bool { return keep[graph.EdgeID(e.U, e.V, g.N())] })
	cfg = cfg.WithDefaults(g.N())

	homes, err := inst.Partition(cfg.K, cfg.Seed)
	if err != nil {
		return nil, err
	}
	part, err := kmachine.LoadShardsRange(hGraph.Source(), cfg.K, func(v int) int { return homes[v] }, 0, cfg.K)
	if err != nil {
		return nil, err
	}
	res, err := core.RunShards(context.Background(), part, cfg)
	if err != nil {
		return nil, err
	}
	inA := make([]bool, cfg.K)
	for i := 0; i < cfg.K/2; i++ {
		inA[i] = true
	}
	half := int64(cfg.K / 2)
	return &Result{
		B:                   inst.B,
		K:                   cfg.K,
		SCSHolds:            res.Components == 1,
		Disjoint:            inst.Disjoint(),
		CutBits:             res.Metrics.CutBits(inA),
		CutCapacityPerRound: 2 * half * half * int64(cfg.BandwidthBits),
		Rounds:              res.Metrics.Rounds,
		Metrics:             res.Metrics,
	}, nil
}
