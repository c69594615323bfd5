package kmachine

import (
	"kmgraph/internal/graph"
	"kmgraph/internal/hashing"
)

// HomeOf is the home hash of the paper's random vertex partition (RVP,
// §1.1): the machine vertex v, with its incident edges, lands on under a
// given shared seed and machine count. Because assignment is by hashing,
// every machine can evaluate it for any vertex ID locally — the property
// real systems obtain the same way and that the algorithms rely on.
func HomeOf(seed uint64, k, v int) int {
	return hashing.RangeOf(hashing.Hash2(seed^0x52d5, uint64(v)), k)
}

// RVPSeed is the HomeOf seed of a job run under the given seed: every host
// derives its vertex partition through it, so they place every vertex alike.
func RVPSeed(seed int64) uint64 { return uint64(seed) ^ 0x9e37 }

// EdgePartition is the random edge partition (REP, §1.3): each edge is
// assigned to a uniformly random machine, independently.
type EdgePartition struct {
	g     *graph.Graph
	k     int
	seed  uint64
	owned [][]graph.Edge
}

// NewREP partitions g's edges over k machines.
func NewREP(g *graph.Graph, k int, seed uint64) *EdgePartition {
	p := &EdgePartition{g: g, k: k, seed: seed, owned: make([][]graph.Edge, k)}
	for _, e := range g.Edges() {
		h := p.HomeEdge(e)
		p.owned[h] = append(p.owned[h], e)
	}
	return p
}

// HomeEdge returns the home machine of edge e.
func (p *EdgePartition) HomeEdge(e graph.Edge) int {
	return hashing.RangeOf(hashing.Hash2(p.seed^0xeed9e, graph.EdgeID(e.U, e.V, p.g.N())), p.k)
}

// OwnedEdges returns the edges homed at machine i.
func (p *EdgePartition) OwnedEdges(i int) []graph.Edge { return p.owned[i] }
