package rep

import (
	"hash/fnv"
	"testing"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
)

// fingerprint folds the full result — rounds, accounting, and the MST
// edge list in its returned order — so any nondeterminism anywhere in the
// three-phase pipeline shows as a mismatch.
func fingerprint(res *Result) uint64 {
	h := fnv.New64a()
	add := func(x int64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(uint64(x) >> (8 * i))
		}
		h.Write(b[:])
	}
	add(int64(res.FilteredEdges))
	add(int64(res.ConversionRounds))
	add(int64(res.MSTRounds))
	add(int64(res.TotalRounds))
	add(res.TotalWeight)
	for _, e := range res.Edges {
		add(int64(e.U))
		add(int64(e.V))
		add(e.W)
	}
	m := &res.Metrics
	add(int64(m.Rounds))
	add(m.Messages)
	add(m.PayloadBytes)
	add(m.MaxLinkBits)
	for _, row := range m.LinkBits {
		for _, b := range row {
			add(b)
		}
	}
	return h.Sum64()
}

// TestREPMSTDeterministic reruns the REP pipeline and requires
// bit-identical results. This pins the union-map fix in MST: the filtered
// edge union is assembled in a map, and FromEdges lays out adjacency in
// edge-list order, so emitting the union in map iteration order fed each
// run's MST phase a differently-ordered graph — same forest, different
// round-by-round traffic. The union is now emitted in sorted EdgeID order.
func TestREPMSTDeterministic(t *testing.T) {
	g := graph.WithDistinctWeights(graph.GNM(100, 400, 1), 2)
	var first uint64
	for i := 0; i < 5; i++ {
		res, err := MST(g, core.Config{K: 4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		fp := fingerprint(res)
		if i == 0 {
			first = fp
		} else if fp != first {
			t.Fatalf("run %d: fingerprint %#x != first run %#x", i, fp, first)
		}
	}
}
