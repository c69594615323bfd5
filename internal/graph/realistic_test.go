package graph

import (
	"math"
	"sort"
	"testing"
)

func TestPruferTreeIsUniformTree(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 100, 1000} {
		g := PruferTree(n, 7)
		wantM := n - 1
		if n <= 1 {
			wantM = 0
		}
		if g.M() != wantM {
			t.Fatalf("n=%d: m=%d, want %d", n, g.M(), wantM)
		}
		if n > 0 && !IsConnected(g) {
			t.Fatalf("n=%d: not connected", n)
		}
		if HasCycle(g) {
			t.Fatalf("n=%d: has cycle", n)
		}
	}
}

func TestPruferTreeDistribution(t *testing.T) {
	// On 3 vertices there are exactly 3 labeled trees (each a path with a
	// distinct middle vertex); each should appear ~1/3 of the time.
	counts := map[int]int{}
	const trials = 3000
	for seed := int64(0); seed < trials; seed++ {
		g := PruferTree(3, seed)
		for v := 0; v < 3; v++ {
			if g.Degree(v) == 2 {
				counts[v]++
			}
		}
	}
	for v := 0; v < 3; v++ {
		frac := float64(counts[v]) / trials
		if math.Abs(frac-1.0/3) > 0.05 {
			t.Errorf("middle vertex %d frequency %.3f, want ~0.333", v, frac)
		}
	}
}

func TestPruferTreeDeterministic(t *testing.T) {
	a := PruferTree(50, 3)
	b := PruferTree(50, 3)
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestChungLuDegreeAndTail(t *testing.T) {
	n := 3000
	g := ChungLu(n, 2.5, 8, 11)
	avg := 2 * float64(g.M()) / float64(n)
	if avg < 4 || avg > 14 {
		t.Errorf("average degree %.1f far from requested 8", avg)
	}
	// Heavy tail: the max degree should far exceed the average (unlike
	// GNP where it concentrates), and the degree sequence should decay.
	degs := degreeHistogram(g)
	if float64(degs[0]) < 4*avg {
		t.Errorf("max degree %d shows no heavy tail (avg %.1f)", degs[0], avg)
	}
	if degs[0] != MaxDegree(g) {
		t.Error("histogram head != MaxDegree")
	}
	// Compare with GNP at matched density.
	gnp := GNP(n, avg/float64(n-1), 11)
	if MaxDegree(g) <= 2*MaxDegree(gnp) {
		t.Errorf("ChungLu max degree %d should dwarf GNP's %d", MaxDegree(g), MaxDegree(gnp))
	}
}

func TestChungLuValidSimpleGraph(t *testing.T) {
	g := ChungLu(500, 2.8, 6, 3)
	for _, e := range g.Edges() {
		if e.U == e.V || e.U < 0 || e.V >= 500 {
			t.Fatalf("invalid edge %v", e)
		}
	}
	// Determinism.
	h := ChungLu(500, 2.8, 6, 3)
	if h.M() != g.M() {
		t.Error("not deterministic")
	}
}

func TestChungLuPanicsOnBadGamma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for gamma <= 2")
		}
	}()
	ChungLu(10, 2.0, 3, 1)
}

func TestDegreeHistogramSorted(t *testing.T) {
	g := Star(10)
	degs := degreeHistogram(g)
	if degs[0] != 9 {
		t.Errorf("head = %d", degs[0])
	}
	for i := 1; i < len(degs); i++ {
		if degs[i] > degs[i-1] {
			t.Fatal("not descending")
		}
	}
}

// degreeHistogram returns the sorted degree sequence of g (descending).
func degreeHistogram(g *Graph) []int {
	degs := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		degs[v] = g.Degree(v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	return degs
}
