package graph

import (
	"math"
	"math/rand"
	"sort"
)

// Realistic workload generators: the paper motivates the k-machine model
// with "massive graphs such as the Web graph, social networks, biological
// networks" (§1). These families have heavy-tailed degrees, which stress
// exactly the congestion the proxy machinery is designed to absorb (a
// hub's home machine would otherwise be a hotspot).

// PruferTree returns a uniformly random labeled tree on n vertices,
// decoded from a random Prüfer sequence (exactly uniform over all n^(n-2)
// labeled trees, unlike the recursive-attachment RandomTree).
func PruferTree(n int, seed int64) *Graph {
	if n <= 1 {
		return NewBuilder(n).Build()
	}
	if n == 2 {
		b := NewBuilder(2)
		b.AddEdge(0, 1, 1)
		return b.Build()
	}
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int, n-2)
	for i := range seq {
		seq[i] = rng.Intn(n)
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range seq {
		degree[v]++
	}
	b := NewBuilder(n)
	// Min-leaf decoding with a simple ordered scan pointer.
	leafPtr := 0
	leaf := -1
	used := make([]bool, n)
	nextLeaf := func() int {
		for ; leafPtr < n; leafPtr++ {
			if degree[leafPtr] == 1 && !used[leafPtr] {
				l := leafPtr
				leafPtr++
				return l
			}
		}
		return -1
	}
	leaf = nextLeaf()
	for _, v := range seq {
		b.AddEdge(leaf, v, 1)
		used[leaf] = true
		degree[v]--
		if degree[v] == 1 && v < leafPtr {
			leaf = v // v became the smallest leaf
		} else {
			leaf = nextLeaf()
		}
	}
	// Connect the last two remaining vertices.
	last := -1
	for v := 0; v < n; v++ {
		if !used[v] && v != leaf {
			last = v
		}
	}
	b.AddEdge(leaf, last, 1)
	return b.Build()
}

// ChungLu returns a Chung–Lu random graph with an (approximately)
// power-law expected degree sequence with exponent gamma > 2 and average
// degree avgDeg: edge {u,v} appears with probability proportional to
// w_u·w_v. Heavy-tailed hubs make it the "web graph / social network"
// workload of the paper's introduction.
func ChungLu(n int, gamma, avgDeg float64, seed int64) *Graph {
	if gamma <= 2 {
		panic("graph: ChungLu needs gamma > 2")
	}
	rng := rand.New(rand.NewSource(seed))
	// Power-law weights w_i = c * (i+1)^(-1/(gamma-1)), scaled to the
	// requested average degree.
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -1/(gamma-1))
		sum += w[i]
	}
	scale := avgDeg * float64(n) / sum
	for i := range w {
		w[i] *= scale
	}
	// Shuffle weights so vertex IDs carry no degree information.
	rng.Shuffle(n, func(i, j int) { w[i], w[j] = w[j], w[i] })

	b := NewBuilder(n)
	// Miller–Hagberg sampling: process vertices in decreasing weight
	// order; within a row the edge probabilities are non-increasing, so a
	// geometric skip at the current bound p plus rejection q/p yields an
	// exact sample in expected O(n + m) time.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, c int) bool { return w[idx[a]] > w[idx[c]] })
	S := sum * scale // sum of scaled weights
	for a := 0; a < n-1; a++ {
		u := idx[a]
		c := a + 1
		p := w[u] * w[idx[c]] / S
		if p > 1 {
			p = 1
		}
		for c < n && p > 0 {
			if p < 1 {
				c += int(math.Floor(math.Log(1-rng.Float64()) / math.Log(1-p)))
			}
			if c >= n {
				break
			}
			v := idx[c]
			q := w[u] * w[v] / S
			if q > 1 {
				q = 1
			}
			if rng.Float64() < q/p {
				b.TryAddEdge(u, v, 1)
			}
			p = q
			c++
		}
	}
	return b.Build()
}

// MaxDegree returns the maximum degree of g.
func MaxDegree(g *Graph) int {
	m := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > m {
			m = d
		}
	}
	return m
}
