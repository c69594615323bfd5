package graph

import "sort"

// Sequential oracle algorithms. The distributed algorithms are validated
// against these on every test family.

// UnionFind is a weighted quick-union structure with path compression.
type UnionFind struct {
	parent []int
	size   []int
	count  int
}

// NewUnionFind returns a union-find over n singleton elements.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int, n), size: make([]int, n)}
	uf.Reset()
	return uf
}

// Reset makes every element a singleton again, keeping the arrays.
func (uf *UnionFind) Reset() {
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	uf.count = len(uf.parent)
}

// Find returns the representative of x.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of x and y, reporting whether a merge happened.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.size[rx] < uf.size[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	uf.size[rx] += uf.size[ry]
	uf.count--
	return true
}

// Count returns the number of disjoint sets.
func (uf *UnionFind) Count() int { return uf.count }

// Components returns, for each vertex, the smallest vertex ID in its
// connected component (a canonical labeling), plus the component count.
func Components(g *Graph) (labels []int, count int) {
	uf := NewUnionFind(g.N())
	for u := 0; u < g.N(); u++ {
		for _, h := range g.adj[u] {
			if u < h.To {
				uf.Union(u, h.To)
			}
		}
	}
	min := make([]int, g.N())
	for i := range min {
		min[i] = -1
	}
	for v := 0; v < g.N(); v++ {
		r := uf.Find(v)
		if min[r] == -1 || v < min[r] {
			min[r] = v
		}
	}
	labels = make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		labels[v] = min[uf.Find(v)]
	}
	return labels, uf.Count()
}

// ComponentCount returns the number of connected components of g.
func ComponentCount(g *Graph) int {
	_, c := Components(g)
	return c
}

// IsConnected reports whether g is connected (true for n <= 1).
func IsConnected(g *Graph) bool {
	return g.N() <= 1 || ComponentCount(g) == 1
}

// SameComponent reports whether s and t are in the same component.
func SameComponent(g *Graph, s, t int) bool {
	labels, _ := Components(g)
	return labels[s] == labels[t]
}

// SameLabeling reports whether two labelings induce the same partition of
// 0..n-1 into groups (labels themselves may differ).
func SameLabeling(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[int]int)
	rev := make(map[int]int)
	for i := range a {
		if x, ok := fwd[a[i]]; ok && x != b[i] {
			return false
		}
		if y, ok := rev[b[i]]; ok && y != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}

// EdgeLess is the total order on edges used by all MST code: by weight,
// then by canonical edge ID. It makes every MST unique, so distributed
// results can be compared by set equality.
func EdgeLess(a, b Edge, n int) bool {
	if a.W != b.W {
		return a.W < b.W
	}
	return EdgeID(a.U, a.V, n) < EdgeID(b.U, b.V, n)
}

// KruskalMST returns the minimum spanning forest of g under the EdgeLess
// order, together with its total weight.
func KruskalMST(g *Graph) (forest []Edge, total int64) {
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool { return EdgeLess(edges[i], edges[j], g.N()) })
	uf := NewUnionFind(g.N())
	for _, e := range edges {
		if uf.Union(e.U, e.V) {
			forest = append(forest, e)
			total += e.W
		}
	}
	return forest, total
}

// BFS returns hop distances from src (-1 for unreachable vertices).
func BFS(g *Graph, src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, h := range g.adj[u] {
			if dist[h.To] == -1 {
				dist[h.To] = dist[u] + 1
				queue = append(queue, h.To)
			}
		}
	}
	return dist
}

// Diameter returns the largest finite BFS distance over all sources
// (0 for edgeless graphs). Exact and O(n·m): intended for test-scale
// graphs only.
func Diameter(g *Graph) int {
	d := 0
	for s := 0; s < g.N(); s++ {
		for _, x := range BFS(g, s) {
			if x > d {
				d = x
			}
		}
	}
	return d
}

// IsBipartite reports whether g is 2-colorable (BFS coloring).
func IsBipartite(g *Graph) bool {
	color := make([]int8, g.N()) // 0 = unseen, 1/2 = colors
	for s := 0; s < g.N(); s++ {
		if color[s] != 0 {
			continue
		}
		color[s] = 1
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, h := range g.adj[u] {
				if color[h.To] == 0 {
					color[h.To] = 3 - color[u]
					queue = append(queue, h.To)
				} else if color[h.To] == color[u] {
					return false
				}
			}
		}
	}
	return true
}

// HasCycle reports whether g contains any cycle: m > n - #components.
func HasCycle(g *Graph) bool {
	return g.M() > g.N()-ComponentCount(g)
}

// MinCut returns the weight of a global minimum edge cut of g using the
// Stoer–Wagner algorithm (O(n^3)). g must be connected and have n >= 2.
// Edge weights are interpreted as capacities; for unweighted cuts pass a
// graph with unit weights.
func MinCut(g *Graph) int64 {
	n := g.N()
	if n < 2 {
		return 0
	}
	// Dense capacity matrix; merged vertices are marked inactive.
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
	}
	for u := 0; u < n; u++ {
		for _, h := range g.adj[u] {
			if u < h.To {
				w[u][h.To] += h.W
				w[h.To][u] += h.W
			}
		}
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	best := int64(1) << 62
	for len(active) > 1 {
		// Maximum adjacency (minimum cut phase) order.
		inA := make(map[int]bool, len(active))
		weights := make(map[int]int64, len(active))
		order := make([]int, 0, len(active))
		for len(order) < len(active) {
			// Pick the most tightly connected remaining vertex.
			sel, selW := -1, int64(-1)
			for _, v := range active {
				if inA[v] {
					continue
				}
				if weights[v] > selW {
					sel, selW = v, weights[v]
				}
			}
			inA[sel] = true
			order = append(order, sel)
			for _, v := range active {
				if !inA[v] {
					weights[v] += w[sel][v]
				}
			}
		}
		t := order[len(order)-1]
		cutOfPhase := weights[t]
		if cutOfPhase < best {
			best = cutOfPhase
		}
		// Merge t into s (the second-to-last vertex).
		s := order[len(order)-2]
		for _, v := range active {
			if v != s && v != t {
				w[s][v] += w[t][v]
				w[v][s] = w[s][v]
			}
		}
		// Remove t from the active set.
		for i, v := range active {
			if v == t {
				active = append(active[:i], active[i+1:]...)
				break
			}
		}
	}
	return best
}
