package resident

import (
	"slices"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
)

// coordinator is machine 0's resident certificate state. As stream ingress,
// machine 0 legitimately observes every accepted operation, so it can
// maintain — in free local memory — a connectivity certificate of the
// current graph: the spanning forest established by the last query plus
// the net insertions since. Queries recompute certificate pieces locally
// and ship only changed labels; everything machine 0 knows here it learned
// through metered communication (op routing and verdict collection).
type coordinator struct {
	n       int
	labels  []uint64              // authoritative labeling as of last sync
	forest  map[uint64]graph.Edge // spanning forest of the last queried snapshot, minus deletions
	pending map[uint64]graph.Edge // net accepted insertions since the last query
	// sorted lists the forest's edge IDs in ascending order, plus IDs
	// deleted since the last recompute (which skips and prunes them): one
	// listing serves recompute and forestEdges, and each query only merges
	// its few fresh edges in instead of re-sorting the whole forest.
	sorted []uint64
	uf     *graph.UnionFind // recompute's piece finder, reset per query
	// recompute's per-query tables, indexed by vertex ID (labels and piece
	// roots are vertex IDs) and made by its first call: how many vertices
	// carry each label, and each piece root's chosen label (noLabel until
	// one is chosen).
	classSize  []int32
	pieceLabel []uint64
}

// noLabel marks a piece root without a chosen label: labels are vertex
// IDs, below graph.MaxN.
const noLabel = ^uint64(0)

type vertLabel struct {
	v     int
	label uint64
}

func newCoordinator(n int) *coordinator {
	c := &coordinator{
		n:       n,
		labels:  make([]uint64, n),
		forest:  make(map[uint64]graph.Edge),
		pending: make(map[uint64]graph.Edge),
		uf:      graph.NewUnionFind(n),
	}
	for v := range c.labels {
		c.labels[v] = uint64(v)
	}
	return c
}

// applyAccepted folds one accepted (graph-mutating) op into the
// certificate. A deletion of a certificate edge shrinks it — the next
// query's piece computation discovers any split; a deletion of a
// non-certificate edge cannot change connectivity and is dropped.
func (c *coordinator) applyAccepted(op graph.EdgeOp) {
	id := graph.EdgeID(op.U, op.V, c.n)
	if op.Del {
		if _, ok := c.forest[id]; ok {
			delete(c.forest, id)
			return
		}
		delete(c.pending, id)
		return
	}
	c.pending[id] = graph.Edge{U: op.U, V: op.V, W: op.W}
}

// mergeSortedIDs merges the ascending, disjoint ID lists a and add into a,
// in place from the back.
func mergeSortedIDs(a, add []uint64) []uint64 {
	i, j := len(a)-1, len(add)-1
	a = slices.Grow(a, len(add))[:len(a)+len(add)]
	for k := len(a) - 1; j >= 0; k-- {
		if i >= 0 && a[i] > add[j] {
			a[k] = a[i]
			i--
		} else {
			a[k] = add[j]
			j--
		}
	}
	return a
}

// recompute rebuilds piece labels from the certificate (forest ∪ pending),
// folds the accepted union edges into the new forest, and returns the
// vertices whose label changed plus the certificate size.
//
// Label choice is stability-first. Every label in use is the ID of a
// member vertex, so each previous label L lives in exactly one piece: that
// piece may keep L (distinctness is automatic). A piece containing
// several previous-label vertices — components merged by insertions —
// keeps the label of the largest previous class (ties to the smaller
// label); pieces holding no previous-label vertex (fragments split off by
// deletions) fall back to their minimum vertex ID, which cannot collide
// with any kept label because that label's vertex sits in a different
// piece. The common case — a big component shedding a small fragment —
// therefore relabels only the fragment.
func (c *coordinator) recompute() (changes []vertLabel, certEdges int) {
	certEdges = len(c.forest) + len(c.pending)
	uf := c.uf
	uf.Reset()
	kept := c.sorted[:0]
	for _, id := range c.sorted {
		e, ok := c.forest[id]
		if !ok {
			continue // deleted since the last query
		}
		if uf.Union(e.U, e.V) {
			kept = append(kept, id)
		} else {
			delete(c.forest, id)
		}
	}
	fresh := core.SortedKeys(c.pending)
	accepted := fresh[:0]
	for _, id := range fresh {
		if e := c.pending[id]; uf.Union(e.U, e.V) {
			c.forest[id] = e
			accepted = append(accepted, id)
		}
	}
	c.sorted = mergeSortedIDs(kept, accepted)
	clear(c.pending)

	if c.classSize == nil {
		c.classSize, c.pieceLabel = make([]int32, c.n), make([]uint64, c.n)
	}
	classSize, pieceLabel := c.classSize, c.pieceLabel
	clear(classSize)
	for _, l := range c.labels {
		classSize[l]++
	}
	for r := range pieceLabel {
		pieceLabel[r] = noLabel
	}
	for v := 0; v < c.n; v++ {
		if classSize[v] == 0 {
			continue // v's ID is not a label in use
		}
		r := uf.Find(v)
		if cur := pieceLabel[r]; cur == noLabel || classSize[v] > classSize[cur] {
			pieceLabel[r] = uint64(v)
		}
	}
	// Fallback: minimum vertex of the piece (ascending scan ⇒ first seen).
	for v := 0; v < c.n; v++ {
		if r := uf.Find(v); pieceLabel[r] == noLabel {
			pieceLabel[r] = uint64(v)
		}
	}
	for v := 0; v < c.n; v++ {
		nl := pieceLabel[uf.Find(v)]
		if nl != c.labels[v] {
			changes = append(changes, vertLabel{v: v, label: nl})
			c.labels[v] = nl
		}
	}
	return changes, certEdges
}

// relabelAndGrow applies a query's final sync: per-vertex label updates
// from the merge phases and the freshly sampled merge edges that join the
// forest.
func (c *coordinator) relabelAndGrow(changes []vertLabel, merges []graph.Edge) {
	for _, ch := range changes {
		c.labels[ch.v] = ch.label
	}
	if len(c.forest) == 0 {
		// A cold query's forest is every merge: grow it once.
		c.forest = make(map[uint64]graph.Edge, len(merges))
	}
	fresh := make([]uint64, 0, len(merges))
	for _, e := range merges {
		id := graph.EdgeID(e.U, e.V, c.n)
		if _, ok := c.forest[id]; !ok {
			fresh = append(fresh, id)
		}
		c.forest[id] = e
	}
	slices.Sort(fresh)
	c.sorted = mergeSortedIDs(c.sorted, slices.Compact(fresh))
}

// forestEdges returns the current forest sorted by edge ID.
func (c *coordinator) forestEdges() []graph.Edge {
	out := make([]graph.Edge, 0, len(c.forest))
	for _, id := range c.sorted {
		if e, ok := c.forest[id]; ok {
			out = append(out, e)
		}
	}
	return out
}
