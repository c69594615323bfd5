package resident

import (
	"cmp"
	"slices"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
)

// coordinator is machine 0's resident certificate state. As stream ingress,
// machine 0 legitimately observes every accepted operation, so it can
// maintain — in free local memory — a connectivity certificate of the
// current graph: the spanning forest established by the last query plus
// the net insertions since. Queries recompute certificate pieces locally,
// ship only changed labels out and take one rename per changed class back;
// everything machine 0 knows here it learned through metered communication
// (op routing, verdict collection and the final sync).
type coordinator struct {
	n      int
	labels []uint64 // authoritative labeling as of last sync
	// forest is the spanning forest of the last queried snapshot, sorted by
	// edge ID; an edge deleted since stays as a dead entry until recompute
	// prunes it. Each query merges its few fresh edges in instead of
	// re-sorting the whole forest.
	forest  []forestEdge
	pending map[uint64]graph.Edge // net accepted insertions since the last query
	uf      *graph.UnionFind      // recompute's piece finder, reset per query
	// recompute's per-query tables, indexed by vertex ID (labels and piece
	// roots are vertex IDs) and made by its first call: how many vertices
	// carry each label, and each piece root's chosen label (noLabel until
	// one is chosen). relabelAndGrow reuses pieceLabel as its rename table.
	classSize  []int32
	pieceLabel []uint64
}

// forestEdge is one certificate forest entry: the edge, its ID, and
// whether it was deleted since the last recompute.
type forestEdge struct {
	id   uint64
	e    graph.Edge
	dead bool
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
		i, ok := slices.BinarySearchFunc(c.forest, id, func(f forestEdge, id uint64) int { return cmp.Compare(f.id, id) })
		if ok && !c.forest[i].dead {
			c.forest[i].dead = true
			return
		}
		delete(c.pending, id)
		return
	}
	c.pending[id] = graph.Edge{U: op.U, V: op.V, W: op.W}
}

// grow merges fresh edges into the forest: add is sorted by ID and
// compacted, then merged in place from the back. None of its edges may be
// in the forest already.
func (c *coordinator) grow(add []forestEdge) {
	slices.SortFunc(add, func(a, b forestEdge) int { return cmp.Compare(a.id, b.id) })
	add = slices.CompactFunc(add, func(a, b forestEdge) bool { return a.id == b.id })
	a := c.forest
	if len(a) == 0 {
		c.forest = add
		return
	}
	i, j := len(a)-1, len(add)-1
	a = slices.Grow(a, len(add))[:len(a)+len(add)]
	for k := len(a) - 1; j >= 0; k-- {
		if i >= 0 && a[i].id > add[j].id {
			a[k] = a[i]
			i--
		} else {
			a[k] = add[j]
			j--
		}
	}
	c.forest = a
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
	uf := c.uf
	uf.Reset()
	kept := c.forest[:0]
	for _, f := range c.forest {
		if f.dead {
			continue // deleted since the last query
		}
		certEdges++
		if uf.Union(f.e.U, f.e.V) {
			kept = append(kept, f)
		}
	}
	certEdges += len(c.pending)
	var accepted []forestEdge
	for _, id := range core.SortedKeys(c.pending) {
		if e := c.pending[id]; uf.Union(e.U, e.V) {
			accepted = append(accepted, forestEdge{id: id, e: e})
		}
	}
	c.forest = kept
	c.grow(accepted)
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

// relabelAndGrow applies a query's final sync: the merge phases' renames,
// pre<<32 | post words of a pre-query label and the label its class took
// (each machine sends one word per class it holds members of), and the
// freshly sampled merge edges that join the forest (a merge edge joins two
// pieces, so none is in it already). It runs after recompute, which leaves
// no dead entry.
func (c *coordinator) relabelAndGrow(renames []uint64, merges []graph.Edge) {
	if len(renames) > 0 {
		ren := c.pieceLabel // recompute's scratch once it returns
		for l := range ren {
			ren[l] = noLabel
		}
		for _, w := range renames {
			ren[w>>32] = w & (1<<32 - 1)
		}
		for v, l := range c.labels {
			if r := ren[l]; r != noLabel {
				c.labels[v] = r
			}
		}
	}
	add := make([]forestEdge, len(merges))
	for i, e := range merges {
		add[i] = forestEdge{id: graph.EdgeID(e.U, e.V, c.n), e: e}
	}
	c.grow(add)
}

// forestEdges returns the current forest's live edges, sorted by edge ID.
func (c *coordinator) forestEdges() []graph.Edge {
	out := make([]graph.Edge, 0, len(c.forest))
	for _, f := range c.forest {
		if !f.dead {
			out = append(out, f.e)
		}
	}
	return out
}
