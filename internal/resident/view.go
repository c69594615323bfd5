package resident

import (
	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/sketch"
)

// bankCache maintains sums of part members' l0-sketches over the *current*
// adjacency, per component part held on this machine and per sketch bank —
// but only where a sum pays for itself: a (part, bank) sum is kept only
// when the part is not core.Light, i.e. when its local half-edge count
// reaches Params.Cells() and the summary is smaller than the adjacency it
// summarizes. A light part keeps no sum and ships its adjacency rows
// instead (core.Merger.GatherParts). Kept sums are updated in O(1) per
// edge op by AddItem's ±1 linearity, follow the certificate step's vertex
// moves by AddVertex/SubVertex, fold in place when components merge, and
// are drawn from and returned to the session merger's sketch pool.
type bankCache struct {
	cells int      // Params.Cells(): the keep threshold, in local half-edges
	seeds []uint64 // per-bank sketch seeds
	pool  *sketch.Pool
	parts map[uint64][]*sketch.Sketch // label -> bank -> kept sum (nil = not kept)
	stats BankMetrics
}

func newBankCache(cells int, seeds []uint64, pool *sketch.Pool) *bankCache {
	return &bankCache{cells: cells, seeds: seeds, pool: pool, parts: make(map[uint64][]*sketch.Sketch)}
}

// get returns a part's sketch under one bank (members: their ordinals in
// view): the kept sum of a heavy part (built on first read), or nil for a
// light one, which GatherParts serves from adjacency.
//
//km:hotpath
func (c *bankCache) get(label uint64, bank int, members []int, view *kmachine.Shard) *sketch.Sketch {
	sums := c.parts[label]
	if core.Light(view, members, nil, c.cells) {
		if sums != nil {
			c.drop(label) // the part shrank below what a sum is worth
		}
		c.stats.ReadsRebuilt++
		return nil
	}
	if sums == nil {
		sums = c.track(label)
	}
	if sums[bank] != nil {
		c.stats.ReadsKept++
		return sums[bank]
	}
	c.stats.ReadsRebuilt++
	sk := c.pool.Get(c.seeds[bank])
	sums[bank] = sk
	c.stats.KeptSums++
	c.stats.KeptPeak = max(c.stats.KeptPeak, c.stats.KeptSums)
	for _, i := range members {
		sk.AddVertex(view.Owned()[i], view.Row(i), nil)
	}
	return sk
}

// track starts keeping sums for a part (none yet).
func (c *bankCache) track(label uint64) []*sketch.Sketch {
	sums := make([]*sketch.Sketch, len(c.seeds))
	c.parts[label] = sums
	return sums
}

// update applies one endpoint's incidence delta to every kept sum of the
// endpoint's part: sign follows the a_u convention (+1 when the endpoint is
// the smaller one), negated for deletions.
//
//km:hotpath
func (c *bankCache) update(label uint64, id uint64, sign int) {
	for _, sk := range c.parts[label] {
		if sk != nil {
			sk.AddItem(id, sign)
		}
	}
}

// leave subtracts vertex v's incidence from the kept sums of the part it
// is leaving.
//
//km:hotpath
func (c *bankCache) leave(label uint64, v int, adj []graph.Half) {
	for _, sk := range c.parts[label] {
		if sk != nil {
			sk.SubVertex(v, adj)
		}
	}
}

// join adds vertex v's incidence to the kept sums of the part it joins.
//
//km:hotpath
func (c *bankCache) join(label uint64, v int, adj []graph.Half) {
	for _, sk := range c.parts[label] {
		if sk != nil {
			sk.AddVertex(v, adj, nil)
		}
	}
}

// free returns a kept sum (nil = none) to the pool.
func (c *bankCache) free(sk *sketch.Sketch) {
	if sk != nil {
		c.pool.Put(sk)
		c.stats.KeptSums--
	}
}

// discard frees a kept sum that no longer describes any part.
func (c *bankCache) discard(sk *sketch.Sketch) {
	if sk != nil {
		c.stats.Dropped++
		c.free(sk)
	}
}

// drop discards every kept sum of a part; reads rebuild them on demand.
func (c *bankCache) drop(label uint64) {
	for _, sk := range c.parts[label] {
		c.discard(sk)
	}
	delete(c.parts, label)
}

// close releases every kept sum, so the next session on this process
// recycles the cell arrays.
func (c *bankCache) close() {
	for l := range c.parts {
		c.drop(l)
	}
}

// move carries the certificate step's vertex relabels (labels and parts
// still describe the grouping before them) into the kept sums by
// linearity: a moved vertex's incidence leaves its old part's sums and
// joins its new part's. Only when the leavers are the majority of their
// local part is the part dropped instead — rebuilding from the vertices
// that stay is then the cheaper side.
func (c *bankCache) move(moves []vertLabel, labels []uint64, parts func() []core.Part, view *kmachine.Shard) {
	if len(c.parts) == 0 || len(moves) == 0 {
		return
	}
	leavers := make(map[uint64]int) // kept part -> vertices leaving it
	for _, mv := range moves {
		if old := labels[view.Ordinal(mv.v)]; c.parts[old] != nil {
			leavers[old]++
		}
	}
	if len(leavers) > 0 {
		local := parts()
		for old, n := range leavers {
			if 2*n > len(core.Members(local, old)) {
				c.drop(old)
			}
		}
	}
	for _, mv := range moves {
		adj := view.Adj(mv.v)
		c.leave(labels[view.Ordinal(mv.v)], mv.v, adj)
		c.join(mv.label, mv.v, adj)
	}
}

// mergeRelabel folds kept sums through an old-label -> root map, in place
// (invoked before labels are rewritten: local is the grouping of the old
// labels). A bank of the merged part survives when every local source
// part either keeps it or is light; light sources contribute their members
// by AddVertex, and a lone source's sums just move to the root label. Any
// other bank is released and rebuilt on its next read.
func (c *bankCache) mergeRelabel(relabel map[uint64]uint64, local []core.Part, view *kmachine.Shard) {
	if len(c.parts) == 0 {
		return
	}
	heirs := make(map[uint64][]uint64, len(c.parts)) // root of a kept part -> local sources merging into it
	for l := range c.parts {
		if root, ok := relabel[l]; ok {
			l = root
		}
		heirs[l] = nil
	}
	for old, root := range relabel {
		if srcs, ok := heirs[root]; ok && len(core.Members(local, old)) > 0 {
			heirs[root] = append(srcs, old) // any order: sketch addition commutes
		}
	}
	for root, srcs := range heirs {
		if len(srcs) == 0 {
			continue // a kept part nothing merges into
		}
		if len(core.Members(local, root)) > 0 {
			srcs = append(srcs, root)
		}
		c.fold(root, srcs, local, view)
	}
}

// fold merges the local source parts srcs (at least one of them kept) into
// the part labelled root.
func (c *bankCache) fold(root uint64, srcs []uint64, local []core.Part, view *kmachine.Shard) {
	var dst []*sketch.Sketch
	light := srcs[:0] // sources without sums that are cheap enough to add in
	complete := true  // no heavy source lacks sums altogether
	for _, l := range srcs {
		sums := c.parts[l]
		switch {
		case sums == nil && core.Light(view, core.Members(local, l), nil, c.cells):
			light = append(light, l)
		case sums == nil:
			complete = false
		case dst == nil:
			dst = sums
		default:
			for b, sk := range sums {
				if dst[b] != nil && sk != nil && dst[b].Add(sk) == nil {
					c.free(sk)
					continue
				}
				c.discard(dst[b])
				c.discard(sk)
				dst[b] = nil
			}
		}
		delete(c.parts, l)
	}
	c.parts[root] = dst
	if !complete {
		c.drop(root)
		return
	}
	for _, l := range light {
		for _, i := range core.Members(local, l) {
			c.join(root, view.Owned()[i], view.Row(i))
		}
	}
}
