package resident

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/sketch"
)

// bankRig is one machine's bank state driven by hand: a mutating shard
// over the vertices it owns (every third vertex lives elsewhere), a part
// labeling, and the cache under test. Cells() is 12, so parts cross the
// keep threshold after a handful of edges.
type bankRig struct {
	t      *testing.T
	params sketch.Params
	view   *kmachine.Shard
	labels []uint64 // parallel to view.Owned()
	c      *bankCache
}

func newBankRig(t *testing.T, n, banks int) *bankRig {
	params := sketch.Params{N: n, Levels: 6, Buckets: 2, Reps: 1}
	home := func(v int) int { return min(v%3, 1) }
	r := &bankRig{t: t, params: params}
	var owned []int
	for v := 0; v < n; v++ {
		if home(v) == 0 {
			owned = append(owned, v)
			r.labels = append(r.labels, uint64(v))
		}
	}
	r.view = kmachine.NewShard(n, 0, owned, home, nil)
	seeds := make([]uint64, banks)
	for b := range seeds {
		seeds[b] = 0xb0 + uint64(b)
	}
	r.c = newBankCache(params.Cells(), seeds, sketch.NewPool(params))
	return r
}

// label returns owned vertex v's part label; setLabel moves it.
func (r *bankRig) label(v int) uint64       { return r.labels[r.view.Ordinal(v)] }
func (r *bankRig) setLabel(v int, l uint64) { r.labels[r.view.Ordinal(v)] = l }

// parts is the grouping core.Merger.Parts gives, built independently.
func (r *bankRig) parts() []core.Part {
	byLabel := make(map[uint64][]int) // label -> member ordinals
	for i, l := range r.labels {
		byLabel[l] = append(byLabel[l], i)
	}
	var ps []core.Part
	for _, l := range core.SortedKeys(byLabel) {
		ps = append(ps, core.Part{Label: l, Members: byLabel[l]})
	}
	return ps
}

// want is the reference: a fresh AddVertex build over the part's current
// adjacency (members: ordinals), encoded.
func (r *bankRig) want(bank int, members []int) []byte {
	sk := sketch.New(r.params, r.c.seeds[bank])
	for _, i := range members {
		v := r.view.Owned()[i]
		sk.AddVertex(v, r.view.Adj(v), nil)
	}
	return sk.EncodeTo(nil)
}

// setEdge inserts or deletes u–v the way applyOp does for owned endpoints.
func (r *bankRig) setEdge(u, v int, del bool) {
	if u > v {
		u, v = v, u
	}
	id := graph.EdgeID(u, v, r.params.N)
	sign := +1
	if del {
		sign = -1
	}
	for _, end := range [2]struct{ a, b, sign int }{{u, v, sign}, {v, u, -sign}} {
		if r.view.Home(end.a) != 0 {
			continue
		}
		changed := del && r.view.Remove(end.a, end.b) || !del && r.view.Insert(end.a, graph.Half{To: end.b, W: 1})
		if changed {
			r.c.update(r.label(end.a), id, end.sign)
		}
	}
}

func (r *bankRig) move(moves []vertLabel) {
	r.c.move(moves, r.labels, r.parts, r.view)
	for _, mv := range moves {
		r.setLabel(mv.v, mv.label)
	}
}

func (r *bankRig) merge(relabel map[uint64]uint64) {
	r.c.mergeRelabel(relabel, r.parts(), r.view)
	for i, l := range r.labels {
		if root, ok := relabel[l]; ok {
			r.labels[i] = root
		}
	}
}

// read plays one phase's reads of a bank and checks every result: nil for
// a light part (its rows travel instead), a fresh build's vector otherwise.
func (r *bankRig) read(bank int) {
	r.t.Helper()
	for _, p := range r.parts() {
		sk := r.c.get(p.Label, bank, p.Members, r.view)
		if light := core.Light(r.view, p.Members, nil, r.c.cells); light != (sk == nil) {
			r.t.Fatalf("get(part %d, bank %d) = %v for a part with light = %v", p.Label, bank, sk, light)
		}
		if sk != nil && !bytes.Equal(sk.EncodeTo(nil), r.want(bank, p.Members)) {
			r.t.Fatalf("get(part %d, bank %d) differs from a fresh build", p.Label, bank)
		}
	}
}

// check asserts the cache invariant: every kept sum belongs to a live local
// part and equals a fresh build over it, and the ledger's gauge counts
// exactly the kept sums.
func (r *bankRig) check(when string) {
	r.t.Helper()
	parts := r.parts()
	kept := 0
	for label, sums := range r.c.parts {
		members := core.Members(parts, label)
		if members == nil {
			r.t.Fatalf("%s: sums kept for label %d, which has no local part", when, label)
		}
		for b, sk := range sums {
			if sk == nil {
				continue
			}
			kept++
			if !bytes.Equal(sk.EncodeTo(nil), r.want(b, members)) {
				r.t.Fatalf("%s: kept sum (part %d, bank %d) differs from a fresh build", when, label, b)
			}
		}
	}
	if kept != r.c.stats.KeptSums {
		r.t.Fatalf("%s: %d sums kept, ledger says %d", when, kept, r.c.stats.KeptSums)
	}
}

func (r *bankRig) keeps(label uint64, bank int) bool {
	sums := r.c.parts[label]
	return sums != nil && sums[bank] != nil
}

// star gives owned vertex c edges to its deg successors that are not owned
// (so the part stays a singleton with deg local half-edges).
func (r *bankRig) star(c, deg int) {
	for v := c + 1; deg > 0; v++ {
		if r.view.Home(v) != 0 {
			r.setEdge(c, v, false)
			deg--
		}
	}
}

// TestBankCacheScenarios walks the rule's edges one at a time.
func TestBankCacheScenarios(t *testing.T) {
	const cells = 12
	t.Run("threshold both ways", func(t *testing.T) {
		r := newBankRig(t, 90, 3)
		r.star(0, cells-1)
		r.read(0)
		if len(r.c.parts) != 0 {
			t.Fatalf("a part of %d half-edges keeps sums", cells-1)
		}
		r.setEdge(0, 89, false)
		r.read(0)
		if !r.keeps(0, 0) || r.keeps(0, 1) {
			t.Fatalf("a part of %d half-edges must keep exactly the bank it was read under", cells)
		}
		before := r.c.stats
		r.read(0)
		if r.c.stats.ReadsKept != before.ReadsKept+1 {
			t.Fatal("second read of a kept bank was not served from the sum")
		}
		r.setEdge(0, 89, true)
		r.check("after delete")
		r.read(0)
		if len(r.c.parts) != 0 || r.c.stats.Dropped != before.Dropped+1 {
			t.Fatal("a part that fell below the threshold still keeps sums")
		}
		r.check("end")
	})

	t.Run("merge: light sources are added in, a lone source moves", func(t *testing.T) {
		r := newBankRig(t, 90, 3)
		r.star(0, cells)
		r.star(30, 3)
		r.setEdge(0, 30, false)
		r.read(0)
		r.read(2)
		r.merge(map[uint64]uint64{30: 0}) // light 30 into kept root 0
		if !r.keeps(0, 0) || !r.keeps(0, 2) {
			t.Fatal("light source cost the root its sums")
		}
		r.check("light into root")
		r.merge(map[uint64]uint64{0: 7}) // root 7 is not local: the entry just moves
		if !r.keeps(7, 0) || !r.keeps(7, 2) || r.c.parts[0] != nil {
			t.Fatal("single-source relabel did not move the entry")
		}
		r.check("moved")
		r.merge(map[uint64]uint64{7: 60}) // root 60 is a local light singleton
		if !r.keeps(60, 0) {
			t.Fatal("kept source into a light local root lost its sums")
		}
		r.check("into light root")
	})

	t.Run("merge: banks intersect, a heavy source without sums costs all", func(t *testing.T) {
		r := newBankRig(t, 120, 3)
		r.star(0, cells)
		r.star(30, cells)
		r.star(60, cells)
		parts := r.parts()
		r.c.get(0, 0, core.Members(parts, 0), r.view)
		r.c.get(0, 1, core.Members(parts, 0), r.view)
		r.c.get(30, 1, core.Members(parts, 30), r.view)
		r.c.get(30, 2, core.Members(parts, 30), r.view)
		r.merge(map[uint64]uint64{30: 0})
		if r.keeps(0, 0) || !r.keeps(0, 1) || r.keeps(0, 2) {
			t.Fatalf("merged part must keep exactly the bank both sources kept")
		}
		r.check("intersected")
		r.merge(map[uint64]uint64{0: 60}) // 60 is heavy and was never read
		if len(r.c.parts) != 0 || r.c.stats.KeptSums != 0 {
			t.Fatal("a heavy source without sums must cost the merged part its sums")
		}
		r.check("end")
	})

	t.Run("move: minority leaves by linearity, majority drops", func(t *testing.T) {
		r := newBankRig(t, 120, 2)
		r.star(0, cells)
		for _, v := range []int{3, 6, 9, 12} {
			r.star(v, 2)
			r.setLabel(v, 0)
		}
		r.star(60, cells)
		r.read(0)
		r.read(1)
		r.move([]vertLabel{{v: 3, label: 60}, {v: 6, label: 6}}) // 2 of 5 leave part 0; 3 joins kept part 60
		if !r.keeps(0, 0) || !r.keeps(60, 1) {
			t.Fatal("a minority move dropped sums")
		}
		r.check("minority")
		dropped := r.c.stats.Dropped
		r.move([]vertLabel{{v: 9, label: 9}, {v: 12, label: 60}}) // 2 of 3 leave
		if r.c.parts[0] != nil || r.c.stats.Dropped != dropped+2 {
			t.Fatal("a majority leave must drop the part's sums")
		}
		if !r.keeps(60, 0) {
			t.Fatal("the joined part lost its sums")
		}
		r.check("majority")
		r.read(0)
	})
}

// TestBankCacheMatchesFreshBuilds drives random edge updates, certificate
// moves, merges and reads over a mutating view and checks after every step
// that kept or rebuilt, a sum is the vector a fresh build gives.
func TestBankCacheMatchesFreshBuilds(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		const n, banks = 96, 4
		rng := rand.New(rand.NewSource(seed))
		r := newBankRig(t, n, banks)
		owned := r.view.Owned()
		for step := 0; step < 1500; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // edge churn, insert-biased so parts grow heavy
				u, v := owned[rng.Intn(len(owned))], rng.Intn(n)
				if u != v {
					r.setEdge(u, v, rng.Intn(3) == 0)
				}
			case op < 6: // certificate step: a few vertices change part
				var moves []vertLabel
				for _, i := range rng.Perm(len(owned))[:1+rng.Intn(4)] {
					v := owned[i]
					to := r.label(owned[rng.Intn(len(owned))])
					if rng.Intn(3) == 0 {
						to = uint64(v) // split off under its own id, as fragments do
					}
					if to != r.label(v) {
						moves = append(moves, vertLabel{v: v, label: to})
					}
				}
				r.move(moves)
			case op < 8: // a phase's relabel: some parts merge under a root
				var ls []uint64
				for _, p := range r.parts() {
					ls = append(ls, p.Label)
				}
				relabel := make(map[uint64]uint64)
				root := ls[rng.Intn(len(ls))]
				if rng.Intn(4) == 0 {
					root = uint64(1 + 3*rng.Intn(n/3)) // a component whose root part lives elsewhere
				}
				for _, i := range rng.Perm(len(ls))[:min(len(ls), 1+rng.Intn(3))] {
					if ls[i] != root {
						relabel[ls[i]] = root
					}
				}
				if len(relabel) > 0 {
					r.merge(relabel)
				}
			default:
				r.read(rng.Intn(banks))
			}
			r.check("random step")
		}
		st := r.c.stats
		if st.ReadsKept == 0 || st.ReadsRebuilt == 0 || st.Dropped == 0 {
			t.Fatalf("seed %d: run too tame to mean anything: %+v", seed, st)
		}
		r.c.close()
		if r.c.stats.KeptSums != 0 || len(r.c.parts) != 0 {
			t.Fatalf("seed %d: close left %d sums", seed, r.c.stats.KeptSums)
		}
	}
}

// TestColdQueryKeepsNoSumsForSingletons pins the point of the rule at the
// engine: phase 0 of a cold query reads n singleton parts and keeps nothing,
// and what a full query keeps stays inside the half-edges / Cells() bound.
func TestColdQueryKeepsNoSumsForSingletons(t *testing.T) {
	g := graph.GNM(600, 1800, 9)
	ctx := context.Background()

	e := mustEngine(t, g, Config{Config: core.Config{K: 4, Seed: 3, MaxPhases: 1}})
	if _, err := e.Query(ctx); !errors.Is(err, core.ErrNotConverged) {
		t.Fatalf("one-phase query: err = %v, want ErrNotConverged", err)
	}
	b := e.Metrics().Banks
	if b.KeptSums != 0 || b.KeptBytes != 0 || b.ReadsKept != 0 || b.ReadsRebuilt != int64(g.N()) {
		t.Fatalf("phase 0 over singletons: %+v, want %d rebuilt reads and nothing kept", b, g.N())
	}

	e = mustEngine(t, g, Config{Config: core.Config{K: 4, Seed: 3}})
	q, err := e.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, g, q)
	b = e.Metrics().Banks
	cells := e.local.cfg.Sketch.Cells()
	if limit := q.Phases * (2 * g.M() / cells); b.KeptSums == 0 || b.KeptSums > limit {
		t.Fatalf("kept sums = %d after %d phases, want 1..%d (half-edges/Cells() per bank read)", b.KeptSums, q.Phases, limit)
	}
	if b.KeptBytes != int64(b.KeptSums*cells*cellBytes) {
		t.Fatalf("KeptBytes = %d for %d sums of %d cells", b.KeptBytes, b.KeptSums, cells)
	}
	// Unchanged-graph requeries read bank 0 only: the first one builds it
	// for the parts grown heavy since phase 0, the second is served by it.
	for i := 0; i < 2; i++ {
		if _, err := e.Query(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if after := e.Metrics().Banks; after.ReadsKept <= b.ReadsKept || after.KeptSums <= b.KeptSums {
		t.Fatalf("requeries: before %+v after %+v; want bank 0 kept, then read", b, after)
	}
}
