// Package sketch implements the random linear graph sketches of paper §2.3:
// AGM-style l0-samplers over edge-incidence vectors.
//
// For a vertex u of an n-vertex graph, the incidence vector a_u over the
// (n choose 2) edge slots has a_u[(x,y)] = +1 if u = x < y and the edge
// exists, -1 if x < y = u, and 0 otherwise. A sketch s_u is a small linear
// projection of a_u from which one nonzero coordinate — one incident edge —
// can be recovered. Linearity is the crucial property: s_u + s_v is a valid
// sketch of a_u + a_v, in which the slot of edge (u,v) has cancelled to
// zero. Summing the sketches of a whole component therefore yields a sketch
// of its *outgoing* edges only, which is how the connectivity algorithm
// samples inter-component edges without inspecting edge status (§2.1).
//
// Construction (following Jowhari–Saglam–Tardos l0-sampling via linear
// projections, and Cormode–Firmani for the limited-independence variant the
// paper cites): Reps independent repetitions, each with Levels nested
// geometric subsampling levels (slot survives level l with probability
// 2^-l) and Buckets one-sparse testers per level. A one-sparse tester keeps
// (count, idSum, fingerprint) where the fingerprint is sum a_i * z^id_i
// over GF(2^61-1); a bucket holding exactly one item passes the fingerprint
// test and reveals (id, sign). All hash functions and the fingerprint base
// z derive from a shared seed, so machines build *identical* projections —
// the distributed analogue of the paper's shared sketch matrix L_j.
//
// Every item a sketch holds is added by one kernel (addSlot, under
// AddVertex, SubVertex and AddItem). It reads powers of z from radix-16
// fixed-base windows built per seed and factors a slot's power as
// (z^N)^x · z^y. The field is exact and its elements canonical, so a power
// is the same word however it is factored, and a cell is the same three
// words the formulas above give. Every sample comes from one scan
// (SampleSlots), which can also read items the sketch never holds: it sums
// them into each tester it visits with the words addSlot would add, and so
// returns what adding them first would. It keeps either the first
// productive level's survivor (connectivity) or every slot it verifies
// (MST elimination); a first-slot scan stops early, so only the items at
// the few levels it reads pay for buckets and powers.
//
//km:roundpure
package sketch

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"kmgraph/internal/field"
	"kmgraph/internal/graph"
	"kmgraph/internal/hashing"
	"kmgraph/internal/wire"
)

// Params fixes the shape of a sketch. All machines must use identical
// Params and seed within a phase for sketches to be addable.
type Params struct {
	N       int // number of graph vertices; universe is the n*n edge-slot grid
	Levels  int // geometric subsampling levels
	Buckets int // one-sparse testers per level
	Reps    int // independent repetitions
}

// DefaultParams returns parameters sized for an n-vertex graph:
// Levels = 2*ceil(log2 n) + 2 (universe n^2), Buckets = 6, Reps = 2,
// giving an empirical sampling failure rate well under 10%.
func DefaultParams(n int) Params {
	l := 2
	for s := 1; s < n; s <<= 1 {
		l += 2
	}
	return Params{N: n, Levels: l, Buckets: 6, Reps: 2}
}

// Cells returns the total number of one-sparse testers.
func (p Params) Cells() int { return p.Levels * p.Buckets * p.Reps }

// Status is the outcome of sampling from a sketch.
type Status int

const (
	// Empty means the sketched vector is (or cancelled to) all zeros:
	// the component has no outgoing edges.
	Empty Status = iota
	// Sampled means a nonzero slot was recovered.
	Sampled
	// Failed means the vector is nonzero but no level isolated a single
	// slot; the caller should treat the component as inactive this phase
	// (a low-probability Monte Carlo failure, as the paper permits).
	Failed
)

func (s Status) String() string {
	switch s {
	case Empty:
		return "empty"
	case Sampled:
		return "sampled"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

type cell struct {
	count int64
	idSum uint64 // field element
	fp    uint64 // field element
}

// Sketch is a linear l0-sampler over the edge-slot universe.
//
// Seed-derived hash state is precomputed once per (re)seed: winZ and winN
// are radix-16 fixed-base windows of the fingerprint base z and of z^N, so
// z^e is one lookup per hex digit of e and the power of a slot x·N + y is
// winN[x]·winZ[y]; bpre caches the id-independent prefix of the bucket hash
// per (rep, level); lvlSeed / qsalt cache the level and query salts. Every
// derived value is the word the per-call formula gives (package doc).
type Sketch struct {
	p       Params
	seed    uint64
	lvlSeed uint64   // Hash2(seed, 0xa11ce), the levelOf salt
	qsalt   uint64   // Hash2(seed, 0x9a3f1e), the Sample query salt
	winZ    []uint64 // winZ[16j+d] = z^(d<<4j) for j < ceil(bits(N)/4)
	winN    []uint64 // winN[16j+d] = (z^N)^(d<<4j), same length
	bpre    []uint64 // Hash3(seed, rep, level) per (rep*Levels + level)
	cells   []cell
	// touched[rep*Levels+level] has bit b set if bucket b was ever written;
	// clear bits are guaranteed-zero cells, so the scan paths (encode,
	// sample, Reset) skip them. A touched cell may still have cancelled
	// back to zero — those are re-checked against the actual values.
	touched []uint64
}

// New returns an all-zero sketch for the given shared seed. Seeds must be
// fresh per phase (the paper's per-phase sketch matrix L_j); derive them as
// a shared hash of (master seed, phase, iteration).
func New(p Params, seed uint64) *Sketch {
	if p.Buckets > 64 {
		// The touched/encode bucket bitmaps are one uint64 per (rep, level).
		panic(fmt.Sprintf("sketch: Buckets = %d, bitmap supports at most 64", p.Buckets))
	}
	s := &Sketch{
		p:       p,
		cells:   make([]cell, p.Cells()),
		touched: make([]uint64, p.Reps*p.Levels),
	}
	s.reseed(seed)
	return s
}

func zBase(seed uint64) uint64 {
	z := field.Reduce(hashing.Hash2(seed, 0x5eedba5e))
	if z < 2 {
		z += 2
	}
	return z
}

// reseed recomputes the seed-derived tables (without touching cells). z^N
// is read through the windows of z just built, never the previous seed's.
func (s *Sketch) reseed(seed uint64) {
	s.seed = seed
	s.lvlSeed = hashing.Hash2(seed, 0xa11ce)
	s.qsalt = hashing.Hash2(seed, 0x9a3f1e)
	w := max(1, (bits.Len64(uint64(s.p.N))+3)/4)
	s.winZ = fillWindows(s.winZ, zBase(seed), w)
	s.winN = fillWindows(s.winN, pow(s.winZ, uint64(s.p.N)), w)
	nb := s.p.Reps * s.p.Levels
	if cap(s.bpre) < nb {
		s.bpre = make([]uint64, nb)
	}
	s.bpre = s.bpre[:nb]
	for rep := 0; rep < s.p.Reps; rep++ {
		for level := 0; level < s.p.Levels; level++ {
			s.bpre[rep*s.p.Levels+level] = hashing.Hash3(seed, uint64(rep), uint64(level))
		}
	}
}

// fillWindows returns win resized to w radix-16 windows of base:
// win[16j+d] = base^(d<<4j).
func fillWindows(win []uint64, base uint64, w int) []uint64 {
	win = slices.Grow(win[:0], 16*w)[:16*w]
	for j := 0; j < len(win); j += 16 {
		row := win[j : j+16]
		row[0], row[1] = 1, base
		for d := 2; d < 16; d++ { // halves, not a chain: the multiplies overlap
			row[d] = field.Mul(row[d/2], row[(d+1)/2])
		}
		base = field.Mul(row[8], row[8])
	}
	return win
}

// pow returns win's base to the e, one lookup per hex digit of e. The
// windows cover every e <= N, so every coordinate of a universe slot.
//
//km:hotpath
func pow(win []uint64, e uint64) uint64 {
	r := win[e&15]
	for j := 16; e > 15; j += 16 {
		e >>= 4
		r = field.Mul(r, win[j+int(e&15)])
	}
	return r
}

// Reset zeroes the sketch in place, keeping shape, seed, and hash tables.
// Sparse sketches clear only the cells that were written; dense ones fall
// back to one bulk clear.
func (s *Sketch) Reset() {
	nb := s.p.Buckets
	n := 0
	for _, t := range s.touched {
		n += bits.OnesCount64(t)
	}
	if 4*n >= len(s.cells) {
		clear(s.cells)
		clear(s.touched)
		return
	}
	for rl, t := range s.touched {
		if t == 0 {
			continue
		}
		base := rl * nb
		for ; t != 0; t &= t - 1 {
			s.cells[base+bits.TrailingZeros64(t)] = cell{}
		}
		s.touched[rl] = 0
	}
}

// Seed returns the shared seed the sketch was built with.
func (s *Sketch) Seed() uint64 { return s.seed }

// levelOf returns the highest subsampling level slot id survives to,
// capped at Levels-1. Nested: the slot is present in levels 0..levelOf.
func (s *Sketch) levelOf(id uint64) int {
	tz := hashing.TrailingZeros(s.lvlSeed, id)
	if tz >= s.p.Levels {
		return s.p.Levels - 1
	}
	return tz
}

// idMix is the id-dependent half of the bucket hash; combined with the
// cached (rep, level) prefix it reproduces hashing.Hash4 exactly.
func idMix(id uint64) uint64 {
	return hashing.Mix64(id ^ 0x8CB92BA72F3D8DD7)
}

func (s *Sketch) bucketOf(rep, level int, id uint64) int {
	return hashing.RangeOf(hashing.Mix64(s.bpre[rep*s.p.Levels+level]^idMix(id)), s.p.Buckets)
}

// powID returns z^id for a slot id = x·N + y as (z^N)^x · z^y.
//
//km:hotpath
func (s *Sketch) powID(id uint64) uint64 {
	n := uint64(s.p.N)
	return field.Mul(pow(s.winN, id/n), pow(s.winZ, id%n))
}

// AddItem adds sign (+1 or -1) to slot id, a slot of the universe (id < N²).
//
//km:hotpath
func (s *Sketch) AddItem(id uint64, sign int) {
	if sign > 0 {
		s.addSlot(id, +1, s.powID(id))
	} else {
		s.addSlot(id, -1, field.Neg(s.powID(id)))
	}
}

// addSlot is the one item-add loop: it adds cnt = ±1 at slot id, given the
// signed fingerprint term fp = cnt·z^id. The sign rides in the field
// elements (Add(x, Neg(b)) == Sub(x, b) on canonical values), so the cell
// loop has no branch on it.
//
//km:hotpath
func (s *Sketch) addSlot(id uint64, cnt int64, fp uint64) {
	idf := field.Reduce(id)
	if cnt < 0 {
		idf = field.Neg(idf)
	}
	mix := idMix(id)
	top := s.levelOf(id)
	nb := s.p.Buckets
	for rep := 0; rep < s.p.Reps; rep++ {
		base := rep * s.p.Levels
		touched := s.touched[base : base+top+1]
		for level, pre := range s.bpre[base : base+top+1] {
			b := hashing.RangeOf(hashing.Mix64(pre^mix), nb)
			touched[level] |= 1 << uint(b)
			c := &s.cells[(base+level)*nb+b]
			c.count += cnt
			c.idSum = field.Add(c.idSum, idf)
			c.fp = field.Add(c.fp, fp)
		}
	}
}

// AddVertex adds the full incidence vector of vertex u given its adjacency
// list, including only edges for which filter returns true (nil = all).
// The filter receives the origin vertex u and the half-edge, so callers can
// threshold on the (weight, edge ID) total order — the "zero out all
// entries referring to heavier edges" step of the paper's MST elimination
// (§3.1). The sign convention implements a_u: +1 when u is the smaller
// endpoint.
//
//km:hotpath
func (s *Sketch) AddVertex(u int, adj []graph.Half, filter func(u int, h graph.Half) bool) {
	s.addVertex(u, adj, filter, +1)
}

// SubVertex subtracts the incidence vector of vertex u — the inverse of
// AddVertex(u, adj, nil), so a maintained sum can let a vertex go by
// linearity instead of being rebuilt without it.
//
//km:hotpath
func (s *Sketch) SubVertex(u int, adj []graph.Half) {
	s.addVertex(u, adj, nil, -1)
}

// addVertex adds sign·a_u. Fingerprint powers factor over the slot id
// x·N + y as (z^N)^x · z^y: the per-vertex factors (z^N)^u and z^u are
// computed once, with the slot's sign folded in, and each neighbour costs
// one short window walk and one multiply.
//
//km:hotpath
func (s *Sketch) addVertex(u int, adj []graph.Half, filter func(u int, h graph.Half) bool, sign int64) {
	n := uint64(s.p.N)
	zun, zu := pow(s.winN, uint64(u)), field.Neg(pow(s.winZ, uint64(u)))
	if sign < 0 {
		zun, zu = field.Neg(zun), field.Neg(zu)
	}
	for _, h := range adj {
		if filter != nil && !filter(u, h) {
			continue
		}
		if v := uint64(h.To); u < h.To {
			s.addSlot(uint64(u)*n+v, sign, field.Mul(zun, pow(s.winZ, v)))
		} else {
			s.addSlot(v*n+uint64(u), -sign, field.Mul(pow(s.winN, v), zu))
		}
	}
}

// Add accumulates other into s (vector addition). Shapes and seeds must
// match; this is the linearity that merges component parts (Lemma 2).
//
//km:hotpath
func (s *Sketch) Add(other *Sketch) error {
	if s.p != other.p || s.seed != other.seed {
		return fmt.Errorf("sketch: shape/seed mismatch") //kmvet:ignore error path; shapes are fixed per run
	}
	nb := s.p.Buckets
	for rl, t := range other.touched {
		base := rl * nb
		for tt := t; tt != 0; tt &= tt - 1 {
			b := bits.TrailingZeros64(tt)
			sc, oc := &s.cells[base+b], &other.cells[base+b]
			sc.count += oc.count
			sc.idSum = field.Add(sc.idSum, oc.idSum)
			sc.fp = field.Add(sc.fp, oc.fp)
		}
		s.touched[rl] |= t
	}
	return nil
}

// verify checks whether cell c holds exactly one slot and returns it.
func (s *Sketch) verify(c *cell) (id uint64, sign int, ok bool) {
	switch c.count {
	case 1:
		id = c.idSum
		sign = +1
	case -1:
		id = field.Neg(c.idSum)
		sign = -1
	default:
		return 0, 0, false
	}
	maxID := uint64(s.p.N) * uint64(s.p.N)
	if id >= maxID {
		return 0, 0, false
	}
	want := s.powID(id)
	if sign < 0 {
		want = field.Neg(want)
	}
	if c.fp != want {
		return 0, 0, false
	}
	return id, sign, true
}

// Sample recovers one nonzero slot of the sketched vector: the slot of a
// first-slot SampleSlots scan without items (levels from the sparsest
// down, the max-hash verified slot of the first productive level). The
// same sketch always returns the same answer.
func (s *Sketch) Sample() (id uint64, sign int, st Status) {
	var one [1]Slot
	slots, st, _ := s.SampleSlots(one[:0], nil, false)
	if st != Sampled {
		return 0, 0, st
	}
	return slots[0].ID, slots[0].Sign, st
}

// Item is one signed slot, packed in a word: the slot id shifted left
// once, the low bit set when the sign is -1. Every slot of a graph's
// universe fits, as ids stay below graph.MaxN² = 2^62.
type Item uint64

// MakeItem packs slot id with sign (+1 or -1).
func MakeItem(id uint64, sign int) Item {
	if sign < 0 {
		return Item(id<<1 | 1)
	}
	return Item(id << 1)
}

// Items is a list of items that SampleSlots reads beside a sketch without
// adding them, with the scratch it orders them in: the items by level
// (ord; lvl holds each one's level, above[l] counts those above level l),
// the terms of those at the levels scanned so far (hot), and one row of
// testers to sum them in (row). Reused, it stops growing once warm.
type Items struct {
	List []Item // in any order; duplicates and opposite signs add up

	ord   []Item
	lvl   []uint8
	above []int32
	hot   []term
	row   []cell
}

// term is an item's share of the testers it reaches: its bucket-hash mix
// and the signed count, idSum and fingerprint addSlot would add.
type term struct {
	mix, idf, fp uint64
	cnt          int64
}

// Slot is one recovered coordinate of a sketched vector: an edge-slot id
// and the sign of its entry.
type Slot struct {
	ID   uint64
	Sign int
}

// Edge decodes the slot into its canonical edge (x < y) over n vertices and
// the endpoint outside the sketched vertex set: y when the sign is +1 (the
// smaller endpoint x is the one inside), x otherwise.
func (sl Slot) Edge(n int) (x, y, outside int) {
	x, y = graph.DecodeEdgeID(sl.ID, n)
	if sl.Sign > 0 {
		return x, y, y
	}
	return x, y, x
}

// SampleSlots is the one sampler scan. It reads the sketched vector plus
// items.List (nil = none) as if each item had been added with AddItem, and
// leaves s unchanged. It walks the levels from the sparsest down and takes
// each (rep, level) row's testers as s's cells plus the items whose level
// reaches that row, checking each non-zero tester for one slot (one-sparse
// fingerprint, level and bucket consistency). It appends the recovered
// slots to buf and returns the extended buf: first the max-hash slot of
// the first level that verifies any — the level's "survivor", which
// approximates a uniform sample over the support (Sample's answer) — then,
// when all is set, every other distinct slot verified at any level of any
// repetition, in scan order (levels from the sparsest down, then
// repetition, then bucket). A sum verifies at most Cells() slots.
//
// Without all the scan stops at the first productive level, as the
// paper's sampler does (§2.3), so only the items at the few levels it
// reads pay for buckets and fingerprint powers; the rest cost one level
// hash each. Connectivity reads that one slot. MST elimination (core.MWOE)
// reads them all, as candidates in place of §3.1's single draw.
//
// A scan that verifies nothing has visited every tester: st is Empty when
// all of them were zero, Failed otherwise. full reports that the slots are
// the whole support of the vector: an Empty scan, or an all scan in which
// some repetition's level-0 row — where every slot lives, whatever its
// level — had every non-zero tester verified.
//
//km:hotpath
func (s *Sketch) SampleSlots(buf []Slot, items *Items, all bool) (slots []Slot, st Status, full bool) {
	// Above the highest written row and the highest item every tester is
	// zero: the scan starts below them.
	top := s.topRow()
	var ord []Item
	var hot []term
	var row []cell
	if items != nil && len(items.List) > 0 {
		var itop int
		ord, itop = items.order(s)
		top, hot, row = max(top, itop), items.hot[:0], items.row
	}
	first, nb := len(buf), s.p.Buckets
	var headH uint64
	nonzero := false
	for level := top; level >= 0 && (all || len(buf) == first); level-- {
		// The items at level or above: ord[:end], the new ones made hot.
		end := len(ord)
		if level > 0 && len(ord) > 0 {
			end = int(items.above[level-1])
		}
		for _, it := range ord[len(hot):end] {
			hot = append(hot, s.termOf(it))
		}
		// Until a level produces a slot, its max-hash slot is the head.
		head := len(buf) == first
		for rep := 0; rep < s.p.Reps; rep++ {
			rl := rep*s.p.Levels + level
			cells, mask := s.cells[rl*nb:(rl+1)*nb], s.touched[rl]
			if len(hot) > 0 {
				copy(row, cells)
				for i := range hot {
					t := &hot[i]
					b := hashing.RangeOf(hashing.Mix64(s.bpre[rl]^t.mix), nb)
					mask |= 1 << uint(b)
					c := &row[b]
					c.count += t.cnt
					c.idSum = field.Add(c.idSum, t.idf)
					c.fp = field.Add(c.fp, t.fp)
				}
				cells = row
			}
			nz, verified := 0, 0
			for ; mask != 0; mask &= mask - 1 {
				b := bits.TrailingZeros64(mask)
				c := &cells[b]
				if c.count == 0 && c.idSum == 0 && c.fp == 0 {
					continue
				}
				nz++
				cid, csign, ok := s.verify(c)
				// Consistency: the slot must actually belong here.
				if !ok || s.levelOf(cid) < level || s.bucketOf(rep, level, cid) != b {
					continue
				}
				verified++
				if hasSlot(buf[first:], cid) {
					continue
				}
				sl := Slot{ID: cid, Sign: csign}
				if !head {
					buf = append(buf, sl)
					continue
				}
				h := hashing.Hash2(s.qsalt, cid)
				if len(buf) > first && h <= headH {
					if all {
						buf = append(buf, sl)
					}
					continue
				}
				headH = h
				if all {
					buf = append(buf, sl)
					last := len(buf) - 1
					buf[first], buf[last] = buf[last], buf[first]
				} else {
					buf = append(buf[:first], sl)
				}
			}
			nonzero = nonzero || nz > 0
			if all && level == 0 && nz > 0 && verified == nz {
				full = true
			}
		}
	}
	switch {
	case len(buf) > first:
		return buf, Sampled, full
	case nonzero:
		return buf, Failed, false
	}
	return buf, Empty, true
}

// topRow returns the highest level at which some repetition's row has a
// written tester, or -1 when none has.
func (s *Sketch) topRow() int {
	for level := s.p.Levels - 1; level >= 0; level-- {
		for rl := level; rl < len(s.touched); rl += s.p.Levels {
			if s.touched[rl] != 0 {
				return level
			}
		}
	}
	return -1
}

// order returns l.List ordered by level under s, highest first, in l.ord —
// a counting pass that hashes each item once for its level — and the
// highest level, with l.above[lv] the number of items above level lv; it
// sizes l.hot to hold every item's term and l.row to a row of s's testers.
//
//km:hotpath
func (l *Items) order(s *Sketch) (ord []Item, top int) {
	n, levels := len(l.List), s.p.Levels
	lvl := slices.Grow(l.lvl[:0], n)[:n]
	above := slices.Grow(l.above[:0], levels)[:levels]
	clear(above)
	for i, it := range l.List {
		lv := s.levelOf(uint64(it) >> 1)
		lvl[i] = uint8(lv)
		above[lv]++
		top = max(top, lv)
	}
	// Running sums from the top: above[lv] = items at level lv or above.
	for lv, c := levels-2, above[levels-1]; lv >= 0; lv-- {
		c += above[lv]
		above[lv] = c
	}
	// Fill each level's range from its end; what is left is the start of
	// the range, the number of items above the level.
	ord = slices.Grow(l.ord[:0], n)[:n]
	for i := n - 1; i >= 0; i-- {
		lv := lvl[i]
		above[lv]--
		ord[above[lv]] = l.List[i]
	}
	l.hot = slices.Grow(l.hot[:0], n)
	l.row = slices.Grow(l.row[:0], s.p.Buckets)[:s.p.Buckets]
	l.lvl, l.above, l.ord = lvl, above, ord
	return ord, top
}

// termOf returns what item it adds to each tester it reaches, as addSlot
// adds it.
func (s *Sketch) termOf(it Item) term {
	id := uint64(it) >> 1
	t := term{mix: idMix(id), idf: field.Reduce(id), fp: s.powID(id), cnt: 1}
	if it&1 != 0 {
		t.idf, t.fp, t.cnt = field.Neg(t.idf), field.Neg(t.fp), -1
	}
	return t
}

// hasSlot reports whether id is among slots (a sum verifies a few slots,
// a handful of times each: a scan beats any index).
func hasSlot(slots []Slot, id uint64) bool {
	for i := range slots {
		if slots[i].ID == id {
			return true
		}
	}
	return false
}

// EncodeTo appends a compact wire encoding: per (rep, level) a bucket
// bitmap of nonzero testers followed by their contents. Zero sketches cost
// a few bytes; dense ones are bounded by Cells() * ~17 bytes.
//
//km:hotpath
func (s *Sketch) EncodeTo(buf []byte) []byte {
	nb := s.p.Buckets
	for rl, t := range s.touched {
		base := rl * nb
		var bitmap uint64
		for tt := t; tt != 0; tt &= tt - 1 {
			b := bits.TrailingZeros64(tt)
			c := &s.cells[base+b]
			if c.count != 0 || c.idSum != 0 || c.fp != 0 {
				bitmap |= 1 << uint(b)
			}
		}
		buf = wire.AppendUvarint(buf, bitmap)
		for bm := bitmap; bm != 0; bm &= bm - 1 {
			c := &s.cells[base+bits.TrailingZeros64(bm)]
			buf = wire.AppendVarint(buf, c.count)
			buf = wire.AppendU64(buf, c.idSum)
			buf = wire.AppendU64(buf, c.fp)
		}
	}
	return buf
}

// Decode parses a sketch produced by EncodeTo with the same Params/seed.
func Decode(p Params, seed uint64, data []byte) (*Sketch, error) {
	if p.Buckets > 64 {
		return nil, fmt.Errorf("sketch: bucket bitmap supports at most 64 buckets")
	}
	s := New(p, seed)
	if err := s.AddEncoded(data); err != nil {
		return nil, err
	}
	return s, nil
}

// AddEncoded accumulates a wire-encoded sketch (same Params/seed) into s
// by linearity, without materializing the intermediate: decoding into a
// zero sketch equals Decode; decoding into a non-zero one equals
// Decode-then-Add. This is the proxy-side summation fast path. After an
// error s holds part of data and is unspecified: callers panic or discard it.
func (s *Sketch) AddEncoded(data []byte) error {
	nb := s.p.Buckets
	off := 0
	for rl := 0; rl < s.p.Reps*s.p.Levels; rl++ {
		bitmap, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return wire.ErrTruncated
		}
		off += n
		if bitmap>>uint(nb) != 0 {
			return fmt.Errorf("sketch: bucket bitmap out of range")
		}
		s.touched[rl] |= bitmap
		base := rl * nb
		for bm := bitmap; bm != 0; bm &= bm - 1 {
			cnt, n := binary.Varint(data[off:])
			if n <= 0 {
				return wire.ErrTruncated
			}
			off += n
			if len(data)-off < 16 {
				return wire.ErrTruncated
			}
			// EncodeTo emits canonical field elements; reduce defensively
			// only when a value is out of range (never on the fast path).
			idSum := binary.LittleEndian.Uint64(data[off:])
			fp := binary.LittleEndian.Uint64(data[off+8:])
			if idSum >= field.P || fp >= field.P {
				idSum, fp = field.Reduce(idSum), field.Reduce(fp)
			}
			c := &s.cells[base+bits.TrailingZeros64(bm)]
			c.count += cnt
			c.idSum = field.Add(c.idSum, idSum)
			c.fp = field.Add(c.fp, fp)
			off += 16
		}
	}
	if off != len(data) {
		return fmt.Errorf("wire: %d trailing bytes", len(data)-off)
	}
	return nil
}

// shared recycles sketch allocations of one shape across the whole
// process (sync.Map keyed by Params, sync.Pool per shape): one-shot runs
// stop paying a fresh cell-array allocation per sketch per run. Sketches
// from the shared pool are always Reset before use, so reuse is invisible.
var shared sync.Map // Params -> *sync.Pool

func sharedPool(p Params) *sync.Pool {
	if v, ok := shared.Load(p); ok {
		return v.(*sync.Pool)
	}
	v, _ := shared.LoadOrStore(p, &sync.Pool{})
	return v.(*sync.Pool)
}

// Pool recycles sketches of one shape across phases: Get returns a zeroed
// sketch for the requested seed (reusing a free one's cell array), Put
// returns sketches for reuse. The pool caches the seed-derived hash tables
// of the last seed it saw, so the per-phase table computation is paid once
// per machine instead of once per sketch (within a phase, every part and
// sum sketch shares one seed); allocation misses are backed by the
// process-wide shared pool. Pools are single-goroutine, like the machines
// that own them.
type Pool struct {
	p      Params
	free   []*Sketch
	tab    *Sketch // table donor: holds the cached tables for tab.seed
	global *sync.Pool
	out    int // sketches handed out and not yet returned
	peak   int // high-water of out
}

// NewPool returns a pool producing sketches of shape p.
func NewPool(p Params) *Pool {
	if p.Buckets > 64 {
		panic(fmt.Sprintf("sketch: Buckets = %d, bitmap supports at most 64", p.Buckets))
	}
	return &Pool{p: p, global: sharedPool(p)}
}

// ensureTab makes the pool's table donor hold tables for seed.
func (pl *Pool) ensureTab(seed uint64) *Sketch {
	if pl.tab == nil {
		pl.tab = &Sketch{p: pl.p}
		pl.tab.reseed(seed)
	} else if pl.tab.seed != seed {
		pl.tab.reseed(seed)
	}
	return pl.tab
}

// adoptTab copies the donor's precomputed tables into s.
func (s *Sketch) adoptTab(tab *Sketch) {
	s.seed = tab.seed
	s.lvlSeed = tab.lvlSeed
	s.qsalt = tab.qsalt
	s.winZ = append(s.winZ[:0], tab.winZ...)
	s.winN = append(s.winN[:0], tab.winN...)
	s.bpre = append(s.bpre[:0], tab.bpre...)
}

// Peak returns the most sketches the pool ever had handed out at once:
// what its owner held in dense cell arrays at its worst moment.
func (pl *Pool) Peak() int { return pl.peak }

// Get returns an all-zero sketch for the given seed.
func (pl *Pool) Get(seed uint64) *Sketch {
	pl.out++
	pl.peak = max(pl.peak, pl.out)
	if n := len(pl.free); n > 0 {
		s := pl.free[n-1]
		pl.free = pl.free[:n-1]
		if s.seed != seed {
			s.adoptTab(pl.ensureTab(seed))
		}
		s.Reset()
		return s
	}
	if v := pl.global.Get(); v != nil {
		s := v.(*Sketch)
		s.adoptTab(pl.ensureTab(seed))
		s.Reset()
		return s
	}
	s := &Sketch{
		p:       pl.p,
		cells:   make([]cell, pl.p.Cells()),
		touched: make([]uint64, pl.p.Reps*pl.p.Levels),
	}
	s.adoptTab(pl.ensureTab(seed))
	return s
}

// Put returns sketches to the local free list. Nil entries are ignored.
// The free list is retained until Release hands it to the process-wide
// shared pool — call Release when the owning machine's run is over.
func (pl *Pool) Put(ss ...*Sketch) {
	for _, s := range ss {
		if s != nil {
			pl.free = append(pl.free, s)
			pl.out--
		}
	}
}

// Release drains the local free list into the process-wide shared pool.
func (pl *Pool) Release() {
	for _, s := range pl.free {
		pl.global.Put(s)
	}
	pl.free = pl.free[:0]
}
