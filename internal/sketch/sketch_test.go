package sketch

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"kmgraph/internal/field"
	"kmgraph/internal/graph"
	"kmgraph/internal/hashing"
)

// isZero reports whether every tester of s is zero.
func isZero(s *Sketch) bool {
	return !slices.ContainsFunc(s.cells, func(c cell) bool { return c != (cell{}) })
}

// sampleEdge decodes Sample's slot into its canonical edge (x < y) and the
// endpoint inside the sketched vertex set.
func sampleEdge(s *Sketch) (x, y, inside int, st Status) {
	id, sign, st := s.Sample()
	if st != Sampled {
		return 0, 0, 0, st
	}
	x, y, outside := Slot{ID: id, Sign: sign}.Edge(s.p.N)
	return x, y, x + y - outside, st
}

func TestOneItemRecovery(t *testing.T) {
	p := DefaultParams(100)
	for _, sign := range []int{+1, -1} {
		s := New(p, 42)
		s.AddItem(577, sign)
		id, gs, st := s.Sample()
		if st != Sampled || id != 577 || gs != sign {
			t.Fatalf("sign %d: got id=%d sign=%d status=%v", sign, id, gs, st)
		}
	}
}

func TestEmptySketch(t *testing.T) {
	s := New(DefaultParams(50), 1)
	if !isZero(s) {
		t.Fatal("fresh sketch should be zero")
	}
	if _, _, st := s.Sample(); st != Empty {
		t.Fatalf("status = %v, want Empty", st)
	}
}

func TestCancellation(t *testing.T) {
	p := DefaultParams(64)
	s := New(p, 7)
	// +1 and -1 on the same slot must cancel exactly.
	s.AddItem(999, +1)
	s.AddItem(999, -1)
	if !isZero(s) {
		t.Fatal("cancelled sketch should be exactly zero")
	}
}

func TestLinearityMatchesDirect(t *testing.T) {
	p := DefaultParams(64)
	a := New(p, 3)
	b := New(p, 3)
	direct := New(p, 3)
	items := []struct {
		id   uint64
		sign int
	}{{5, 1}, {600, -1}, {601, 1}, {7, 1}, {5, -1}}
	for i, it := range items {
		if i%2 == 0 {
			a.AddItem(it.id, it.sign)
		} else {
			b.AddItem(it.id, it.sign)
		}
		direct.AddItem(it.id, it.sign)
	}
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	for i := range a.cells {
		if a.cells[i] != direct.cells[i] {
			t.Fatalf("cell %d differs after Add", i)
		}
	}
}

func TestAddShapeMismatch(t *testing.T) {
	a := New(DefaultParams(64), 3)
	b := New(DefaultParams(64), 4) // different seed
	if err := a.Add(b); err == nil {
		t.Fatal("expected seed mismatch error")
	}
	c := New(Params{N: 64, Levels: 4, Buckets: 6, Reps: 2}, 3)
	if err := a.Add(c); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestSampleReturnsSupportElement(t *testing.T) {
	p := DefaultParams(1000)
	for seed := uint64(0); seed < 50; seed++ {
		s := New(p, seed)
		support := map[uint64]int{}
		for i := 0; i < 20; i++ {
			id := hashing.Hash2(seed^0xbeef, uint64(i)) % (1000 * 1000)
			if _, dup := support[id]; dup {
				continue
			}
			sign := +1
			if i%3 == 0 {
				sign = -1
			}
			support[id] = sign
			s.AddItem(id, sign)
		}
		id, sign, st := s.Sample()
		if st == Failed {
			continue // counted separately below
		}
		if st != Sampled {
			t.Fatalf("seed %d: status %v on nonzero vector", seed, st)
		}
		wantSign, ok := support[id]
		if !ok {
			t.Fatalf("seed %d: sampled id %d not in support", seed, id)
		}
		if sign != wantSign {
			t.Fatalf("seed %d: sampled sign %d, want %d", seed, sign, wantSign)
		}
	}
}

func TestFailureRateSmall(t *testing.T) {
	// Over many seeds and support sizes, the sampler should succeed on the
	// overwhelming majority of nonzero vectors.
	p := DefaultParams(2000)
	fails, total := 0, 0
	for seed := uint64(0); seed < 40; seed++ {
		for _, supportSize := range []int{1, 2, 5, 20, 100, 500} {
			s := New(p, seed*131+7)
			for i := 0; i < supportSize; i++ {
				id := hashing.Hash3(seed, 0xfeed, uint64(i)) % (2000 * 2000)
				s.AddItem(id, 1)
			}
			_, _, st := s.Sample()
			total++
			if st == Failed {
				fails++
			} else if st == Empty {
				t.Fatal("nonzero vector reported Empty")
			}
		}
	}
	if rate := float64(fails) / float64(total); rate > 0.10 {
		t.Errorf("failure rate %.3f > 0.10 (%d/%d)", rate, fails, total)
	}
}

func TestSampleApproximatelyUniform(t *testing.T) {
	// Over independent seeds, each support element should be sampled a
	// non-negligible fraction of the time (no element starved).
	p := DefaultParams(500)
	const k = 8
	counts := make(map[uint64]int, k)
	ids := make([]uint64, k)
	for i := range ids {
		ids[i] = uint64(1000 + 777*i)
	}
	trials := 0
	for seed := uint64(0); seed < 600; seed++ {
		s := New(p, seed)
		for _, id := range ids {
			s.AddItem(id, 1)
		}
		id, _, st := s.Sample()
		if st != Sampled {
			continue
		}
		counts[id]++
		trials++
	}
	for _, id := range ids {
		frac := float64(counts[id]) / float64(trials)
		if frac < 0.02 {
			t.Errorf("id %d sampled fraction %.3f: starved", id, frac)
		}
	}
}

func TestVertexSketchSamplesIncidentEdge(t *testing.T) {
	g := graph.GNM(60, 250, 9)
	p := DefaultParams(60)
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) == 0 {
			continue
		}
		s := New(p, 77)
		s.AddVertex(u, g.Adj(u), nil)
		x, y, inside, st := sampleEdge(s)
		if st == Failed {
			continue
		}
		if st != Sampled {
			t.Fatalf("vertex %d: status %v", u, st)
		}
		if !g.HasEdge(x, y) {
			t.Fatalf("vertex %d: sampled non-edge (%d,%d)", u, x, y)
		}
		if inside != u {
			t.Fatalf("vertex %d: side flag says inside=%d", u, inside)
		}
	}
}

func TestComponentSketchSamplesOutgoingEdge(t *testing.T) {
	// Two planted components joined by nothing; within a component the
	// summed sketch must sample only edges leaving the chosen subset.
	g := graph.RandomConnected(80, 200, 5)
	p := DefaultParams(80)
	inSet := func(v int) bool { return v < 40 }
	for seed := uint64(0); seed < 30; seed++ {
		s := New(p, seed)
		for u := 0; u < g.N(); u++ {
			if inSet(u) {
				s.AddVertex(u, g.Adj(u), nil)
			}
		}
		x, y, inside, st := sampleEdge(s)
		if st == Failed {
			continue
		}
		if st != Sampled {
			t.Fatalf("seed %d: status %v", seed, st)
		}
		if !g.HasEdge(x, y) {
			t.Fatalf("seed %d: non-edge (%d,%d)", seed, x, y)
		}
		if inSet(x) == inSet(y) {
			t.Fatalf("seed %d: edge (%d,%d) does not cross the cut", seed, x, y)
		}
		if !inSet(inside) {
			t.Fatalf("seed %d: side flag wrong for (%d,%d)", seed, x, y)
		}
	}
}

func TestComponentSketchEmptyWhenSaturated(t *testing.T) {
	// Summing the sketches of ALL vertices of a graph cancels every edge.
	g := graph.RandomConnected(50, 120, 2)
	s := New(DefaultParams(50), 13)
	for u := 0; u < g.N(); u++ {
		s.AddVertex(u, g.Adj(u), nil)
	}
	if !isZero(s) {
		t.Fatal("whole-graph sketch should cancel to zero")
	}
}

func TestFilteredSketch(t *testing.T) {
	// Only edges with weight < 5 should be sampleable.
	g := graph.WithDistinctWeights(graph.Complete(10), 3)
	p := DefaultParams(10)
	filter := func(u int, h graph.Half) bool { return h.W < 5 }
	for seed := uint64(0); seed < 20; seed++ {
		s := New(p, seed)
		s.AddVertex(0, g.Adj(0), filter)
		x, y, _, st := sampleEdge(s)
		if st == Failed || st == Empty {
			continue
		}
		w, ok := g.Weight(x, y)
		if !ok || w >= 5 {
			t.Fatalf("seed %d: sampled filtered-out edge (%d,%d,w=%d)", seed, x, y, w)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := DefaultParams(300)
	s := New(p, 21)
	for i := uint64(0); i < 40; i++ {
		sign := 1
		if i%2 == 0 {
			sign = -1
		}
		s.AddItem(hashing.Hash2(5, i)%(300*300), sign)
	}
	buf := s.EncodeTo(nil)
	d, err := Decode(p, 21, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.cells {
		if s.cells[i] != d.cells[i] {
			t.Fatalf("cell %d differs after decode", i)
		}
	}
	// Zero sketch encodes small.
	z := New(p, 21).EncodeTo(nil)
	if len(z) > p.Reps*p.Levels*2 {
		t.Errorf("zero sketch encoding too large: %d bytes", len(z))
	}
}

func TestDecodeErrors(t *testing.T) {
	p := DefaultParams(300)
	s := New(p, 1)
	s.AddItem(5, 1)
	buf := s.EncodeTo(nil)
	if _, err := Decode(p, 1, buf[:len(buf)-3]); err == nil {
		t.Error("truncated decode should fail")
	}
	if _, err := Decode(p, 1, append(buf, 0)); err == nil {
		t.Error("trailing bytes should fail")
	}
	bad := p
	bad.Buckets = 100
	if _, err := Decode(bad, 1, buf); err == nil {
		t.Error("too many buckets should fail")
	}
}

func TestDefaultParamsScaling(t *testing.T) {
	small := DefaultParams(10)
	big := DefaultParams(100000)
	if big.Levels <= small.Levels {
		t.Error("levels should grow with n")
	}
	if big.Levels > 64 {
		t.Errorf("levels = %d unexpectedly large", big.Levels)
	}
}

func BenchmarkAddVertexDeg16(b *testing.B) {
	g := graph.GNM(1000, 8000, 1)
	p := DefaultParams(1000)
	s := New(p, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddVertex(i%1000, g.Adj(i%1000), nil)
	}
}

// BenchmarkAddVertexFiltered is MST's closure path: a weight threshold
// that passes half of every row.
func BenchmarkAddVertexFiltered(b *testing.B) {
	g := graph.WithDistinctWeights(graph.GNM(1000, 8000, 1), 3)
	s := New(DefaultParams(1000), 9)
	limit := int64(g.M() / 2)
	lighter := func(u int, h graph.Half) bool { return h.W <= limit }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddVertex(i%1000, g.Adj(i%1000), lighter)
	}
}

func BenchmarkSubVertex(b *testing.B) {
	g := graph.GNM(1000, 8000, 1)
	s := New(DefaultParams(1000), 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SubVertex(i%1000, g.Adj(i%1000))
	}
}

// BenchmarkPoolGetReseed alternates seeds on one pooled sketch, so every
// Get rebuilds and copies the seed-derived tables: the price of a phase
// change at the benchmark's n.
func BenchmarkPoolGetReseed(b *testing.B) {
	pl := NewPool(DefaultParams(4000))
	pl.Put(pl.Get(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Put(pl.Get(uint64(i&1) + 1))
	}
}

func BenchmarkSample(b *testing.B) {
	p := DefaultParams(4096)
	s := New(p, 9)
	for i := uint64(0); i < 100; i++ {
		s.AddItem(i*37+5, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample()
	}
}

func BenchmarkSampleAll(b *testing.B) {
	p := DefaultParams(4096)
	s := New(p, 9)
	for i := uint64(0); i < 100; i++ {
		s.AddItem(i*37+5, 1)
	}
	var buf []Slot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _, _ = s.SampleSlots(buf[:0], nil, true)
	}
}

func BenchmarkEncode(b *testing.B) {
	p := DefaultParams(4096)
	s := New(p, 9)
	for i := uint64(0); i < 200; i++ {
		s.AddItem(i*53+11, 1)
	}
	b.ResetTimer()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = s.EncodeTo(buf[:0])
	}
}

// TestAddEncodedMatchesDecodeAdd pins the proxy-side fast path: adding an
// encoded sketch into an accumulator must equal Decode followed by Add.
func TestAddEncodedMatchesDecodeAdd(t *testing.T) {
	p := DefaultParams(64)
	const seed = 0xfeed
	a, b := New(p, seed), New(p, seed)
	for i := 0; i < 40; i++ {
		a.AddItem(uint64(i*63%4000), 1-2*(i%2))
		b.AddItem(uint64(i*17%4000), 1-2*((i+1)%2))
	}
	encA, encB := a.EncodeTo(nil), b.EncodeTo(nil)

	slow, err := Decode(p, seed, encA)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(p, seed, encB)
	if err != nil {
		t.Fatal(err)
	}
	if err := slow.Add(dec); err != nil {
		t.Fatal(err)
	}

	fast := New(p, seed)
	if err := fast.AddEncoded(encA); err != nil {
		t.Fatal(err)
	}
	if err := fast.AddEncoded(encB); err != nil {
		t.Fatal(err)
	}
	if got, want := string(fast.EncodeTo(nil)), string(slow.EncodeTo(nil)); got != want {
		t.Fatal("AddEncoded drifted from Decode+Add")
	}
}

// TestPoolReuseBitExact pins pooled-sketch reuse: a sketch recycled through
// several seeds — its tables rebuilt by the pool's donor and copied in —
// must encode and sample exactly like a fresh New(p, seed) at every one,
// whichever way the items arrive.
func TestPoolReuseBitExact(t *testing.T) {
	for _, n := range []int{128, 4000, 1 << 20} {
		p := DefaultParams(n)
		pl := NewPool(p)
		vs, rows := testVertices(n), testRows(n, int64(n))
		build := func(s *Sketch) {
			for i := 0; i < 25; i++ {
				s.AddItem(uint64(i*i+3), +1)
			}
			for _, u := range vs {
				s.AddVertex(u, rows[u], nil)
			}
			s.SubVertex(vs[0], rows[vs[0]])
		}
		for _, seed := range []uint64{1, 99, 1 << 40, 99, 0} {
			got := pl.Get(seed)
			build(got)
			want := New(p, seed)
			build(want)
			if !bytes.Equal(got.EncodeTo(nil), want.EncodeTo(nil)) {
				t.Fatalf("n %d seed %d: pooled sketch drifted from fresh sketch", n, seed)
			}
			gid, gsign, gst := got.Sample()
			wid, wsign, wst := want.Sample()
			if gid != wid || gsign != wsign || gst != wst || gst != Sampled {
				t.Fatalf("n %d seed %d: pooled sketch samples (%d, %d, %v), fresh (%d, %d, %v)",
					n, seed, gid, gsign, gst, wid, wsign, wst)
			}
			if !slices.Equal(got.winZ, want.winZ) || !slices.Equal(got.winN, want.winN) {
				t.Fatalf("n %d seed %d: pooled sketch holds another seed's windows", n, seed)
			}
			pl.Put(got)
		}
		pl.Release()
	}
}

// TestAddVertexMatchesAddItem pins the factored fingerprint path:
// AddVertex must produce exactly the cells that per-item AddItem does.
func TestAddVertexMatchesAddItem(t *testing.T) {
	n := 200
	p := DefaultParams(n)
	const seed = 0xabcde
	adj := []graph.Half{{To: 3, W: 1}, {To: 150, W: 2}, {To: 199, W: 3}, {To: 7, W: 4}}
	u := 42

	viaVertex := New(p, seed)
	viaVertex.AddVertex(u, adj, nil)

	viaItems := New(p, seed)
	for _, h := range adj {
		id := graph.EdgeID(u, h.To, n)
		if u < h.To {
			viaItems.AddItem(id, +1)
		} else {
			viaItems.AddItem(id, -1)
		}
	}
	if string(viaVertex.EncodeTo(nil)) != string(viaItems.EncodeTo(nil)) {
		t.Fatal("AddVertex drifted from AddItem")
	}

	// SubVertex is its inverse: a sum lets one member go and equals the
	// sketch of the member that stays.
	other := []graph.Half{{To: 42, W: 1}, {To: 9, W: 1}}
	viaVertex.AddVertex(77, other, nil)
	viaVertex.SubVertex(u, adj)
	stays := New(p, seed)
	stays.AddVertex(77, other, nil)
	if string(viaVertex.EncodeTo(nil)) != string(stays.EncodeTo(nil)) {
		t.Fatal("SubVertex did not undo AddVertex")
	}
}

// TestSampleAllAgreesWithSampleAndSupport: over random supports of size
// 0…200 — built with ± pairs that cancel, so the sketch has touched cells
// that are zero again — an all-slots scan's first slot and status are Sample's,
// every slot is a support element with its sign, none repeats, and a full
// decode returns the support exactly. A second shape small enough to fail covers
// Failed and truncated decodes.
func TestSampleAllAgreesWithSampleAndSupport(t *testing.T) {
	shapes := []Params{
		DefaultParams(64),
		{N: 64, Levels: 3, Buckets: 2, Reps: 1},
	}
	seen := make(map[Status]int)
	fulls, partials := 0, 0
	var buf []Slot
	for si, p := range shapes {
		rng := rand.New(rand.NewSource(int64(si) + 1))
		universe := uint64(p.N) * uint64(p.N)
		for trial := 0; trial < 400; trial++ {
			s := New(p, rng.Uint64())
			support := make(map[uint64]int)
			size := rng.Intn(201)
			if trial%8 == 0 {
				size = rng.Intn(8) // supports a level-0 row can hold apart
			}
			for len(support) < size {
				id := rng.Uint64() % universe
				if support[id] == 0 {
					support[id] = 1 - 2*rng.Intn(2)
					s.AddItem(id, support[id])
				}
			}
			for j := rng.Intn(50); j > 0; j-- {
				id := rng.Uint64() % universe
				sign := 1 - 2*rng.Intn(2)
				s.AddItem(id, sign)
				s.AddItem(id, -sign)
			}

			id, sign, st := s.Sample()
			var full bool
			var ast Status
			buf, ast, full = s.SampleSlots(buf[:0], nil, true)
			seen[ast]++
			if ast != st {
				t.Fatalf("shape %d trial %d: all-slots status %v, Sample's %v", si, trial, ast, st)
			}
			if (st == Sampled) != (len(buf) > 0) {
				t.Fatalf("shape %d trial %d: status %v with %d slots", si, trial, st, len(buf))
			}
			if (st == Empty) != (size == 0) {
				t.Fatalf("shape %d trial %d: status %v on a support of %d", si, trial, st, size)
			}
			if st == Sampled && (buf[0] != Slot{ID: id, Sign: sign}) {
				t.Fatalf("shape %d trial %d: head %+v, Sample drew (%d, %d)", si, trial, buf[0], id, sign)
			}
			// Appending after a caller's own prefix changes nothing: the
			// prefix stays, and is not consulted for duplicates.
			pre := []Slot{{ID: id, Sign: 7}}
			if after, _, _ := s.SampleSlots(pre, nil, true); after[0] != pre[0] || !slices.Equal(after[1:], buf) {
				t.Fatalf("shape %d trial %d: after a prefix the scan appended %v, alone %v", si, trial, after[1:], buf)
			}
			got := make(map[uint64]bool, len(buf))
			for _, sl := range buf {
				if support[sl.ID] != sl.Sign {
					t.Fatalf("shape %d trial %d: slot %+v, support has sign %d", si, trial, sl, support[sl.ID])
				}
				if got[sl.ID] {
					t.Fatalf("shape %d trial %d: slot %d returned twice", si, trial, sl.ID)
				}
				got[sl.ID] = true
			}
			switch {
			case full && len(buf) != size:
				t.Fatalf("shape %d trial %d: decoded in full with %d slots of a support of %d", si, trial, len(buf), size)
			case full:
				fulls++
			case st == Sampled:
				partials++
			}
		}
	}
	t.Logf("statuses %v, %d full decodes, %d partial", seen, fulls, partials)
	if seen[Empty] == 0 || seen[Sampled] == 0 || seen[Failed] == 0 || fulls == 0 || partials == 0 {
		t.Error("the inputs do not cover every status and both decode verdicts")
	}
}

// TestSampleAllAllocationFree pins the caller-owned buffer: once it has
// grown, reading every slot of a sum allocates nothing.
func TestSampleAllAllocationFree(t *testing.T) {
	p := DefaultParams(256)
	s := New(p, 5)
	for i := uint64(0); i < 40; i++ {
		s.AddItem(hashing.Hash2(9, i)%(256*256), 1)
	}
	buf, st, _ := s.SampleSlots(nil, nil, true)
	if st != Sampled || len(buf) < 2 {
		t.Fatalf("status %v, %d slots: want several", st, len(buf))
	}
	if a := testing.AllocsPerRun(100, func() { buf, _, _ = s.SampleSlots(buf[:0], nil, true) }); a != 0 {
		t.Fatalf("an all-slots scan with a reused buffer allocates %.1f times per call", a)
	}
}

// testVertices returns vertices of an n-vertex graph on both sides of every
// radix-16 window boundary n has, with the ends of the range.
func testVertices(n int) []int {
	var vs []int
	for _, v := range []int{0, 1, 15, 16, 17, 255, 256, 257, 4095, 4096, 65535, 65536, n / 2, n - 2, n - 1} {
		if v >= 0 && v < n && !slices.Contains(vs, v) {
			vs = append(vs, v)
		}
	}
	return vs
}

// evenWeight passes every other half-edge of a testRows row.
func evenWeight(u int, h graph.Half) bool { return h.W%2 == 0 }

// testRows returns an adjacency row for each of testVertices(n): the other
// boundary vertices plus random ones, weights counting up from 0 so that
// evenWeight passes half of a row.
func testRows(n int, seed int64) map[int][]graph.Half {
	rng := rand.New(rand.NewSource(seed))
	rows := make(map[int][]graph.Half)
	for _, u := range testVertices(n) {
		tos := testVertices(n)
		for i := 0; i < 8; i++ {
			tos = append(tos, rng.Intn(n))
		}
		var row []graph.Half
		for _, v := range tos {
			if v != u && !slices.ContainsFunc(row, func(h graph.Half) bool { return h.To == v }) {
				row = append(row, graph.Half{To: v, W: int64(len(row))})
			}
		}
		rows[u] = row
	}
	return rows
}

// naive is the package doc's sketch with no tables and no factoring: every
// hash from hashing.Hash2/Hash4 and every power from field.Pow, one item at
// a time. It is the reference the kernel is compared against.
type naive struct {
	p     Params
	seed  uint64
	cells []cell
}

func newNaive(p Params, seed uint64) *naive {
	return &naive{p: p, seed: seed, cells: make([]cell, p.Cells())}
}

func (r *naive) z() uint64 {
	z := field.Reduce(hashing.Hash2(r.seed, 0x5eedba5e))
	if z < 2 {
		z += 2
	}
	return z
}

func (r *naive) level(id uint64) int {
	return min(hashing.TrailingZeros(hashing.Hash2(r.seed, 0xa11ce), id), r.p.Levels-1)
}

func (r *naive) cell(rep, level, bucket int) *cell {
	return &r.cells[(rep*r.p.Levels+level)*r.p.Buckets+bucket]
}

func (r *naive) bucket(rep, level int, id uint64) int {
	return hashing.RangeOf(hashing.Hash4(r.seed, uint64(rep), uint64(level), id), r.p.Buckets)
}

func (r *naive) add(id uint64, sign int) {
	idf, fp := field.Reduce(id), field.Pow(r.z(), id)
	for rep := 0; rep < r.p.Reps; rep++ {
		for level := 0; level <= r.level(id); level++ {
			c := r.cell(rep, level, r.bucket(rep, level, id))
			if sign > 0 {
				c.count, c.idSum, c.fp = c.count+1, field.Add(c.idSum, idf), field.Add(c.fp, fp)
			} else {
				c.count, c.idSum, c.fp = c.count-1, field.Sub(c.idSum, idf), field.Sub(c.fp, fp)
			}
		}
	}
}

// addVertex adds sign·a_u, restricted to the half-edges filter passes.
func (r *naive) addVertex(u int, adj []graph.Half, filter func(int, graph.Half) bool, sign int) {
	for _, h := range adj {
		if filter != nil && !filter(u, h) {
			continue
		}
		if u > h.To {
			r.add(graph.EdgeID(u, h.To, r.p.N), -sign)
		} else {
			r.add(graph.EdgeID(u, h.To, r.p.N), sign)
		}
	}
}

// encode writes the wire form the package documents on EncodeTo.
func (r *naive) encode() []byte {
	var buf []byte
	for rl := 0; rl < r.p.Reps*r.p.Levels; rl++ {
		row := r.cells[rl*r.p.Buckets : (rl+1)*r.p.Buckets]
		var bitmap uint64
		for b, c := range row {
			if c != (cell{}) {
				bitmap |= 1 << uint(b)
			}
		}
		buf = binary.AppendUvarint(buf, bitmap)
		for _, c := range row {
			if c != (cell{}) {
				buf = binary.AppendVarint(buf, c.count)
				buf = binary.LittleEndian.AppendUint64(buf, c.idSum)
				buf = binary.LittleEndian.AppendUint64(buf, c.fp)
			}
		}
	}
	return buf
}

// recover returns the slot the tester at (rep, level, bucket) holds alone,
// if it passes the one-sparse test and the slot belongs there.
func (r *naive) recover(rep, level, bucket int) (Slot, bool) {
	c := r.cell(rep, level, bucket)
	var sl Slot
	switch c.count {
	case 1:
		sl = Slot{ID: c.idSum, Sign: +1}
	case -1:
		sl = Slot{ID: field.Neg(c.idSum), Sign: -1}
	default:
		return Slot{}, false
	}
	want := field.Pow(r.z(), sl.ID)
	if sl.Sign < 0 {
		want = field.Neg(want)
	}
	ok := sl.ID < uint64(r.p.N)*uint64(r.p.N) && c.fp == want &&
		r.level(sl.ID) >= level && r.bucket(rep, level, sl.ID) == bucket
	return sl, ok
}

// sampleAll returns what an all-slots SampleSlots documents: every distinct recoverable
// slot, the max-query-hash slot of the sparsest productive level first, the
// status, and whether some repetition's level-0 row decoded completely.
func (r *naive) sampleAll() (slots []Slot, st Status, full bool) {
	if !slices.ContainsFunc(r.cells, func(c cell) bool { return c != (cell{}) }) {
		return nil, Empty, true
	}
	qsalt := hashing.Hash2(r.seed, 0x9a3f1e)
	for level := r.p.Levels - 1; level >= 0; level-- {
		head := len(slots) == 0
		for rep := 0; rep < r.p.Reps; rep++ {
			nonzero, recovered := 0, 0
			for b := 0; b < r.p.Buckets; b++ {
				if *r.cell(rep, level, b) == (cell{}) {
					continue
				}
				nonzero++
				sl, ok := r.recover(rep, level, b)
				if !ok {
					continue
				}
				recovered++
				if slices.Contains(slots, sl) {
					continue
				}
				slots = append(slots, sl)
				if head && hashing.Hash2(qsalt, sl.ID) > hashing.Hash2(qsalt, slots[0].ID) {
					last := len(slots) - 1
					slots[0], slots[last] = slots[last], slots[0]
				}
			}
			full = full || level == 0 && nonzero > 0 && recovered == nonzero
		}
	}
	if len(slots) == 0 {
		return nil, Failed, false
	}
	return slots, Sampled, full
}

// checkAgainstNaive compares a sketch with the reference cell for cell (the
// encodings) and answer for answer (Sample and an all-slots SampleSlots).
func checkAgainstNaive(t *testing.T, what string, s *Sketch, r *naive) {
	t.Helper()
	if !bytes.Equal(s.EncodeTo(nil), r.encode()) {
		t.Fatalf("%s: cells differ from the reference sketch", what)
	}
	want, wantSt, wantFull := r.sampleAll()
	id, sign, st := s.Sample()
	if st != wantSt || st == Sampled && (Slot{ID: id, Sign: sign}) != want[0] {
		t.Fatalf("%s: Sample = (%d, %d, %v), reference %v %v", what, id, sign, st, want, wantSt)
	}
	got, gotSt, gotFull := s.SampleSlots(nil, nil, true)
	if gotSt != wantSt || gotFull != wantFull || len(got) != len(want) || len(got) > 0 && got[0] != want[0] {
		t.Fatalf("%s: all-slots scan = %v %v full=%v, reference %v %v full=%v", what, got, gotSt, gotFull, want, wantSt, wantFull)
	}
	byID := func(a, b Slot) int { return cmp.Compare(a.ID, b.ID) }
	slices.SortFunc(got, byID)
	slices.SortFunc(want, byID)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: all-slots scan %v, reference %v", what, got, want)
	}
}

// TestKernelMatchesReference drives the one item-add kernel — AddVertex
// with and without a filter, AddItem of either sign, SubVertex — beside the
// table-free reference, at vertex counts on both sides of every window
// boundary and at shapes whose level cap binds, and requires identical
// cells and identical samples after every step.
func TestKernelMatchesReference(t *testing.T) {
	for _, n := range []int{2, 3, 15, 16, 17, 255, 256, 257, 4000, 65536, 1 << 20} {
		vs, rows := testVertices(n), testRows(n, int64(n))
		first, rest := vs[:(len(vs)+1)/2], vs[(len(vs)+1)/2:]
		for _, p := range []Params{DefaultParams(n), {N: n, Levels: 2, Buckets: 6, Reps: 2}, {N: n, Levels: 1, Buckets: 3, Reps: 3}} {
			rng := rand.New(rand.NewSource(int64(n)*31 + int64(p.Levels)))
			seed := rng.Uint64()
			s, r := New(p, seed), newNaive(p, seed)
			step := func(what string) {
				t.Helper()
				checkAgainstNaive(t, fmt.Sprintf("n %d levels %d after %s", n, p.Levels, what), s, r)
			}
			step("nothing")
			for _, u := range first {
				s.AddVertex(u, rows[u], nil)
				r.addVertex(u, rows[u], nil, +1)
			}
			step("AddVertex")
			for _, u := range rest {
				s.AddVertex(u, rows[u], evenWeight)
				r.addVertex(u, rows[u], evenWeight, +1)
			}
			step("filtered AddVertex")
			universe := uint64(n) * uint64(n)
			items := []uint64{0, 1, uint64(n) - 1, uint64(n), universe - 1, rng.Uint64() % universe, rng.Uint64() % universe}
			for i, id := range items {
				s.AddItem(id, 1-2*(i%2))
				r.add(id, 1-2*(i%2))
			}
			step("AddItem")
			for _, u := range first {
				s.SubVertex(u, rows[u])
				r.addVertex(u, rows[u], nil, -1)
			}
			step("SubVertex")
			// Taking everything else out, by every route, leaves exactly the
			// zero sketch: no residue in any cell.
			for i, id := range items {
				s.AddItem(id, 2*(i%2)-1)
				r.add(id, 2*(i%2)-1)
			}
			for _, u := range rest {
				s.SubVertex(u, rows[u])
				r.addVertex(u, rows[u], nil, -1)
				s.AddVertex(u, rows[u], func(u int, h graph.Half) bool { return !evenWeight(u, h) })
				r.addVertex(u, rows[u], evenWeight, -1)
				r.addVertex(u, rows[u], nil, +1)
			}
			step("cancelling everything")
			if !isZero(s) || len(s.EncodeTo(nil)) != p.Reps*p.Levels {
				t.Fatalf("n %d levels %d: the cancelled sketch is not the zero sketch", n, p.Levels)
			}
		}
	}
}

// TestAddVertexAllocationFree pins the kernel's tables to the sketch: adding
// a row, filtered or not, and taking it out again allocate nothing.
func TestAddVertexAllocationFree(t *testing.T) {
	n := 4000
	s := New(DefaultParams(n), 5)
	rows := testRows(n, 1)
	if a := testing.AllocsPerRun(100, func() {
		for u, row := range rows {
			s.AddVertex(u, row, nil)
			s.AddVertex(u, row, evenWeight)
			s.SubVertex(u, row)
		}
	}); a != 0 {
		t.Fatalf("AddVertex/SubVertex allocate %.1f times per pass", a)
	}
}

// FuzzAddEncoded feeds the sketch layer's one decoder of peer bytes: it
// must never panic, must answer nil or an error, and what it accepted must
// re-encode to a form that decodes to the same sketch.
func FuzzAddEncoded(f *testing.F) {
	p := Params{N: 300, Levels: 6, Buckets: 6, Reps: 2}
	const seed = 21
	s := New(p, seed)
	f.Add(s.EncodeTo(nil))
	for i := uint64(0); i < 40; i++ {
		s.AddItem(hashing.Hash2(5, i)%(300*300), 1-2*int(i%2))
	}
	enc := s.EncodeTo(nil)
	f.Add(enc)
	f.Add(enc[:len(enc)-3])
	f.Add(enc[:1])
	f.Add(append(slices.Clone(enc), 0))
	f.Add(append([]byte{0xff, 0x01}, enc[1:]...)) // bitmap with buckets 6 and 7
	nonCanon := binary.AppendVarint([]byte{0x01}, 1)
	nonCanon = binary.LittleEndian.AppendUint64(nonCanon, field.P) // = 0, not canonical
	nonCanon = binary.LittleEndian.AppendUint64(nonCanon, ^uint64(0))
	f.Add(append(nonCanon, make([]byte, p.Reps*p.Levels-1)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(p, seed, data)
		if err != nil {
			return
		}
		for _, c := range d.cells {
			if c.idSum >= field.P || c.fp >= field.P {
				t.Fatalf("accepted a non-canonical field word: %+v", c)
			}
		}
		again := d.EncodeTo(nil)
		d2, err := Decode(p, seed, again)
		if err != nil || !bytes.Equal(d2.EncodeTo(nil), again) {
			t.Fatalf("re-encoding of accepted bytes is not a fixed point (err %v)", err)
		}
		// Accepted bytes add by linearity: twice into one accumulator is
		// the decoded sketch added to itself.
		sum, _ := Decode(p, seed, data)
		if err := sum.AddEncoded(data); err != nil {
			t.Fatalf("bytes accepted once were refused the second time: %v", err)
		}
		if err := d.Add(d2); err != nil || !bytes.Equal(sum.EncodeTo(nil), d.EncodeTo(nil)) {
			t.Fatalf("AddEncoded twice differs from Decode + Add (err %v)", err)
		}
		d.Sample()
		d.SampleSlots(nil, nil, true)
	})
}

// refSample and refSampleAll are the two samplers SampleSlots replaced,
// kept as references: a zero test over every tester first, then a scan of
// the levels from the sparsest down — refSample stops at the first
// productive level with its max-hash slot, refSampleAll keeps every
// distinct slot with that one first and reports the full decode.
func refSample(s *Sketch) (id uint64, sign int, st Status) {
	slots, st, _ := refScan(s, false)
	if st != Sampled {
		return 0, 0, st
	}
	return slots[0].ID, slots[0].Sign, st
}

func refSampleAll(s *Sketch) (slots []Slot, st Status, full bool) { return refScan(s, true) }

func refScan(s *Sketch, all bool) (slots []Slot, st Status, full bool) {
	if isZero(s) {
		return nil, Empty, true
	}
	nb := s.p.Buckets
	for level := s.p.Levels - 1; level >= 0 && (all || len(slots) == 0); level-- {
		var bestH uint64
		head := len(slots) == 0
		for rep := 0; rep < s.p.Reps; rep++ {
			rl := rep*s.p.Levels + level
			nonzero, verified := 0, 0
			for t := s.touched[rl]; t != 0; t &= t - 1 {
				b := bits.TrailingZeros64(t)
				c := &s.cells[rl*nb+b]
				if *c == (cell{}) {
					continue
				}
				nonzero++
				cid, csign, ok := s.verify(c)
				if !ok || s.levelOf(cid) < level || s.bucketOf(rep, level, cid) != b {
					continue
				}
				verified++
				if slices.ContainsFunc(slots, func(sl Slot) bool { return sl.ID == cid }) {
					continue
				}
				if h := hashing.Hash2(s.qsalt, cid); head && (len(slots) == 0 || h > bestH) {
					bestH = h
					slots = append(slots, Slot{ID: cid, Sign: csign})
					slots[0], slots[len(slots)-1] = slots[len(slots)-1], slots[0]
				} else if all {
					slots = append(slots, Slot{ID: cid, Sign: csign})
				}
			}
			full = full || level == 0 && nonzero > 0 && verified == nonzero
		}
	}
	if len(slots) == 0 {
		return nil, Failed, false
	}
	if !all {
		return slots[:1], Sampled, false
	}
	return slots, Sampled, full
}

// forgeCells writes a few testers no sum of items gives: one-sparse-looking
// cells whose slot belongs to another bucket or level, or whose fingerprint
// is the slot's but whose count or idSum is off, or a zero count and idSum
// under a nonzero fingerprint. They are what a fingerprint collision leaves,
// and every sampler must read them alike.
func forgeCells(rng *rand.Rand, s *Sketch) {
	universe := uint64(s.p.N) * uint64(s.p.N)
	for j := 1 + rng.Intn(4); j > 0; j-- {
		rl, b := rng.Intn(s.p.Reps*s.p.Levels), rng.Intn(s.p.Buckets)
		id := rng.Uint64() % universe
		c := &s.cells[rl*s.p.Buckets+b]
		switch rng.Intn(4) {
		case 0: // a whole slot, wherever it landed
			c.count, c.idSum, c.fp = 1, field.Reduce(id), s.powID(id)
		case 1: // the negative of one
			c.count, c.idSum, c.fp = -1, field.Neg(field.Reduce(id)), field.Neg(s.powID(id))
		case 2: // a slot's fingerprint under a wrong count
			c.count, c.idSum, c.fp = 2, field.Reduce(id), s.powID(id)
		default: // zero count and idSum, nonzero fingerprint
			c.count, c.idSum, c.fp = 0, 0, 1+rng.Uint64()%(field.P-1)
		}
		s.touched[rl] |= 1 << uint(b)
	}
}

// TestSampleItemsMatchesAddThenSample pins SampleSlots with items to its
// definition, in both modes: on random item lists — duplicates, cancelling
// pairs, items cancelling the base sketch's — over zero, item-built and
// forged base sketches, in the default shape and in shapes small enough to
// fail, a first-slot scan returns what AddItem of every item then Sample
// returns, an all-slots scan what AddItem then an all-slots scan without
// items returns (slots, status and full), both what the replaced
// zero-test-first samplers return; s stays byte-identical, and a warm scan
// allocates nothing.
func TestSampleItemsMatchesAddThenSample(t *testing.T) {
	shapes := []Params{
		DefaultParams(64),
		DefaultParams(1000),
		{N: 64, Levels: 3, Buckets: 2, Reps: 1},
		{N: 64, Levels: 5, Buckets: 3, Reps: 2},
	}
	seen := make(map[string]int)
	var scratch Items
	var buf []Slot
	for si, p := range shapes {
		rng := rand.New(rand.NewSource(int64(si) + 7))
		universe := uint64(p.N) * uint64(p.N)
		s := New(p, 1)
		for trial := 0; trial < 400; trial++ {
			s.Reset()
			s.reseed(rng.Uint64())
			var base []Item
			if trial%4 == 1 || trial%4 == 3 {
				for j := rng.Intn(40); j > 0; j-- {
					it := MakeItem(rng.Uint64()%universe, 1-2*rng.Intn(2))
					base = append(base, it)
					s.AddItem(uint64(it)>>1, 1-2*int(it&1))
				}
			}
			if trial%4 >= 2 {
				forgeCells(rng, s)
			}
			items := scratch.List[:0]
			size := rng.Intn(60)
			if trial%8 == 0 {
				size = rng.Intn(4)
			}
			for len(items) < size {
				id := rng.Uint64() % universe
				switch r := rng.Intn(10); {
				case r == 0 && len(items) > 0: // a duplicate
					items = append(items, items[rng.Intn(len(items))])
				case r == 1 && len(items) > 0: // cancel an earlier item
					items = append(items, items[rng.Intn(len(items))]^1)
				case r == 2 && len(base) > 0: // cancel a base item
					items = append(items, base[rng.Intn(len(base))]^1)
				case r == 3: // a cancelling pair
					items = append(items, MakeItem(id, 1), MakeItem(id, -1))
				default:
					items = append(items, MakeItem(id, 1-2*rng.Intn(2)))
				}
			}
			rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
			scratch.List = items

			sum := New(p, s.Seed())
			if err := sum.Add(s); err != nil {
				t.Fatal(err)
			}
			for _, it := range items {
				sum.AddItem(uint64(it)>>1, 1-2*int(it&1))
			}
			wid, wsign, wst := sum.Sample()
			if rid, rsign, rst := refSample(sum); rid != wid || rsign != wsign || rst != wst {
				t.Fatalf("shape %d trial %d: Sample %d %d %v, the replaced sampler %d %d %v", si, trial, wid, wsign, wst, rid, rsign, rst)
			}
			wall, wallSt, wallFull := sum.SampleSlots(nil, nil, true)
			if rall, rst, rfull := refSampleAll(sum); !slices.Equal(rall, wall) || rst != wallSt || rfull != wallFull {
				t.Fatalf("shape %d trial %d: all-slots scan %v %v full=%v, the replaced sampler %v %v full=%v", si, trial, wall, wallSt, wallFull, rall, rst, rfull)
			}
			before := s.EncodeTo(nil)
			var st Status
			var full bool
			buf, st, full = s.SampleSlots(buf[:0], &scratch, false)
			if st != wst || (st == Sampled) != (len(buf) == 1) || st == Sampled && (buf[0] != Slot{ID: wid, Sign: wsign}) || full != (st == Empty) {
				t.Fatalf("shape %d trial %d (%d items): first-slot scan %v %v full=%v, AddItem then Sample %d %d %v", si, trial, len(items), buf, st, full, wid, wsign, wst)
			}
			buf, st, full = s.SampleSlots(buf[:0], &scratch, true)
			if !slices.Equal(buf, wall) || st != wallSt || full != wallFull {
				t.Fatalf("shape %d trial %d (%d items): all-slots scan %v %v full=%v, AddItem then scan %v %v full=%v", si, trial, len(items), buf, st, full, wall, wallSt, wallFull)
			}
			if !bytes.Equal(s.EncodeTo(nil), before) {
				t.Fatalf("shape %d trial %d: the scan changed the sketch", si, trial)
			}
			seen[fmt.Sprint(st, " full=", full)]++
		}
		scratch.List = scratch.List[:0]
		for j := 0; j < 64; j++ {
			scratch.List = append(scratch.List, MakeItem(rng.Uint64()%universe, 1-2*rng.Intn(2)))
		}
		for _, all := range []bool{false, true} {
			buf, _, _ = s.SampleSlots(buf[:0], &scratch, all)
			if a := testing.AllocsPerRun(50, func() { buf, _, _ = s.SampleSlots(buf[:0], &scratch, all) }); a != 0 {
				t.Fatalf("shape %d all=%v: the scan allocates %.1f times per call once warm", si, all, a)
			}
		}
	}
	t.Logf("outcomes: %v", seen)
	for _, o := range []string{"empty full=true", "sampled full=true", "sampled full=false", "failed full=false"} {
		if seen[o] == 0 {
			t.Errorf("no trial came out %s: the inputs do not cover it", o)
		}
	}
}

// BenchmarkSampleItems samples what BenchmarkSample's sketch holds, read as
// items beside an empty sketch instead of added to it.
func BenchmarkSampleItems(b *testing.B) {
	p := DefaultParams(4096)
	s := New(p, 9)
	var items Items
	for i := uint64(0); i < 100; i++ {
		items.List = append(items.List, MakeItem(i*37+5, 1))
	}
	var one [1]Slot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleSlots(one[:0], &items, false)
	}
}
