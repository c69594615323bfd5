package sketch

import (
	"math/rand"
	"slices"
	"testing"

	"kmgraph/internal/graph"
	"kmgraph/internal/hashing"
)

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
	if !s.IsZero() {
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
	if !s.IsZero() {
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
		x, y, insideSmaller, st := s.SampleEdge()
		if st == Failed {
			continue
		}
		if st != Sampled {
			t.Fatalf("vertex %d: status %v", u, st)
		}
		if !g.HasEdge(x, y) {
			t.Fatalf("vertex %d: sampled non-edge (%d,%d)", u, x, y)
		}
		inside := y
		if insideSmaller {
			inside = x
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
		x, y, insideSmaller, st := s.SampleEdge()
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
		inside := y
		if insideSmaller {
			inside = x
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
	if !s.IsZero() {
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
		x, y, _, st := s.SampleEdge()
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
		buf, _, _ = s.SampleAll(buf[:0])
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

// TestPoolReuseBitExact pins pooled-sketch reuse: a recycled sketch
// re-seeded for a new phase must encode exactly like a fresh one.
func TestPoolReuseBitExact(t *testing.T) {
	p := DefaultParams(128)
	pl := NewPool(p)
	build := func(s *Sketch) {
		for i := 0; i < 25; i++ {
			s.AddItem(uint64(i*i+3), +1)
		}
	}
	for _, seed := range []uint64{1, 99, 1 << 40} {
		got := pl.Get(seed)
		build(got)
		want := New(p, seed)
		build(want)
		if string(got.EncodeTo(nil)) != string(want.EncodeTo(nil)) {
			t.Fatalf("seed %d: pooled sketch drifted from fresh sketch", seed)
		}
		pl.Put(got)
	}
	pl.Release()
}

// TestAddVertexMatchesAddItem pins the two-ladder fingerprint path:
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
		t.Fatal("AddVertex two-ladder path drifted from AddItem")
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
// that are zero again — SampleAll's first slot and status are Sample's,
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
			buf, ast, full = s.SampleAll(buf[:0])
			seen[ast]++
			if ast != st {
				t.Fatalf("shape %d trial %d: SampleAll status %v, Sample's %v", si, trial, ast, st)
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
			if after, _, _ := s.SampleAll(pre); after[0] != pre[0] || !slices.Equal(after[1:], buf) {
				t.Fatalf("shape %d trial %d: after a prefix SampleAll appended %v, alone %v", si, trial, after[1:], buf)
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
	buf, st, _ := s.SampleAll(nil)
	if st != Sampled || len(buf) < 2 {
		t.Fatalf("status %v, %d slots: want several", st, len(buf))
	}
	if a := testing.AllocsPerRun(100, func() { buf, _, _ = s.SampleAll(buf[:0]) }); a != 0 {
		t.Fatalf("SampleAll with a reused buffer allocates %.1f times per call", a)
	}
}
