package core

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/sketch"
	"kmgraph/internal/wire"
)

// partMsg is one (label, part) message of a selection step: a part sketch
// and the items it holds, or a light part's rows.
type partMsg struct {
	src   int
	label uint64
	items map[uint64]int // edge slot -> ±1
	rows  [][]uint64     // when not nil: the part's rows, each its vertex then its neighbours
}

// sample is what SumAndSample stores for a label: its slots (the one
// sample, or on an MST job's Merger every slot the sum verified), the
// status and the full-decode verdict.
type sample struct {
	slots  []sketch.Slot
	status sketch.Status
	full   bool
}

// encodeParts builds the messages as GatherParts would.
func encodeParts(p sketch.Params, seed uint64, parts []partMsg) []kmachine.Message {
	recv := make([]kmachine.Message, len(parts))
	for i, pm := range parts {
		if pm.rows != nil {
			recv[i] = kmachine.Message{Src: pm.src, Data: appendRows(nil, pm.label, pm.rows...)}
			continue
		}
		sk := sketch.New(p, seed)
		for id, sign := range pm.items {
			sk.AddItem(id, sign)
		}
		recv[i] = kmachine.Message{Src: pm.src, Data: sk.EncodeTo(wire.AppendUvarint(nil, pm.label<<1))}
	}
	return recv
}

// referenceSamples is the per-label dense path SumAndSample replaced:
// Decode every part, or AddVertex its rows, Add it into the label's own
// sum, sample each sum.
func referenceSamples(t *testing.T, p sketch.Params, seed uint64, recv []kmachine.Message) (want, wantAll map[uint64]sample, holders map[uint64]map[int]bool) {
	t.Helper()
	sums := make(map[uint64]*sketch.Sketch)
	holders = make(map[uint64]map[int]bool)
	for _, msg := range recv {
		r := wire.NewReader(msg.Data)
		hdr := r.Uvarint()
		label := hdr >> 1
		part, err := sketch.Decode(p, seed, msg.Data[len(msg.Data)-r.Len():])
		if hdr&1 == 1 {
			part, err = sketch.New(p, seed), nil
			for c := r.Uvarint(); c > 0; c-- {
				v, row := int(r.Uvarint()), []graph.Half(nil)
				for d := r.Uvarint(); d > 0; d-- {
					row = append(row, graph.Half{To: int(r.Uvarint())})
				}
				part.AddVertex(v, row, nil)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if sums[label] == nil {
			sums[label] = sketch.New(p, seed)
			holders[label] = make(map[int]bool)
		}
		if err := sums[label].Add(part); err != nil {
			t.Fatal(err)
		}
		holders[label][msg.Src] = true
	}
	want, wantAll = make(map[uint64]sample), make(map[uint64]sample)
	for label, sum := range sums {
		s := sample{full: true}
		var id uint64
		var sign int
		if id, sign, s.status = sum.Sample(); s.status == sketch.Sampled {
			s.slots, s.full = []sketch.Slot{{ID: id, Sign: sign}}, false
		} else if s.status == sketch.Failed {
			s.full = false
		}
		want[label] = s
		var a sample
		a.slots, a.status, a.full = sum.SampleSlots(nil, nil, true)
		wantAll[label] = a
	}
	return want, wantAll, holders
}

// randomParts draws a message set over labels 100, 101, …: 1..k parts per
// label from distinct sources, ordered as Exchange returns them (by source,
// a label's parts interleaved with the others'). A label's parts are all
// sketches, all rows, or mixed (forms, when set, counts which). Sketch
// parts are random: some empty, some cancelling to the zero vector, some
// repeated with the opposite sign. Rows parts describe a component as a
// graph would: vertices homed at their source (home), edges inside the
// component in both endpoints' rows, and outgoing ones; in a mixed label a
// part may go as the sketch of its rows instead.
func randomParts(rng *rand.Rand, n, k, labels int, home func(int) int, forms map[string]int) []partMsg {
	slot := func() uint64 {
		x, y := rng.Intn(n), rng.Intn(n-1)
		if y >= x {
			y++
		}
		return graph.EdgeID(x, y, n)
	}
	var parts []partMsg
	for l := 0; l < labels; l++ {
		label := uint64(100 + l)
		if form := rng.Intn(3); form > 0 {
			parts = append(parts, componentParts(rng, n, label, home, form == 2)...)
			if forms != nil {
				forms[[]string{"", "rows", "mixed"}[form]]++
			}
			continue
		}
		if forms != nil {
			forms["sketches"]++
		}
		srcs := rng.Perm(k)[:1+rng.Intn(k)]
		kind := rng.Intn(5)
		for i, src := range srcs {
			items := make(map[uint64]int)
			switch {
			case kind == 0 && i%2 == 1:
				// Opposite of the previous part: the pair sums to zero.
				for id, sign := range parts[len(parts)-1].items {
					items[id] = -sign
				}
			case kind == 1 && i == len(srcs)-1 && len(srcs) > 1:
				// The first part again, negated (other parts lie between).
				for id, sign := range parts[len(parts)-len(srcs)+1].items {
					items[id] = -sign
				}
			case kind == 2 && i > 0:
				// Empty part.
			default:
				for j := rng.Intn(12); j > 0; j-- {
					items[slot()] = 1 - 2*rng.Intn(2)
				}
			}
			parts = append(parts, partMsg{src: src, label: label, items: items})
		}
	}
	rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	bySrc := make([]partMsg, 0, len(parts))
	for src := 0; src < k; src++ {
		for _, pm := range parts {
			if pm.src == src {
				bySrc = append(bySrc, pm)
			}
		}
	}
	return bySrc
}

// componentParts returns one component's parts, one per source holding a
// vertex of it, as rows (or, when mixed, some as the sketch of their rows):
// a random vertex set with symmetric edges inside it and a few outgoing
// ones, each vertex's row in its home's part.
func componentParts(rng *rand.Rand, n int, label uint64, home func(int) int, mixed bool) []partMsg {
	vs := rng.Perm(n)[:1+rng.Intn(12)]
	slices.Sort(vs)
	adj := make(map[int][]int)
	link := func(a, b int) {
		if a != b && !slices.Contains(adj[a], b) {
			adj[a] = append(adj[a], b)
			if slices.Contains(vs, b) {
				adj[b] = append(adj[b], a)
			}
		}
	}
	for e := rng.Intn(3 * len(vs)); e > 0; e-- {
		link(vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))])
	}
	for e := rng.Intn(5); e > 0; e-- {
		if o := rng.Intn(n); !slices.Contains(vs, o) {
			link(vs[rng.Intn(len(vs))], o)
		}
	}
	bySrc := make(map[int]int) // source -> its part's index in parts
	var parts []partMsg
	for _, v := range vs {
		src := home(v)
		i, ok := bySrc[src]
		if !ok {
			i = len(parts)
			bySrc[src] = i
			parts = append(parts, partMsg{src: src, label: label, rows: [][]uint64{}})
		}
		if pm := &parts[i]; len(adj[v]) > 0 {
			row := []uint64{uint64(v)}
			for _, to := range adj[v] {
				row = append(row, uint64(to))
			}
			pm.rows = append(pm.rows, row)
		}
	}
	for i := range parts {
		if pm := &parts[i]; mixed && rng.Intn(2) == 0 {
			pm.items = make(map[uint64]int)
			for _, row := range pm.rows {
				for _, to := range row[1:] {
					id, sign := graph.EdgeID(int(row[0]), int(to), n), 1
					if row[0] > to {
						sign = -1
					}
					if pm.items[id] += sign; pm.items[id] == 0 {
						delete(pm.items, id)
					}
				}
			}
			pm.rows = nil
		}
	}
	return parts
}

// innerParts returns the rows parts of a component whose every edge lies
// inside it: a path through a few random vertices, each vertex's row in its
// home's part.
func innerParts(rng *rand.Rand, n int, label uint64, home func(int) int) []partMsg {
	vs := rng.Perm(n)[:2+rng.Intn(10)]
	bySrc := make(map[int]int) // source -> its part's index in parts
	var parts []partMsg
	for i, v := range vs {
		row := []uint64{uint64(v)}
		if i > 0 {
			row = append(row, uint64(vs[i-1]))
		}
		if i+1 < len(vs) {
			row = append(row, uint64(vs[i+1]))
		}
		j, ok := bySrc[home(v)]
		if !ok {
			j = len(parts)
			bySrc[home(v)] = j
			parts = append(parts, partMsg{src: home(v), label: label})
		}
		parts[j].rows = append(parts[j].rows, row)
	}
	return parts
}

// soloMerger returns machine 0's Merger of a k-machine cluster whose run is
// already over: SumAndSample needs a Merger (for K and the pool) but no
// communication, so the test drives it from its own goroutine.
func soloMerger(t *testing.T, k int, p sketch.Params) *Merger {
	t.Helper()
	g := graph.Path(p.N)
	cfg := Config{K: k, Seed: 1, Sketch: p}.WithDefaults(g.N())
	part, err := kmachine.LoadShards(g.Source(), k, 1)
	if err != nil {
		t.Fatal(err)
	}
	var m *Merger
	_, err = runOneShot(t.Context(), cfg, func(mctx *kmachine.Ctx) error {
		if mctx.ID() == 0 {
			m = NewMerger(mctx, part.Shard(0), cfg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.ReleasePools)
	return m
}

// checkSorted fails unless m.States is strictly ascending by label: one
// state per label, in the order every step walks and searches them. It
// reports with Errorf, so a machine's goroutine may call it.
func checkSorted(t *testing.T, m *Merger, step string) {
	t.Helper()
	for i := 1; i < len(m.States); i++ {
		if m.States[i-1].Label >= m.States[i].Label {
			t.Errorf("machine %d after %s: state %d has label %d, state %d label %d", m.Ctx.ID(), step, i-1, m.States[i-1].Label, i, m.States[i].Label)
			return
		}
	}
}

// checkParts checks the machine's ordinal space after step: one label per
// owned vertex, and Parts strictly ascending by label, each part's member
// ordinals ascending and carrying its label, every owned vertex in exactly
// one part. It returns the size of the largest part.
func checkParts(t *testing.T, m *Merger, step string) int {
	t.Helper()
	owned := m.View.Owned()
	if len(m.Labels) != len(owned) {
		t.Errorf("machine %d after %s: %d labels for %d owned vertices", m.Ctx.ID(), step, len(m.Labels), len(owned))
		return 0
	}
	parts := m.Parts()
	seen, largest := 0, 0
	for j, p := range parts {
		if j > 0 && parts[j-1].Label >= p.Label {
			t.Errorf("machine %d after %s: part %d has label %d, part %d label %d", m.Ctx.ID(), step, j-1, parts[j-1].Label, j, p.Label)
		}
		for x, i := range p.Members {
			if x > 0 && p.Members[x-1] >= i {
				t.Errorf("machine %d after %s: part %d lists ordinal %d after %d", m.Ctx.ID(), step, p.Label, i, p.Members[x-1])
			}
			if v := owned[i]; m.LabelOf(v) != p.Label {
				t.Errorf("machine %d after %s: vertex %d labeled %d sits in part %d", m.Ctx.ID(), step, v, m.LabelOf(v), p.Label)
			}
		}
		seen += len(p.Members)
		largest = max(largest, len(p.Members))
	}
	if seen != len(owned) {
		t.Errorf("machine %d after %s: parts hold %d members, %d vertices owned", m.Ctx.ID(), step, seen, len(owned))
	}
	return largest
}

// checkStates compares the stored sample (for an MST job's Merger, every
// stored slot) and holders of every label in want against the states, and
// that nothing else holds a fresh sample; it reads (clears) every state's
// sampled flag, as a step's state loop does.
func checkStates(t *testing.T, m *Merger, k int, want, wantAll map[uint64]sample, holders map[uint64]map[int]bool) {
	t.Helper()
	checkSorted(t, m, "SumAndSample")
	for _, st := range m.States {
		label := st.Label
		ws, fresh := want[label]
		if m.allSlots {
			ws = wantAll[label]
		}
		if st.sampled != fresh {
			t.Fatalf("label %d: stored sample = %v, want %v", label, st.sampled, fresh)
		}
		st.sampled = false
		if !fresh {
			continue
		}
		if got := m.slotsOf(st); st.status != ws.status || !slices.Equal(got, ws.slots) || st.full != ws.full {
			t.Fatalf("label %d: %v slots %v full %v, reference %v %v full %v", label, st.status, got, st.full, ws.status, ws.slots, ws.full)
		}
		for src := 0; src < k; src++ {
			if got := st.Holders[src/8]&(1<<uint(src%8)) != 0; got != holders[label][src] {
				t.Fatalf("label %d: holder bit of machine %d = %v, want %v", label, src, got, holders[label][src])
			}
		}
	}
	for label := range want {
		if m.stateOf(label) == nil {
			t.Fatalf("label %d has no state", label)
		}
	}
}

// TestSumAndSampleMatchesPerLabelSums is the differential test of the
// proxy side: one scratch sketch folded one label's run at a time must
// store, for every label, the sample its own dense Decode+Add sum gives —
// and, on an MST job's Merger (every other shape pass), all of that sum's
// slots — in states kept ascending by label, whether the label's parts are
// all sketches, all rows, or mixed.
func TestSumAndSampleMatchesPerLabelSums(t *testing.T) {
	const k = 8
	small := sketch.Params{N: 64, Levels: 3, Buckets: 2, Reps: 1} // small enough that samples fail
	shapes := []sketch.Params{sketch.DefaultParams(64), small, sketch.DefaultParams(64), small}
	seen := make(map[sketch.Status]int)
	forms := make(map[string]int)
	for i, p := range shapes {
		m := soloMerger(t, k, p)
		m.allSlots = i >= 2
		rng := rand.New(rand.NewSource(int64(p.Levels)))
		for round := 0; round < 60; round++ {
			seed := rng.Uint64()
			recv := encodeParts(p, seed, randomParts(rng, p.N, k, 1+rng.Intn(30), m.View.Home, forms))
			want, wantAll, holders := referenceSamples(t, p, seed, recv)
			m.SumAndSample(recv, seed, true)
			if len(m.States) != len(want) {
				t.Fatalf("%d states for %d labels", len(m.States), len(want))
			}
			checkStates(t, m, k, want, wantAll, holders)
			for _, s := range want {
				seen[s.status]++
			}

			// An elimination iteration: fresh sketches under a new seed for
			// some of the labels, states kept (create=false).
			var again []partMsg
			for _, pm := range randomParts(rng, p.N, k, len(want), m.View.Home, nil) {
				if pm.label%3 != 0 {
					again = append(again, pm)
				}
			}
			seed2 := rng.Uint64()
			recv = encodeParts(p, seed2, again)
			want2, wantAll2, holders2 := referenceSamples(t, p, seed2, recv)
			for label, hs := range holders2 {
				for src := range holders[label] {
					hs[src] = true // holders accumulate over a phase
				}
			}
			m.SumAndSample(recv, seed2, false)
			if len(m.States) != len(want) {
				t.Fatalf("create=false changed the state set: %d, was %d", len(m.States), len(want))
			}
			checkStates(t, m, k, want2, wantAll2, holders2)
		}
		// A component whose rows hold only its inner edges sums to zero:
		// Empty and full on both paths, and the pair drop of an MST job's
		// Merger leaves none of its items.
		recv := encodeParts(p, 9, innerParts(rng, p.N, 77, m.View.Home))
		m.SumAndSample(recv, 9, true)
		if st := m.stateOf(77); st == nil || st.status != sketch.Empty || !st.full {
			t.Fatalf("all-slots=%v: an all-internal component came back %+v, want Empty and full", m.allSlots, st)
		}
		var sc runScratch
		for _, msg := range recv {
			if err := m.addPart(nil, &sc.items, msg.Data, msg.Src); err != nil {
				t.Fatal(err)
			}
		}
		if sc.dropPairs(uint64(p.N)); len(sc.items.List) != 0 {
			t.Fatalf("the pair drop left %d items of an all-internal component", len(sc.items.List))
		}
		if peak := m.Pool().Peak(); peak != 1 {
			t.Fatalf("SumAndSample held %d dense sketches at once, want 1", peak)
		}

		// A part for a label without a state, or for a label that is no
		// vertex ID, is a protocol violation.
		for _, stray := range []partMsg{{src: 3, label: 9999}, {src: 3, label: 2 * graph.MaxN}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("SumAndSample accepted a part for label %d", stray.label)
					}
				}()
				m.SumAndSample(encodeParts(p, 7, []partMsg{stray}), 7, stray.label == 2*graph.MaxN)
			}()
		}
	}
	t.Logf("reference statuses: %v; label forms: %v", seen, forms)
	for _, s := range []sketch.Status{sketch.Empty, sketch.Sampled, sketch.Failed} {
		if seen[s] == 0 {
			t.Errorf("no label's reference sample was %v: the inputs do not cover it", s)
		}
	}
	for _, f := range []string{"sketches", "rows", "mixed"} {
		if forms[f] == 0 {
			t.Errorf("no label's parts were %s: the inputs do not cover it", f)
		}
	}
}

// TestStatesStayLabelSortedAcrossK runs, on every machine of a k-machine
// cluster, each step that builds or moves proxy states — SumAndSample with
// create, HandoffStates, selectEdgeCheck, and an MST phase whose
// elimination iterations hand states off and run SumAndSample without
// create — and checks after each that m.States is strictly ascending by
// label, that the machine's labels and parts are one ordinal space
// (checkParts; the edge-check and MST phases are finished by Collapse and
// PhaseSync, so parts merge), and that a handoff moves every state, its
// holders intact, to its next slot's proxy.
func TestStatesStayLabelSortedAcrossK(t *testing.T) {
	const n = 200
	g := graph.WithDistinctWeights(graph.GNM(n, 400, 3), 3)
	for _, k := range []int{1, 4, 8} {
		cfg := Config{K: k, Seed: 5}.WithDefaults(n)
		part, err := kmachine.LoadShards(g.Source(), k, 5)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		before, after := make(map[uint64][]byte), make(map[uint64][]byte)
		elimIters, largest := 0, 0
		_, err = runOneShot(t.Context(), cfg, func(mctx *kmachine.Ctx) error {
			m := NewMerger(mctx, part.Shard(mctx.ID()), cfg)
			defer m.ReleasePools()
			if err := m.Setup(); err != nil {
				return err
			}
			m.GatherFreshParts(m.Sh.SketchSeed(m.Phase, 0))
			checkSorted(t, m, "SumAndSample")
			checkParts(t, m, "SumAndSample")
			mu.Lock()
			for _, st := range m.States {
				before[st.Label] = slices.Clone(st.Holders)
			}
			mu.Unlock()
			m.HandoffStates()
			checkSorted(t, m, "HandoffStates")
			checkParts(t, m, "HandoffStates")
			mu.Lock()
			for _, st := range m.States {
				after[st.Label] = slices.Clone(st.Holders)
				if p := m.ProxyOf(m.StateSlot, st.Label); p != mctx.ID() {
					t.Errorf("k=%d: label %d handed to machine %d, its proxy is %d", k, st.Label, mctx.ID(), p)
				}
			}
			mu.Unlock()

			m.selectEdgeCheck()
			checkSorted(t, m, "selectEdgeCheck")
			checkParts(t, m, "selectEdgeCheck")
			m.StateSlot = 0 // the edge check's states sit at slot 0
			m.Collapse()
			m.PhaseSync()
			big := checkParts(t, m, "an edge-check relabel")

			w := NewMWOE(m)
			m.Phase, m.StateSlot = 1, 0
			w.Select()
			checkSorted(t, m, "an MST phase")
			checkParts(t, m, "an MST phase")
			m.Collapse()
			m.PhaseSync()
			big = max(big, checkParts(t, m, "an MST relabel"))
			mu.Lock()
			largest = max(largest, big)
			mu.Unlock()
			if mctx.ID() == 0 {
				elimIters = w.ElimIters
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before) {
			t.Fatalf("k=%d: %d states after the handoff, %d before", k, len(after), len(before))
		}
		for label, hs := range before {
			if !bytes.Equal(after[label], hs) {
				t.Fatalf("k=%d: label %d holders %08b after the handoff, %08b before", k, label, after[label], hs)
			}
		}
		if elimIters == 0 {
			t.Fatalf("k=%d: the MST phase ran no elimination iteration", k)
		}
		if largest < 2 {
			t.Fatalf("k=%d: no relabel merged two vertices of one machine", k)
		}
	}
}

// TestRelabelHookSeesTheOldGrouping runs phases that alternate a selection
// that gathers parts (SelectSketch) with one that gathers none
// (selectEdgeCheck) and checks, on every machine, that the relabel hook
// always receives the grouping of the labels it is about to see rewritten:
// the phase's gather's where there was one, never an earlier phase's.
func TestRelabelHookSeesTheOldGrouping(t *testing.T) {
	const n = 200
	g := graph.GNM(n, 300, 4)
	cfg := Config{K: 4, Seed: 9}.WithDefaults(n)
	part, err := kmachine.LoadShards(g.Source(), cfg.K, 9)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := make(map[bool]int) // by whether the phase gathered
	_, err = runOneShot(t.Context(), cfg, func(mctx *kmachine.Ctx) error {
		m := NewMerger(mctx, part.Shard(mctx.ID()), cfg)
		defer m.ReleasePools()
		if err := m.Setup(); err != nil {
			return err
		}
		gathered := false
		m.OnRelabel = func(_ map[uint64]uint64, parts []Part) {
			want := make(map[uint64][]int)
			for i, l := range m.Labels {
				want[l] = append(want[l], i)
			}
			if len(parts) != len(want) {
				t.Errorf("machine %d phase %d: hook got %d parts, the labels make %d", mctx.ID(), m.Phase, len(parts), len(want))
			}
			for _, p := range parts {
				if !slices.Equal(p.Members, want[p.Label]) {
					t.Errorf("machine %d phase %d: hook got part %d = %v, the labels make %v", mctx.ID(), m.Phase, p.Label, p.Members, want[p.Label])
				}
			}
			mu.Lock()
			calls[gathered]++
			mu.Unlock()
		}
		m.RunPhases(0, 6, func(i int) {
			if gathered = i%2 == 0; gathered {
				m.SelectSketch()
			} else {
				m.selectEdgeCheck()
			}
		}, nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls[true] == 0 || calls[false] == 0 {
		t.Fatalf("relabels after a gather: %d, after an edge check: %d; the phases do not cover both", calls[true], calls[false])
	}
}
