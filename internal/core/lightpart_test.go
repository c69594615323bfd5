package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/proxy"
	"kmgraph/internal/sketch"
	"kmgraph/internal/wire"
)

// partOutcomes is what SumAndSample stored per label, as comparable text:
// the sample, or on an MST job's Merger every slot and the full flag.
func partOutcomes(m *Merger, seen map[string]int) map[uint64]string {
	got := make(map[uint64]string, len(m.States))
	for _, st := range m.States {
		st.sampled = false
		got[st.Label] = fmt.Sprint(st.status, m.slotsOf(st), st.full)
		seen[st.status.String()]++
		if m.allSlots {
			seen[fmt.Sprint("full=", st.full)]++
		}
	}
	return got
}

// TestLightPartRowsMatchSketch is the differential test of the two part
// forms: on every machine of a k-machine cluster, the same parts sent as
// adjacency rows and as sketches — unfiltered, and under an MST threshold
// per component — must leave SumAndSample with the same sample, the same
// SampleAll slots and the same full flag for every label.
func TestLightPartRowsMatchSketch(t *testing.T) {
	const n = 48
	var mu sync.Mutex
	seen := make(map[string]int)
	for _, k := range []int{1, 4, 8} {
		for trial := 0; trial < 4; trial++ {
			g := graph.WithDistinctWeights(graph.GNM(n, 40+50*trial, int64(trial)), int64(k))
			p := sketch.DefaultParams(n)
			if trial%2 == 1 {
				p = sketch.Params{N: n, Levels: 4, Buckets: 2, Reps: 1} // small enough that samples fail
			}
			cfg := Config{K: k, Seed: int64(trial + 1), Sketch: p}.WithDefaults(n)
			shards, err := kmachine.LoadShards(g.Source(), k, uint64(trial+1))
			if err != nil {
				t.Fatal(err)
			}
			// Every machine agrees on the parts' grouping and thresholds.
			rng := rand.New(rand.NewSource(int64(100*k + trial)))
			labels := make([]uint64, n)
			cuts := make(map[uint64]threshold)
			for v := range labels {
				labels[v] = uint64(1000 + rng.Intn(3+6*trial))
				if adj := g.Adj(v); len(adj) > 0 {
					h := adj[rng.Intn(len(adj))]
					cuts[labels[v]] = threshold{label: labels[v], w: h.W, id: graph.EdgeID(v, h.To, n)}
				}
			}
			_, err = runOneShot(t.Context(), cfg, func(mctx *kmachine.Ctx) error {
				m := NewMerger(mctx, shards.Shard(mctx.ID()), cfg)
				defer m.ReleasePools()
				for i, v := range m.View.Owned() {
					m.Labels[i] = labels[v]
				}
				local := make(map[string]int)
				for step, filtered := range []bool{false, false, true, true} {
					m.allSlots = step%2 == 1
					seed := uint64(7*trial + step)
					var got [2]map[uint64]string
					for form := range got {
						var out []proxy.Out
						sk := m.Pool().Get(seed)
						for _, p := range m.Parts() {
							label := p.Label
							var filter func(u int, h graph.Half) bool
							if cut, ok := cuts[label]; filtered && ok {
								filter = func(u int, h graph.Half) bool { return edgeLessHalf(u, h, n, cut.w, cut.id) }
							}
							var body *sketch.Sketch // form 0: rows
							if form == 1 {
								sk.Reset()
								for _, i := range p.Members {
									sk.AddVertex(m.View.Owned()[i], m.View.Row(i), filter)
								}
								body = sk
							}
							out = append(out, proxy.Out{Dst: int(label % uint64(k)), Data: m.PartPayload(label, p.Members, filter, body)})
						}
						m.Pool().Put(sk)
						m.SumAndSample(m.Comm.Exchange(out), seed, true)
						got[form] = partOutcomes(m, local)
					}
					if fmt.Sprint(got[0]) != fmt.Sprint(got[1]) {
						return fmt.Errorf("k=%d trial %d step %d machine %d:\n rows:   %v\n sketch: %v", k, trial, step, mctx.ID(), got[0], got[1])
					}
				}
				mu.Lock()
				for s, c := range local {
					seen[s] += c
				}
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("outcomes: %v", seen)
	for _, s := range []string{"empty", "sampled", "failed", "full=true", "full=false"} {
		if seen[s] == 0 {
			t.Errorf("no part sum came out %s: the inputs do not cover it", s)
		}
	}
}

// fuzzRowsN and fuzzRowsK are FuzzAddPart's universe: N vertices over k machines,
// vertex v homed at v % k.
const fuzzRowsN, fuzzRowsK = 40, 3

// appendRows encodes a rows part body by hand: label, then per entry the
// vertex, its degree and its neighbours.
func appendRows(b []byte, label uint64, entries ...[]uint64) []byte {
	b = wire.AppendUvarint(b, label<<1|1)
	b = wire.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = wire.AppendUvarint(wire.AppendUvarint(b, e[0]), uint64(len(e)-1))
		for _, to := range e[1:] {
			b = wire.AppendUvarint(b, to)
		}
	}
	return b
}

// refRows is an independent reading of a rows body: the rows it names, or
// false where any refusal rule applies.
func refRows(body []byte, src int) (rows [][]graph.Half, vs []int, ok bool) {
	next := func() (uint64, bool) {
		x, k := binary.Uvarint(body)
		if k <= 0 {
			return 0, false
		}
		body = body[k:]
		return x, true
	}
	count, ok := next()
	for ; ok && count > 0; count-- {
		v, okV := next()
		d, okD := next()
		if !okV || !okD || v >= fuzzRowsN || int(v)%fuzzRowsK != src || d > uint64(len(body)) {
			return nil, nil, false
		}
		var row []graph.Half
		for ; d > 0; d-- {
			to, okT := next()
			if !okT || to >= fuzzRowsN || to == v {
				return nil, nil, false
			}
			row = append(row, graph.Half{To: int(to)})
		}
		rows, vs = append(rows, row), append(vs, int(v))
	}
	return rows, vs, ok && len(body) == 0
}

// FuzzAddPart feeds the proxy's reader of part messages — a sketch or a
// light part's rows, from a peer — and holds it to the refusal rules: no
// panic, allocation bounded by the input, rows refused exactly when some
// rule is broken (a vertex out of range or homed elsewhere, a neighbour out
// of range or the vertex itself, a degree or count past the message end, a
// truncated header, trailing bytes), and accepted rows read as items that
// add into a sum exactly as AddVertex of the same rows does, and that the
// sampler scan reads beside the sum as that sum, in both modes.
func FuzzAddPart(f *testing.F) {
	p := sketch.Params{N: fuzzRowsN, Levels: 6, Buckets: 3, Reps: 2}
	const seed = 5
	home := func(v int) int { return v % fuzzRowsK }
	var owned []int
	for v := 0; v < fuzzRowsN; v += fuzzRowsK {
		owned = append(owned, v)
	}
	view := kmachine.NewShard(fuzzRowsN, 0, owned, home, nil)

	sk := sketch.New(p, seed)
	sk.AddVertex(3, []graph.Half{{To: 1}, {To: 7}, {To: 39}}, nil)
	f.Add(sk.EncodeTo(wire.AppendUvarint(nil, 12<<1)), uint8(0))
	good := appendRows(nil, 12, []uint64{3, 1, 7, 39}, []uint64{6, 0})
	f.Add(good, uint8(0))
	f.Add(appendRows(nil, 5), uint8(1))                   // no kept half-edge at all
	f.Add(good, uint8(1))                                 // vertex homed elsewhere
	f.Add(appendRows(nil, 12, []uint64{42, 1}), uint8(0)) // vertex out of range
	f.Add(appendRows(nil, 12, []uint64{3, 40}), uint8(0)) // neighbour out of range
	f.Add(appendRows(nil, 12, []uint64{3, 3}), uint8(0))  // self-loop
	f.Add([]byte{0x19, 0x01, 0x03, 0x7f, 0x01}, uint8(0)) // degree past the end
	f.Add([]byte{0x19, 0xff, 0xff, 0xff, 0x0f}, uint8(0)) // count past the end
	f.Add(good[:len(good)-1], uint8(0))                   // truncated row
	f.Add(append(slices.Clone(good), 0), uint8(0))        // trailing byte
	f.Add([]byte{0x80}, uint8(0))                         // truncated header
	f.Add([]byte{}, uint8(2))                             // nothing at all
	f.Fuzz(func(t *testing.T, data []byte, from uint8) {
		src := int(from) % fuzzRowsK
		m, sum := &Merger{View: view, Cfg: Config{Sketch: p}}, sketch.New(p, seed)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var items sketch.Items
		err := m.addPart(sum, &items, data, src)
		runtime.ReadMemStats(&m1)
		if grew, budget := m1.TotalAlloc-m0.TotalAlloc, uint64(1<<16+64*len(data)); grew > budget {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(data), grew, budget)
		}
		hdr, k := binary.Uvarint(data)
		if k <= 0 {
			if err == nil {
				t.Fatal("accepted a truncated header")
			}
			return
		}
		want := sketch.New(p, seed)
		if hdr&1 == 0 {
			werr := want.AddEncoded(data[k:])
			if (err == nil) != (werr == nil) {
				t.Fatalf("sketch part: err %v, AddEncoded says %v", err, werr)
			}
		} else {
			rows, vs, ok := refRows(data[k:], src)
			if ok != (err == nil) {
				t.Fatalf("rows part: err %v, the refusal rules say accept = %v", err, ok)
			}
			for i, row := range rows {
				want.AddVertex(vs[i], row, nil)
			}
		}
		if err != nil {
			return
		}
		for _, all := range []bool{false, true} {
			got, gst, gfull := sum.SampleSlots(nil, &items, all)
			if ws, wst, wfull := want.SampleSlots(nil, nil, all); !slices.Equal(got, ws) || gst != wst || gfull != wfull {
				t.Fatalf("all=%v: accepted rows sample %v %v full=%v, AddVertex of them %v %v full=%v", all, got, gst, gfull, ws, wst, wfull)
			}
		}
		for _, it := range items.List {
			sum.AddItem(uint64(it)>>1, 1-2*int(it&1))
		}
		if !bytes.Equal(sum.EncodeTo(nil), want.EncodeTo(nil)) {
			t.Fatal("accepted part adds other cells than AddVertex of its rows")
		}
	})
}
