package store

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"kmgraph/internal/graph"
)

// roundTrip writes g through the store and reads it back, asserting the
// edge sequence is exactly g.Edges().
func roundTrip(t *testing.T, g *graph.Graph, blockTarget int) {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf, g.Source(), blockTarget); err != nil {
		t.Fatalf("write: %v", err)
	}
	r, err := newReader(buf.Bytes())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if r.N() != g.N() || r.M() != g.M() {
		t.Fatalf("size: got n=%d m=%d, want n=%d m=%d", r.N(), r.M(), g.N(), g.M())
	}
	got, err := graph.Drain(r.Source())
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	want := g.Edges()
	if len(want) == 0 {
		want = nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("edges drifted: got %d edges, want %d\n got[:5]=%v\nwant[:5]=%v",
			len(got), len(want), head(got), head(want))
	}
	// A second pass over the same source must replay identically.
	src := r.Source()
	again, err := graph.Drain(src)
	if err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("Reset replay drifted")
	}
}

func head(e []graph.Edge) []graph.Edge {
	if len(e) > 5 {
		return e[:5]
	}
	return e
}

func TestRoundTripRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(200)
		maxM := n * (n - 1) / 2
		m := 0
		if maxM > 0 {
			m = rng.Intn(maxM + 1)
		}
		g := graph.GNM(n, m, int64(trial))
		if trial%3 == 0 {
			g = graph.WithUniformWeights(g, 1000, int64(trial))
		} else if trial%3 == 1 {
			g = graph.WithDistinctWeights(g, int64(trial))
		}
		blockTarget := 1 << uint(4+rng.Intn(10)) // 16 B .. 8 KB: many blocks
		roundTrip(t, g, blockTarget)
	}
}

func TestRoundTripShapes(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(1),
		graph.Path(2),
		graph.Star(50),
		graph.Cycle(33),
		graph.Complete(24),
		graph.DisjointComponents(60, 6, 0.5, 3),
		graph.FromEdges(10, nil), // edgeless
	} {
		roundTrip(t, g, DefaultBlockTarget)
	}
}

func TestRoundTripNegativeAndLargeWeights(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, -77)
	b.AddEdge(1, 2, 1<<62)
	b.AddEdge(0, 4, -(1 << 61))
	b.AddEdge(2, 3, 0)
	roundTrip(t, b.Build(), DefaultBlockTarget)
}

func TestWriteFileOpen(t *testing.T) {
	g := graph.WithDistinctWeights(graph.GNM(300, 900, 5), 6)
	path := filepath.Join(t.TempDir(), "g.kmgs")
	if err := WriteFile(path, g.Source()); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if !r.Weighted() {
		t.Fatal("weighted store read back unweighted")
	}
	got, err := graph.Drain(r.Source())
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !reflect.DeepEqual(got, g.Edges()) {
		t.Fatal("mmap-backed read drifted from in-memory edges")
	}
}

func TestUnweightedFlag(t *testing.T) {
	g := graph.GNM(100, 300, 1) // all weights 1
	var buf bytes.Buffer
	if err := Write(&buf, g.Source()); err != nil {
		t.Fatal(err)
	}
	r, err := newReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.Weighted() {
		t.Fatal("all-unit-weight store should be flagged unweighted")
	}
	// An unweighted store must be smaller than the weighted encoding of
	// the same graph.
	gw := graph.WithUniformWeights(g, 1000, 2)
	var wbuf bytes.Buffer
	if err := Write(&wbuf, gw.Source()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= wbuf.Len() {
		t.Fatalf("unweighted store (%d B) not smaller than weighted (%d B)", buf.Len(), wbuf.Len())
	}
}

func TestWriterRejectsBadEdges(t *testing.T) {
	for name, edges := range map[string][]graph.Edge{
		"self-loop":    {{U: 3, V: 3, W: 1}},
		"out-of-range": {{U: 0, V: 99, W: 1}},
		"negative":     {{U: -1, V: 2, W: 1}},
		"duplicate":    {{U: 1, V: 2, W: 1}, {U: 2, V: 1, W: 5}},
	} {
		src := graph.NewSliceSource(10, edges)
		if err := Write(io.Discard, src); err == nil {
			t.Errorf("%s: writer accepted bad input", name)
		}
	}
}

func TestReaderRejectsTruncation(t *testing.T) {
	g := graph.WithDistinctWeights(graph.GNM(120, 400, 9), 9)
	var buf bytes.Buffer
	if err := write(&buf, g.Source(), 256); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 3, headerLen - 1, headerLen + 10, len(full) / 2, len(full) - 1} {
		r, err := newReader(full[:cut])
		if err != nil {
			continue // rejected at open: good
		}
		// Structurally valid prefix: the scan must catch it.
		if _, derr := graph.Drain(r.Source()); derr == nil {
			t.Errorf("truncation at %d of %d bytes went undetected", cut, len(full))
		}
	}
}

func TestReaderRejectsCorruption(t *testing.T) {
	g := graph.WithDistinctWeights(graph.GNM(120, 400, 9), 9)
	var buf bytes.Buffer
	if err := write(&buf, g.Source(), 256); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	rng := rand.New(rand.NewSource(11))
	flips := 0
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), full...)
		i := rng.Intn(len(mut))
		mut[i] ^= 1 << uint(rng.Intn(8))
		r, err := newReader(mut)
		if err != nil {
			continue
		}
		if _, derr := graph.Drain(r.Source()); derr == nil {
			// The flip survived: it must decode to the identical graph
			// (impossible — every section is checksummed).
			t.Fatalf("bit flip at byte %d went undetected", i)
		}
		flips++
	}
	if flips == 0 {
		t.Fatal("every corruption was rejected at open; want some block-level lazy detections too")
	}
}
