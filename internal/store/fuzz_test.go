package store

import (
	"bytes"
	"io"
	"testing"

	"kmgraph/internal/graph"
)

// FuzzReader feeds arbitrary bytes to the container reader and drains
// any source that opens. The contract under test: malformed input is an
// error, never a panic, never an out-of-range edge, and never more
// edges than the header promises.
func FuzzReader(f *testing.F) {
	seed := func(g *graph.Graph, blockTarget int) {
		var buf bytes.Buffer
		if err := write(&buf, g.Source(), blockTarget); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(graph.GNM(64, 200, 1), 64)
	seed(graph.WithDistinctWeights(graph.GNM(32, 96, 2), 3), 32)
	seed(graph.Star(17), DefaultBlockTarget)
	seed(graph.FromEdges(5, nil), DefaultBlockTarget)
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := newReader(data)
		if err != nil {
			return
		}
		n, m := r.N(), r.M()
		src := r.Source()
		got := 0
		for {
			e, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return // detected corruption: the contract holds
			}
			if e.U < 0 || e.V < 0 || e.U >= n || e.V >= n || e.U >= e.V {
				t.Fatalf("reader emitted invalid edge %+v for n=%d", e, n)
			}
			got++
			if got > m {
				t.Fatalf("reader emitted more than the %d edges promised", m)
			}
		}
		if got != m {
			t.Fatalf("clean EOF after %d of %d edges", got, m)
		}
	})
}
