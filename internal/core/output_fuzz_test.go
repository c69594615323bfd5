package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/wire"
)

// realOutputs returns the per-machine outputs of real runs of both job
// families as a residency produces them (no one-shot extras): a
// connectivity job and a strong-output MST (vertex-edge maps).
func realOutputs(t testing.TB) []any {
	t.Helper()
	g := graph.WithDistinctWeights(graph.GNM(60, 150, 3), 4)
	part, err := kmachine.LoadShards(g.Source(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MSTConfig{Config: Config{K: 3, Seed: 5}.WithDefaults(g.N()), StrongOutput: true}
	conn := func(mctx *kmachine.Ctx) error {
		m := NewMerger(mctx, part.Shard(mctx.ID()), cfg.Config)
		defer m.ReleasePools()
		if err := m.Setup(); err != nil {
			return err
		}
		out, _ := m.ConnectivityJob(0, nil)
		mctx.SetOutput(out)
		return nil
	}
	var outs []any
	for _, h := range []kmachine.Handler{conn, mstHandler(part.Shard, cfg)} {
		res, err := runOneShot(context.Background(), cfg.Config, h)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, res.Outputs...)
	}
	return outs
}

// TestOutputRoundTrip: ReadOutput(AppendOutput(o)) is the identity on
// what the handlers of both families really produce.
func TestOutputRoundTrip(t *testing.T) {
	strong := false
	for i, o := range realOutputs(t) {
		b, err := AppendOutput(nil, o)
		if err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(b)
		got, err := ReadOutput(r)
		if err != nil || r.Done() != nil {
			t.Fatalf("output %d: decode: %v / trailing: %v", i, err, r.Done())
		}
		if !reflect.DeepEqual(got, o) {
			t.Fatalf("output %d drifted through the wire:\n got  %+v\n want %+v", i, got, o)
		}
		if mo, ok := o.(*MSTOutput); ok && len(mo.VertexEdges) > 0 {
			strong = true
		}
	}
	if !strong {
		t.Fatal("no strong-output vertex-edge map among the real outputs")
	}
}

// connFrame is a connectivity output in wire form labeling the given
// vertices, in the given order, 0.
func connFrame(vs ...int) []byte {
	b := wire.AppendInts([]byte{outputConn}, len(vs))
	for _, v := range vs {
		b = wire.AppendUvarint(wire.AppendInts(b, v), 0)
	}
	return wire.AppendInts(b, 0, 1, 1, 0)
}

// TestReadOutputRefusesUnsortedLabels: a machine's vertices are ascending,
// so the decoder refuses a label list that is not strictly ascending — a
// vertex listed twice would otherwise keep only one of its labels.
func TestReadOutputRefusesUnsortedLabels(t *testing.T) {
	for _, tc := range []struct {
		name string
		vs   []int
		ok   bool
	}{
		{"vertex 1 listed twice", []int{0, 1, 1}, false},
		{"vertex 2, then vertex 1", []int{2, 1}, false},
		{"ascending", []int{0, 1, 2}, true},
	} {
		o, err := ReadOutput(wire.NewReader(connFrame(tc.vs...)))
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %v", tc.name, err, tc.ok)
		} else if tc.ok && !reflect.DeepEqual(o.(*MachineOutput).Owned, tc.vs) {
			t.Errorf("%s: decoded vertices %v", tc.name, o.(*MachineOutput).Owned)
		}
	}
}

// FuzzReadOutput: the decoder of worker-supplied output bytes never
// panics, allocates in proportion to its input (a count field alone must
// not size an allocation), accepts only strictly ascending vertices with
// one label each and what re-encodes to an equal value, and hands the
// assemblers nothing that makes them panic.
func FuzzReadOutput(f *testing.F) {
	for _, o := range realOutputs(f) {
		b, err := AppendOutput(nil, o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{outputConn, 0xff, 0xff, 0xff, 0x7f})         // 2^28-1 labels, no bytes
	f.Add([]byte{outputMST, 0, 0, 2, 0xfe, 0xff, 0xff, 0x7f}) // 2^27-1 vertex-edge entries, no bytes
	f.Add([]byte{outputMST, 0, 0xff, 0xff, 0xff, 0x7f})       // 2^28-1 edges
	f.Add([]byte{outputMST, 1, 0xff, 0xff, 0x03, 7, 0, 1})    // vertex 65535 of a 4-vertex graph
	f.Add(connFrame(0, 1, 1))                                 // vertex 1 listed twice
	f.Add(connFrame(2, 1))                                    // vertices out of order
	f.Fuzz(func(t *testing.T, data []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		o, err := ReadOutput(wire.NewReader(data))
		runtime.ReadMemStats(&m1)
		if grew, budget := m1.TotalAlloc-m0.TotalAlloc, uint64(1<<16+512*len(data)); grew > budget {
			t.Fatalf("decoding %d bytes allocated %d (budget %d)", len(data), grew, budget)
		}
		if err != nil {
			return
		}
		var owned []int
		var labels []uint64
		switch mo := o.(type) {
		case *MachineOutput:
			owned, labels = mo.Owned, mo.Labels
		case *MSTOutput:
			owned, labels = mo.Owned, mo.Labels
		}
		if len(owned) != len(labels) {
			t.Fatalf("%d vertices with %d labels accepted", len(owned), len(labels))
		}
		for i := 1; i < len(owned); i++ {
			if owned[i] <= owned[i-1] {
				t.Fatalf("vertex %d after vertex %d accepted", owned[i], owned[i-1])
			}
		}
		b, err := AppendOutput(nil, o)
		if err != nil {
			t.Fatalf("decoded value does not re-encode: %v", err)
		}
		o2, err := ReadOutput(wire.NewReader(b))
		if err != nil || !reflect.DeepEqual(o, o2) {
			t.Fatalf("re-encoded value drifted (err %v):\n got  %+v\n want %+v", err, o2, o)
		}
		// Whatever vertices the bytes name, assembly reports, never panics.
		Assemble(4, []any{o})
		AssembleMST(4, []any{o})
	})
}
