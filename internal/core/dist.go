// Distribution surface: the hooks a multi-process run needs from the
// algorithm layer. A distributed worker hosts machines [lo, hi) of a
// k-machine cluster behind transport/tcp; it builds the same per-machine
// handler a single-process run would (ConnectivityHandler / MSTHandler
// over its shard views), and ships its hosted machines' designated
// outputs to the coordinator in wire form (AppendOutput / ReadOutput).
// The coordinator reassembles the global result with Assemble /
// AssembleMST over the combined output vector — the exact functions the
// single-process paths use, so the distributed result is bit-identical
// by construction.

package core

import (
	"fmt"
	"sort"

	"kmgraph/internal/graph"
	"kmgraph/internal/wire"
)

// Output wire tags.
const (
	outputConn = 1
	outputMST  = 2
)

// maxOutputItems bounds decoded collection sizes (a worker output for an
// n-vertex graph never exceeds n entries per collection; the bound only
// guards against corrupt frames).
const maxOutputItems = 1 << 28

// AppendOutput encodes one machine's designated output (as produced by
// the connectivity or MST handler) onto b in wire form.
func AppendOutput(b []byte, o any) ([]byte, error) {
	switch mo := o.(type) {
	case *MachineOutput:
		b = append(b, outputConn)
		b = appendLabels(b, mo.Labels)
		b = wire.AppendVarint(b, mo.Failures)
		b = wire.AppendUvarint(b, uint64(mo.Phases))
		b = wire.AppendBool(b, mo.Converged)
		b = wire.AppendUvarint(b, uint64(mo.CollapseIters))
		b = wire.AppendVarint(b, int64(mo.ProtocolCount))
		b = wire.AppendBool(b, mo.PhaseRounds != nil)
		if mo.PhaseRounds != nil {
			b = wire.AppendUvarint(b, uint64(len(mo.PhaseRounds)))
			for _, r := range mo.PhaseRounds {
				b = wire.AppendUvarint(b, uint64(r))
			}
		}
		return b, nil
	case *MSTOutput:
		b = append(b, outputMST)
		b = appendLabels(b, mo.Labels)
		b = wire.AppendUvarint(b, uint64(len(mo.Edges)))
		for _, e := range mo.Edges {
			b = appendEdge(b, e)
		}
		b = wire.AppendBool(b, mo.VertexEdges != nil)
		if mo.VertexEdges != nil {
			vs := make([]int, 0, len(mo.VertexEdges))
			for v := range mo.VertexEdges {
				vs = append(vs, v)
			}
			sort.Ints(vs)
			b = wire.AppendUvarint(b, uint64(len(vs)))
			for _, v := range vs {
				b = wire.AppendUvarint(b, uint64(v))
				es := mo.VertexEdges[v]
				b = wire.AppendUvarint(b, uint64(len(es)))
				for _, e := range es {
					b = appendEdge(b, e)
				}
			}
		}
		b = wire.AppendVarint(b, mo.Failures)
		b = wire.AppendUvarint(b, uint64(mo.Phases))
		b = wire.AppendBool(b, mo.Converged)
		b = wire.AppendUvarint(b, uint64(mo.ElimIters))
		b = wire.AppendUvarint(b, uint64(mo.WeakRounds))
		return b, nil
	default:
		return nil, fmt.Errorf("core: cannot encode output of type %T", o)
	}
}

// ReadOutput decodes a machine output encoded by AppendOutput.
func ReadOutput(r *wire.Reader) (any, error) {
	tag := int(r.Uvarint())
	switch tag {
	case outputConn:
		mo := &MachineOutput{}
		var err error
		if mo.Labels, err = readLabels(r); err != nil {
			return nil, err
		}
		mo.Failures = r.Varint()
		mo.Phases = int(r.Uvarint())
		mo.Converged = r.Bool()
		mo.CollapseIters = int(r.Uvarint())
		mo.ProtocolCount = int(r.Varint())
		if r.Bool() {
			cnt := int(r.Uvarint())
			if err := checkCount(r, cnt); err != nil {
				return nil, err
			}
			mo.PhaseRounds = make([]int, cnt)
			for i := range mo.PhaseRounds {
				mo.PhaseRounds[i] = int(r.Uvarint())
			}
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		return mo, nil
	case outputMST:
		mo := &MSTOutput{}
		var err error
		if mo.Labels, err = readLabels(r); err != nil {
			return nil, err
		}
		cnt := int(r.Uvarint())
		if err := checkCount(r, cnt); err != nil {
			return nil, err
		}
		for i := 0; i < cnt && r.Err() == nil; i++ {
			mo.Edges = append(mo.Edges, readEdge(r))
		}
		if r.Bool() {
			mo.VertexEdges = make(map[int][]graph.Edge)
			nv := int(r.Uvarint())
			if err := checkCount(r, nv); err != nil {
				return nil, err
			}
			for i := 0; i < nv && r.Err() == nil; i++ {
				v := int(r.Uvarint())
				ne := int(r.Uvarint())
				if err := checkCount(r, ne); err != nil {
					return nil, err
				}
				es := make([]graph.Edge, 0, min(ne, 1024))
				for j := 0; j < ne && r.Err() == nil; j++ {
					es = append(es, readEdge(r))
				}
				mo.VertexEdges[v] = es
			}
		}
		mo.Failures = r.Varint()
		mo.Phases = int(r.Uvarint())
		mo.Converged = r.Bool()
		mo.ElimIters = int(r.Uvarint())
		mo.WeakRounds = int(r.Uvarint())
		if r.Err() != nil {
			return nil, r.Err()
		}
		return mo, nil
	default:
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("core: unknown output tag %d", tag)
	}
}

func appendLabels(b []byte, labels map[int]uint64) []byte {
	vs := make([]int, 0, len(labels))
	for v := range labels {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	b = wire.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = wire.AppendUvarint(b, uint64(v))
		b = wire.AppendUvarint(b, labels[v])
	}
	return b
}

func readLabels(r *wire.Reader) (map[int]uint64, error) {
	cnt := int(r.Uvarint())
	if err := checkCount(r, cnt); err != nil {
		return nil, err
	}
	labels := make(map[int]uint64, min(cnt, 1<<20))
	for i := 0; i < cnt && r.Err() == nil; i++ {
		v := int(r.Uvarint())
		labels[v] = r.Uvarint()
	}
	return labels, r.Err()
}

func appendEdge(b []byte, e graph.Edge) []byte {
	b = wire.AppendUvarint(b, uint64(e.U))
	b = wire.AppendUvarint(b, uint64(e.V))
	b = wire.AppendVarint(b, e.W)
	return b
}

func readEdge(r *wire.Reader) graph.Edge {
	return graph.Edge{U: int(r.Uvarint()), V: int(r.Uvarint()), W: r.Varint()}
}

func checkCount(r *wire.Reader, n int) error {
	if err := r.Err(); err != nil {
		return err
	}
	// Every item takes at least one byte on the wire, so a count beyond
	// the bytes left is corrupt — and must not size an allocation.
	if n < 0 || n > maxOutputItems || n > r.Len() {
		return fmt.Errorf("core: output collection size %d out of range", n)
	}
	return nil
}
