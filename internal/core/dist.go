// Wire form of a machine's output: what a fleet's machines — the resident
// machines a kmworker hosts (internal/resident) — send their coordinator.
// A worker encodes each hosted machine's designated output of a command
// (AppendOutput), and the coordinator decodes them (ReadOutput) and
// reassembles the global result with Assemble / AssembleMST over the
// combined output vector — the exact functions every in-process host uses,
// so the distributed result is bit-identical by construction. The form
// carries what a resident job produces; the one-shot handler's in-process
// extras (PhaseRounds, the §2.6 ProtocolCount) do not cross it.

package core

import (
	"fmt"

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

// AppendOutput encodes one machine's designated output of a connectivity
// or MST job onto b in wire form.
func AppendOutput(b []byte, o any) ([]byte, error) {
	switch mo := o.(type) {
	case *MachineOutput:
		b = appendLabels(append(b, outputConn), mo.Owned, mo.Labels)
		return wire.AppendInts(b, int(mo.Failures), mo.Phases, btoi(mo.Converged), mo.CollapseIters), nil
	case *MSTOutput:
		b = appendEdges(appendLabels(append(b, outputMST), mo.Owned, mo.Labels), mo.Edges)
		b = wire.AppendInts(b, btoi(mo.VertexEdges != nil), len(mo.VertexEdges))
		for _, v := range SortedKeys(mo.VertexEdges) {
			b = appendEdges(wire.AppendInts(b, v), mo.VertexEdges[v])
		}
		return wire.AppendInts(b, int(mo.Failures), mo.Phases, btoi(mo.Converged), mo.ElimIters, mo.WeakRounds), nil
	default:
		return nil, fmt.Errorf("core: cannot encode output of type %T", o)
	}
}

// ReadOutput decodes a machine output encoded by AppendOutput.
func ReadOutput(r *wire.Reader) (any, error) {
	tag := int(r.Uvarint())
	owned, labels, err := readLabels(r)
	var failures, converged, present, cnt int
	switch {
	case err != nil:
		return nil, err
	case tag == outputConn:
		mo := &MachineOutput{Owned: owned, Labels: labels, ProtocolCount: -1}
		r.Ints(&failures, &mo.Phases, &converged, &mo.CollapseIters)
		mo.Failures, mo.Converged = int64(failures), converged != 0
		return mo, r.Err()
	case tag == outputMST:
		mo := &MSTOutput{Owned: owned, Labels: labels}
		if mo.Edges, err = readEdges(r); err != nil {
			return nil, err
		}
		r.Ints(&present, &cnt)
		if err := checkCount(r, cnt); err != nil {
			return nil, err
		}
		if present != 0 {
			mo.VertexEdges = make(map[int][]graph.Edge)
		}
		for i := 0; i < cnt && present != 0 && r.Err() == nil; i++ {
			var v int
			r.Ints(&v)
			if mo.VertexEdges[v], err = readEdges(r); err != nil {
				return nil, err
			}
		}
		r.Ints(&failures, &mo.Phases, &converged, &mo.ElimIters, &mo.WeakRounds)
		mo.Failures, mo.Converged = int64(failures), converged != 0
		return mo, r.Err()
	default:
		return nil, fmt.Errorf("core: unknown output tag %d", tag)
	}
}

// appendLabels encodes a machine's (vertex, label) pairs, vertices ascending.
func appendLabels(b []byte, owned []int, labels []uint64) []byte {
	b = wire.AppendInts(b, len(owned))
	for i, v := range owned {
		b = wire.AppendUvarint(wire.AppendInts(b, v), labels[i])
	}
	return b
}

// readLabels decodes appendLabels' pairs, refusing vertices that are not
// strictly ascending, as a machine's owned vertices are.
func readLabels(r *wire.Reader) ([]int, []uint64, error) {
	var cnt int
	r.Ints(&cnt)
	if err := checkCount(r, cnt); err != nil {
		return nil, nil, err
	}
	owned, labels := make([]int, 0, min(cnt, 1<<20)), make([]uint64, 0, min(cnt, 1<<20))
	for i := 0; i < cnt && r.Err() == nil; i++ {
		var v int
		r.Ints(&v)
		if i > 0 && v <= owned[i-1] && r.Err() == nil {
			return nil, nil, fmt.Errorf("core: output labels vertex %d after vertex %d", v, owned[i-1])
		}
		owned, labels = append(owned, v), append(labels, r.Uvarint())
	}
	return owned, labels, r.Err()
}

func appendEdges(b []byte, es []graph.Edge) []byte {
	b = wire.AppendInts(b, len(es))
	for _, e := range es {
		b = wire.AppendInts(b, e.U, e.V, int(e.W))
	}
	return b
}

func readEdges(r *wire.Reader) ([]graph.Edge, error) {
	var cnt int
	r.Ints(&cnt)
	if err := checkCount(r, cnt); err != nil {
		return nil, err
	}
	var es []graph.Edge
	for i := 0; i < cnt && r.Err() == nil; i++ {
		var e graph.Edge
		var w int
		r.Ints(&e.U, &e.V, &w)
		e.W = int64(w)
		es = append(es, e)
	}
	return es, r.Err()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
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
