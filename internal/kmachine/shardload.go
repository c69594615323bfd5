package kmachine

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"kmgraph/internal/graph"
)

// Shard is what the model gives a machine (§1.1), and the one form it takes
// on every host: the vertices hashed to the machine with their incident
// edges (neighbor IDs and weights), the public vertex count, and the
// globally computable home function. The one-shot handlers and the
// baselines read the shard the loader hands them; a residency (a
// distributed worker's range of one included) adopts it as the machine's live graph and mutates it in place
// (Insert / Remove); min-cut sampling and the verification reductions
// construct the filtered or lifted shard they run over (NewShard).
//
// A shard is one ordinal space: Owned()[i] has its row at i, and per-vertex
// state elsewhere (a Merger's labels, its parts' members) is indexed alike.
// Ordinal is the one vertex-to-position lookup. How adjacency is stored is
// this file's decision alone.
type Shard struct {
	n, id int
	owned []int // ascending
	home  func(v int) int
	rows  [][]graph.Half // rows[i] is owned[i]'s row, sorted by neighbor
}

// NewShard wraps rows the caller built for machine id's owned vertices
// (ascending) over an n-vertex graph: rows[i], sorted by neighbor, is
// owned[i]'s, and a nil row — or nil rows — means no edges.
func NewShard(n, id int, owned []int, home func(v int) int, rows [][]graph.Half) *Shard {
	if rows == nil {
		rows = make([][]graph.Half, len(owned))
	}
	return &Shard{n: n, id: id, owned: owned, home: home, rows: rows}
}

// ID returns the machine the shard belongs to.
func (s *Shard) ID() int { return s.id }

// N returns the number of vertices of the input graph (public knowledge).
func (s *Shard) N() int { return s.n }

// Owned returns this machine's vertices, ascending.
func (s *Shard) Owned() []int { return s.owned }

// Home returns the home machine of any vertex.
func (s *Shard) Home(v int) int { return s.home(v) }

// Ordinal returns owned vertex v's position in Owned(), its row's and its
// state's in any slice parallel to Owned(). Asking for a vertex homed
// elsewhere panics: that would violate the model.
func (s *Shard) Ordinal(v int) int {
	i, ok := slices.BinarySearch(s.owned, v)
	if !ok {
		panic(fmt.Sprintf("kmachine: machine %d accessed non-local vertex %d (home %d)", s.id, v, s.home(v)))
	}
	return i
}

// Row returns the adjacency list of Owned()[i].
func (s *Shard) Row(i int) []graph.Half { return s.rows[i] }

// Adj returns owned vertex u's adjacency list, Row(Ordinal(u)).
func (s *Shard) Adj(u int) []graph.Half { return s.rows[s.Ordinal(u)] }

// find locates `to` in owned vertex u's row: u's ordinal, the index, found.
func (s *Shard) find(u, to int) (o, i int, ok bool) {
	o = s.Ordinal(u)
	i, ok = slices.BinarySearchFunc(s.rows[o], graph.Half{To: to}, cmpHalves)
	return o, i, ok
}

func cmpHalves(a, b graph.Half) int { return cmp.Compare(a.To, b.To) }

// Has reports whether the owned vertex u currently has an edge to `to`.
func (s *Shard) Has(u, to int) bool {
	_, _, ok := s.find(u, to)
	return ok
}

// Insert adds the half-edge u->h, keeping the row sorted. It reports
// false (and leaves the row unchanged) if the edge is already present.
func (s *Shard) Insert(u int, h graph.Half) bool {
	o, i, ok := s.find(u, h.To)
	if ok {
		return false
	}
	s.rows[o] = slices.Insert(s.rows[o], i, h)
	return true
}

// Remove deletes the half-edge u->to, reporting whether it was present.
func (s *Shard) Remove(u, to int) bool {
	o, i, ok := s.find(u, to)
	if !ok {
		return false
	}
	s.rows[o] = slices.Delete(s.rows[o], i, i+1)
	return true
}

// ShardPartition is a vertex partition of one input over k machines: the
// Shard of every machine in the hosted range [lo, hi). It is built by
// streaming an EdgeSource and sending each endpoint to its home machine's
// shard, so a coordinator-side graph.Graph never exists. This is also the
// model's own story — in the k-machine model edges *arrive* partitioned;
// central materialization would be an artifact of the simulator.
type ShardPartition struct {
	n, m   int
	lo, hi int
	shards []*Shard // nil outside [lo, hi)
}

// LoadShards streams src into one Shard per machine under the random
// vertex partition of the given seed (HomeOf).
func LoadShards(src graph.EdgeSource, k int, seed uint64) (*ShardPartition, error) {
	return LoadShardsRange(src, k, func(v int) int { return HomeOf(seed, k, v) }, 0, k)
}

// LoadShardsRange is the loader: it streams src into the shards of
// machines [lo, hi) of k under the given home function — the RVP hash for
// every algorithm, a table for the lower-bound harness (§4), whose
// placement the two-party reduction prescribes. It makes two passes over
// the source (degree counting, then a fill into exactly-sized rows backed
// by one arena per machine). Only the hosted machines' owned lists and
// rows are materialized, so a worker process hosting a sub-range of a
// distributed cluster holds only its own slice of the graph; the stream is
// still validated in full, and a machine's shard does not depend on which
// range it was loaded in. Owned lists are ascending and rows sorted by
// neighbor whatever order the source delivers edges in. Self-loops,
// out-of-range endpoints, and duplicate edges are errors, matching
// graph.Builder.
func LoadShardsRange(src graph.EdgeSource, k int, home func(v int) int, lo, hi int) (*ShardPartition, error) {
	n := src.N()
	if n < 0 || n > graph.MaxN {
		return nil, fmt.Errorf("kmachine: vertex count %d out of range [0, %d]", n, graph.MaxN)
	}
	if k < 1 {
		return nil, fmt.Errorf("kmachine: k = %d, need >= 1", k)
	}
	if lo < 0 || hi > k || lo >= hi {
		return nil, fmt.Errorf("kmachine: shard range [%d,%d) outside [0,%d)", lo, hi, k)
	}
	if k > 1<<16 {
		return nil, fmt.Errorf("kmachine: k = %d exceeds the shard loader's machine table", k)
	}
	p := &ShardPartition{n: n, lo: lo, hi: hi, shards: make([]*Shard, k)}

	hosted := func(mach uint16) bool { return int(mach) >= lo && int(mach) < hi }
	homes := make([]uint16, n)
	perMachine := make([]int, k)
	for v := 0; v < n; v++ {
		h := home(v)
		if h < 0 || h >= k {
			return nil, fmt.Errorf("kmachine: vertex %d homed at machine %d of %d", v, h, k)
		}
		homes[v] = uint16(h)
		perMachine[h]++
	}
	for i := lo; i < hi; i++ {
		p.shards[i] = &Shard{n: n, id: i, home: home, owned: make([]int, 0, perMachine[i])}
	}
	for v := 0; v < n; v++ {
		if hosted(homes[v]) {
			s := p.shards[homes[v]]
			s.owned = append(s.owned, v)
		}
	}

	// Pass 1: degrees of hosted vertices, so each machine's arena and
	// every row within it are allocated at exactly their final size.
	if err := src.Reset(); err != nil {
		return nil, err
	}
	deg := make([]int32, n)
	m := 0
	for {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		e = e.Canon()
		if err := graph.CheckEdge(e, n); err != nil {
			return nil, fmt.Errorf("kmachine: %w in stream", err)
		}
		if hosted(homes[e.U]) {
			deg[e.U]++
		}
		if hosted(homes[e.V]) {
			deg[e.V]++
		}
		m++
	}
	p.m = m

	// Exactly-sized rows carved from one arena per machine: a hosted
	// vertex's half-edges go to arenas[home][next[v]:end[v]], in order.
	arenas := make([][]graph.Half, k)
	next, end := make([]int32, n), deg
	for i := lo; i < hi; i++ {
		s := p.shards[i]
		total := int32(0)
		for _, v := range s.owned {
			next[v] = total
			total += deg[v]
			end[v] = total
		}
		arenas[i] = make([]graph.Half, total)
		s.rows = make([][]graph.Half, len(s.owned))
		for j, v := range s.owned {
			s.rows[j] = arenas[i][next[v]:end[v]:end[v]]
		}
	}

	// Pass 2: fill the hosted half-edges of every edge into the owners'
	// rows.
	if err := src.Reset(); err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		e, err := src.Next()
		if err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("kmachine: source shrank between passes (%d of %d edges)", i, m)
			}
			return nil, err
		}
		e = e.Canon()
		if err := graph.CheckEdge(e, n); err != nil {
			return nil, fmt.Errorf("kmachine: %w in stream", err)
		}
		hu, hv := homes[e.U], homes[e.V]
		if hosted(hu) {
			if next[e.U] >= end[e.U] {
				return nil, fmt.Errorf("kmachine: source changed between passes (row %d overflow)", e.U)
			}
			arenas[hu][next[e.U]] = graph.Half{To: e.V, W: e.W}
			next[e.U]++
		}
		if hosted(hv) {
			if next[e.V] >= end[e.V] {
				return nil, fmt.Errorf("kmachine: source changed between passes (row %d overflow)", e.V)
			}
			arenas[hv][next[e.V]] = graph.Half{To: e.U, W: e.W}
			next[e.V]++
		}
	}
	if _, err := src.Next(); err != io.EOF {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("kmachine: source grew between passes")
	}

	// Sort rows by neighbor (a no-op for canonical-row-order sources like
	// the store, whose halves arrive pre-sorted) and reject duplicates,
	// walking vertices in order so the error names the lowest.
	for i := lo; i < hi; i++ {
		for j, v := range p.shards[i].owned {
			row := p.shards[i].rows[j]
			if next[v] != end[v] {
				return nil, fmt.Errorf("kmachine: source changed between passes (row %d short)", v)
			}
			if !slices.IsSortedFunc(row, cmpHalves) {
				slices.SortFunc(row, cmpHalves)
			}
			for x := 1; x < len(row); x++ {
				if row[x].To == row[x-1].To {
					return nil, fmt.Errorf("kmachine: duplicate edge (%d,%d) in stream", v, row[x].To)
				}
			}
		}
	}
	return p, nil
}

// N returns the vertex count.
func (p *ShardPartition) N() int { return p.n }

// M returns the edge count of the streamed graph.
func (p *ShardPartition) M() int { return p.m }

// Range returns the hosted machine range [lo, hi).
func (p *ShardPartition) Range() (lo, hi int) { return p.lo, p.hi }

// Shard returns machine i's shard; i must be in the hosted range.
func (p *ShardPartition) Shard(i int) *Shard {
	if i < p.lo || i >= p.hi {
		panic(fmt.Sprintf("kmachine: machine %d outside materialized shard range [%d,%d)", i, p.lo, p.hi))
	}
	return p.shards[i]
}
