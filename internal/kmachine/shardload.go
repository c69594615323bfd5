package kmachine

import (
	"fmt"
	"io"
	"sort"

	"kmgraph/internal/graph"
)

// Shard is what the model gives a machine (§1.1), and the one form it takes
// on every host: the vertices hashed to the machine with their incident
// edges (neighbor IDs and weights), the public vertex count, and the
// globally computable home function. The one-shot handlers and the
// baselines read the shard the loader hands them; a residency (a
// distributed worker's range of one included) adopts it as the machine's live graph and mutates it in place
// (Insert / Remove); min-cut sampling and the verification reductions
// construct the filtered or lifted shard they run over (NewShard). How
// adjacency is stored is this file's decision alone.
type Shard struct {
	n, id int
	owned []int
	home  func(v int) int
	adj   map[int][]graph.Half // a row per owned vertex, sorted by neighbor
}

// NewShard wraps rows the caller built for machine id's owned vertices
// (ascending; rows sorted by neighbor) over an n-vertex graph. An owned
// vertex without a row gets an empty one; adj may be nil.
func NewShard(n, id int, owned []int, home func(v int) int, adj map[int][]graph.Half) *Shard {
	if adj == nil {
		adj = make(map[int][]graph.Half, len(owned))
	}
	for _, u := range owned {
		if _, ok := adj[u]; !ok {
			adj[u] = nil
		}
	}
	return &Shard{n: n, id: id, owned: owned, home: home, adj: adj}
}

// ID returns the machine the shard belongs to.
func (s *Shard) ID() int { return s.id }

// N returns the number of vertices of the input graph (public knowledge).
func (s *Shard) N() int { return s.n }

// Owned returns this machine's vertices, ascending.
func (s *Shard) Owned() []int { return s.owned }

// Home returns the home machine of any vertex.
func (s *Shard) Home(v int) int { return s.home(v) }

// Adj returns the adjacency list of an owned vertex. Asking for a vertex
// homed elsewhere panics: that would violate the model. (Every owned
// vertex has a row, so the check is the row lookup itself, not a hash.)
func (s *Shard) Adj(u int) []graph.Half {
	row, ok := s.adj[u]
	if !ok {
		panic(fmt.Sprintf("kmachine: machine %d accessed non-local vertex %d (home %d)", s.id, u, s.home(u)))
	}
	return row
}

func (s *Shard) find(u, to int) (int, bool) {
	a := s.Adj(u)
	i := sort.Search(len(a), func(i int) bool { return a[i].To >= to })
	return i, i < len(a) && a[i].To == to
}

// Has reports whether the owned vertex u currently has an edge to `to`.
func (s *Shard) Has(u, to int) bool {
	_, ok := s.find(u, to)
	return ok
}

// Insert adds the half-edge u->h, keeping the row sorted. It reports
// false (and leaves the row unchanged) if the edge is already present.
func (s *Shard) Insert(u int, h graph.Half) bool {
	i, ok := s.find(u, h.To)
	if ok {
		return false
	}
	a := append(s.adj[u], graph.Half{})
	copy(a[i+1:], a[i:])
	a[i] = h
	s.adj[u] = a
	return true
}

// Remove deletes the half-edge u->to, reporting whether it was present.
func (s *Shard) Remove(u, to int) bool {
	i, ok := s.find(u, to)
	if !ok {
		return false
	}
	a := s.adj[u]
	copy(a[i:], a[i+1:])
	s.adj[u] = a[:len(a)-1]
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
		p.shards[i] = &Shard{n: n, id: i, home: home,
			owned: make([]int, 0, perMachine[i]), adj: make(map[int][]graph.Half, perMachine[i])}
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

	// Exactly-sized rows carved from one arena per machine.
	cur := make([]int32, n)
	for i := lo; i < hi; i++ {
		total := 0
		for _, v := range p.shards[i].owned {
			total += int(deg[v])
		}
		arena := make([]graph.Half, total)
		off := 0
		for _, v := range p.shards[i].owned {
			d := int(deg[v])
			p.shards[i].adj[v] = arena[off : off : off+d]
			off += d
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
			if int(cur[e.U]) >= int(deg[e.U]) {
				return nil, fmt.Errorf("kmachine: source changed between passes (row %d overflow)", e.U)
			}
			p.shards[hu].adj[e.U] = append(p.shards[hu].adj[e.U], graph.Half{To: e.V, W: e.W})
			cur[e.U]++
		}
		if hosted(hv) {
			if int(cur[e.V]) >= int(deg[e.V]) {
				return nil, fmt.Errorf("kmachine: source changed between passes (row %d overflow)", e.V)
			}
			p.shards[hv].adj[e.V] = append(p.shards[hv].adj[e.V], graph.Half{To: e.U, W: e.W})
			cur[e.V]++
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
		for _, v := range p.shards[i].owned {
			row := p.shards[i].adj[v]
			if !halvesSorted(row) {
				sort.Slice(row, func(a, b int) bool { return row[a].To < row[b].To })
			}
			for j := 1; j < len(row); j++ {
				if row[j].To == row[j-1].To {
					return nil, fmt.Errorf("kmachine: duplicate edge (%d,%d) in stream", v, row[j].To)
				}
			}
		}
	}
	return p, nil
}

func halvesSorted(row []graph.Half) bool {
	for i := 1; i < len(row); i++ {
		if row[i].To < row[i-1].To {
			return false
		}
	}
	return true
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
