package kmachine

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"kmgraph/internal/graph"
)

// checkShard compares machine i's shard with the definition of a vertex
// partition, read off the graph itself: the owned list is the ascending
// list of vertices home sends to i, every row is g's own adjacency (same
// order, same weights), and a vertex homed elsewhere has no row.
func checkShard(t *testing.T, s *Shard, g *graph.Graph, i int, home func(int) int) {
	t.Helper()
	if s.ID() != i || s.N() != g.N() {
		t.Fatalf("machine %d: shard says id=%d n=%d, want n=%d", i, s.ID(), s.N(), g.N())
	}
	var owned []int
	for v := 0; v < g.N(); v++ {
		if home(v) == i {
			owned = append(owned, v)
		}
		if s.Home(v) != home(v) {
			t.Fatalf("machine %d: Home(%d) = %d, want %d", i, v, s.Home(v), home(v))
		}
	}
	if len(owned)+len(s.Owned()) > 0 && !reflect.DeepEqual(s.Owned(), owned) {
		t.Fatalf("machine %d: owned = %v, want %v", i, s.Owned(), owned)
	}
	for _, v := range owned {
		got, want := s.Adj(v), g.Adj(v)
		if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("machine %d vertex %d adjacency differs\n got %v\nwant %v", i, v, got, want)
		}
	}
}

// TestShardLoadMatchesRVP pins the loader against the definition of the
// random vertex partition — HomeOf and the graph's adjacency — over full
// loads, hosted sub-ranges and a prescribed-homes table.
func TestShardLoadMatchesRVP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 24; trial++ {
		n := 1 + rng.Intn(300)
		m := rng.Intn(n*(n-1)/4 + 1)
		g := graph.GNM(n, m, int64(trial))
		if trial%2 == 0 {
			g = graph.WithDistinctWeights(g, int64(trial))
		}
		k := []int{1, 3, 8}[trial%3]
		seed := uint64(trial) * 0x9e3779b97f4a7c15
		rvp := func(v int) int { return HomeOf(seed, k, v) }

		sp, err := LoadShards(g.Source(), k, seed)
		if err != nil {
			t.Fatalf("trial %d: LoadShards: %v", trial, err)
		}
		if sp.N() != n || sp.M() != g.M() {
			t.Fatalf("trial %d: got n=%d m=%d, want n=%d m=%d", trial, sp.N(), sp.M(), n, g.M())
		}
		for i := 0; i < k; i++ {
			checkShard(t, sp.Shard(i), g, i, rvp)
		}

		// A hosted sub-range holds the same shards and nothing else.
		lo := rng.Intn(k)
		hi := lo + 1 + rng.Intn(k-lo)
		sub, err := LoadShardsRange(g.Source(), k, rvp, lo, hi)
		if err != nil {
			t.Fatalf("trial %d: LoadShardsRange [%d,%d): %v", trial, lo, hi, err)
		}
		for i := lo; i < hi; i++ {
			checkShard(t, sub.Shard(i), g, i, rvp)
		}
		if lo > 0 {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("trial %d: Shard(%d) outside [%d,%d) did not panic", trial, lo-1, lo, hi)
					}
				}()
				sub.Shard(lo - 1)
			}()
		}

		// Prescribed placement (the lower-bound harness): any table works.
		homes := make([]int, n)
		for v := range homes {
			homes[v] = rng.Intn(k)
		}
		table := func(v int) int { return homes[v] }
		tp, err := LoadShardsRange(g.Source(), k, table, 0, k)
		if err != nil {
			t.Fatalf("trial %d: prescribed homes: %v", trial, err)
		}
		for i := 0; i < k; i++ {
			checkShard(t, tp.Shard(i), g, i, table)
		}
	}
}

func TestShardLoadUnsortedSourceIsSorted(t *testing.T) {
	// Edges delivered in scrambled, non-canonical order must still land
	// as sorted rows.
	edges := []graph.Edge{
		{U: 9, V: 2, W: 5}, {U: 0, V: 9, W: 1}, {U: 5, V: 2, W: 3},
		{U: 2, V: 0, W: 7}, {U: 9, V: 5, W: 2},
	}
	sp, err := LoadShards(graph.NewSliceSource(10, edges), 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromEdges(10, edges)
	for i := 0; i < 3; i++ {
		checkShard(t, sp.Shard(i), g, i, func(v int) int { return HomeOf(42, 3, v) })
	}
}

func TestShardLoadRejectsBadStreams(t *testing.T) {
	for name, edges := range map[string][]graph.Edge{
		"self-loop":    {{U: 1, V: 1, W: 1}},
		"out-of-range": {{U: 1, V: 50, W: 1}},
		"negative":     {{U: -2, V: 1, W: 1}},
		"duplicate":    {{U: 1, V: 2, W: 1}, {U: 2, V: 1, W: 9}},
	} {
		if _, err := LoadShards(graph.NewSliceSource(10, edges), 4, 1); err == nil {
			t.Errorf("%s: loader accepted bad stream", name)
		}
	}
	// A vertex count past graph.MaxN (a slice source or WithEdgeSource can
	// claim any) is an error before anything is sized by it.
	if _, err := LoadShards(graph.NewSliceSource(1<<62, nil), 2, 1); err == nil {
		t.Error("n = 2^62 accepted")
	}
	if _, err := LoadShards(graph.NewSliceSource(10, nil), 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := LoadShardsRange(graph.NewSliceSource(10, nil), 4, func(int) int { return 4 }, 0, 4); err == nil {
		t.Error("home outside [0,k) accepted")
	}
}

// TestShardLoadDuplicateErrorIsStable: a stream with several duplicate
// edges is refused with one message, naming the lowest vertex with a
// duplicate, however often it is loaded.
func TestShardLoadDuplicateErrorIsStable(t *testing.T) {
	edges := []graph.Edge{{U: 30, V: 41}, {U: 12, V: 20}, {U: 3, V: 7}, {U: 1, V: 2}}
	edges = append(edges, graph.Edge{U: 41, V: 30}, graph.Edge{U: 20, V: 12}, graph.Edge{U: 7, V: 3})
	msgs := map[string]bool{}
	for i := 0; i < 50; i++ {
		_, err := LoadShards(graph.NewSliceSource(50, edges), 1, 1)
		if err == nil {
			t.Fatal("loader accepted duplicate edges")
		}
		msgs[err.Error()] = true
	}
	if want := "kmachine: duplicate edge (3,7) in stream"; len(msgs) != 1 || !msgs[want] {
		t.Fatalf("50 loads gave %d messages %v, want only %q", len(msgs), msgs, want)
	}
}

// TestShardMutationMatchesOracle drives Insert / Remove / Has against a
// map oracle, on a loaded shard and on one NewShard built with nil rows
// over the same vertices: verdicts agree, rows stay sorted and hold exactly
// the oracle's edges, and — rows being carved from one arena per machine —
// a row that outgrows its slot never tramples its neighbours. A vertex
// homed elsewhere has no row: mutating it or asking for its row panics.
func TestShardMutationMatchesOracle(t *testing.T) {
	const n, k = 60, 3
	g := graph.GNM(n, 150, 11)
	sp, err := LoadShards(g.Source(), k, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := sp.Shard(1)
	if len(s.Owned()) == 0 {
		t.Fatal("machine 1 owns nothing")
	}
	loaded := make(map[int]map[int]int64) // owned vertex -> neighbor -> weight
	empty := make(map[int]map[int]int64)
	for _, u := range s.Owned() {
		loaded[u], empty[u] = make(map[int]int64), make(map[int]int64)
		for _, h := range g.Adj(u) {
			loaded[u][h.To] = h.W
		}
	}
	mutateAgainstOracle(t, "loaded", s, loaded, n)
	mutateAgainstOracle(t, "nil rows", NewShard(n, 1, s.Owned(), s.Home, nil), empty, n)

	other := sp.Shard(0).Owned()[0]
	for name, touch := range map[string]func(){
		"Insert": func() { s.Insert(other, graph.Half{To: 1, W: 1}) },
		"Adj":    func() { s.Adj(other) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of non-local vertex %d did not panic", name, other)
				}
			}()
			touch()
		}()
	}
}

// mutateAgainstOracle runs 4000 random Insert / Remove / Has steps on s,
// an n-vertex shard whose rows start as oracle's, checking every row
// against the oracle as it goes.
func mutateAgainstOracle(t *testing.T, name string, s *Shard, oracle map[int]map[int]int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 4000; step++ {
		u := s.Owned()[rng.Intn(len(s.Owned()))]
		to := rng.Intn(n)
		_, present := oracle[u][to]
		if s.Has(u, to) != present {
			t.Fatalf("%s, step %d: Has(%d,%d) = %v, oracle %v", name, step, u, to, !present, present)
		}
		if rng.Intn(3) > 0 { // insert-biased, so rows outgrow their arena slots
			w := int64(step)
			if s.Insert(u, graph.Half{To: to, W: w}) == present {
				t.Fatalf("%s, step %d: Insert(%d,%d) verdict wrong (present=%v)", name, step, u, to, present)
			}
			if !present {
				oracle[u][to] = w
			}
		} else {
			if s.Remove(u, to) != present {
				t.Fatalf("%s, step %d: Remove(%d,%d) verdict wrong (present=%v)", name, step, u, to, present)
			}
			delete(oracle[u], to)
		}
		if step%97 != 0 && step != 3999 {
			continue
		}
		for _, v := range s.Owned() {
			row := s.Adj(v)
			if !sort.SliceIsSorted(row, func(a, b int) bool { return row[a].To < row[b].To }) {
				t.Fatalf("%s, step %d: row %d unsorted: %v", name, step, v, row)
			}
			if len(row) != len(oracle[v]) {
				t.Fatalf("%s, step %d: row %d has %d halves, oracle %d", name, step, v, len(row), len(oracle[v]))
			}
			for _, h := range row {
				if w, ok := oracle[v][h.To]; !ok || w != h.W {
					t.Fatalf("%s, step %d: row %d holds %v, oracle (%d, %v)", name, step, v, h, w, ok)
				}
			}
		}
	}
}
