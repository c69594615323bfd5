package resident

// The batch/query job family under churn (the former internal/dynamic
// suite, now driving the engine directly).

import (
	"context"
	"reflect"
	"testing"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
)

// assertMatchesOracle checks a query against the sequential oracle: same
// component count, same partition (up to label renaming), a valid spanning
// forest, and the label-is-a-member invariant.
func assertMatchesOracle(t *testing.T, g *graph.Graph, q *QueryResult) {
	t.Helper()
	oracle, count := graph.Components(g)
	if q.Components != count {
		t.Fatalf("components = %d, oracle = %d", q.Components, count)
	}
	min := make(map[uint64]int)
	for v, l := range q.Labels {
		if m, ok := min[l]; !ok || v < m {
			min[l] = v
		}
	}
	for v, l := range q.Labels {
		if min[l] != oracle[v] {
			t.Fatalf("vertex %d: dynamic class min %d != oracle label %d", v, min[l], oracle[v])
		}
		if q.Labels[int(l)] != l {
			t.Fatalf("label %d is not a member of its own class", l)
		}
	}
	if len(q.Forest) != g.N()-count {
		t.Fatalf("forest has %d edges, want %d", len(q.Forest), g.N()-count)
	}
	uf := graph.NewUnionFind(g.N())
	for _, e := range q.Forest {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("forest edge (%d,%d) not in graph", e.U, e.V)
		}
		if !uf.Union(e.U, e.V) {
			t.Fatalf("forest cycle at (%d,%d)", e.U, e.V)
		}
	}
	if uf.Count() != count {
		t.Fatalf("forest spans %d components, oracle %d", uf.Count(), count)
	}
}

// replay runs a stream through an engine, checking every batch's result
// and every query against the oracle snapshot; it returns the per-batch
// results for further assertions.
func replay(t *testing.T, s *graph.Stream, cfg Config) ([]*BatchResult, []*QueryResult) {
	t.Helper()
	ctx := context.Background()
	sess := mustEngine(t, s.Initial, cfg)
	snap := s.Initial
	if q, err := sess.Query(ctx); err != nil {
		t.Fatal(err)
	} else {
		assertMatchesOracle(t, snap, q)
	}
	var brs []*BatchResult
	var qrs []*QueryResult
	for i, ops := range s.Batches {
		br, err := sess.ApplyBatch(ctx, ops)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if br.Applied != len(ops) || br.RejectedInserts+br.RejectedDeletes+br.RejectedInvalid != 0 {
			t.Fatalf("batch %d: clean stream saw rejections: %+v", i, br)
		}
		snap = graph.ApplyOps(snap, ops)
		q, err := sess.Query(ctx)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		assertMatchesOracle(t, snap, q)
		brs = append(brs, br)
		qrs = append(qrs, q)
	}
	return brs, qrs
}

func TestChurnStreamMatchesOracle(t *testing.T) {
	s := graph.RandomChurnStream(300, 600, 6, 30, 0.5, 17)
	replay(t, s, Config{Config: core.Config{K: 4, Seed: 11}})
}

func TestSlidingWindowMatchesOracle(t *testing.T) {
	s := graph.SlidingWindowStream(200, 420, 5, 40, 9)
	replay(t, s, Config{Config: core.Config{K: 4, Seed: 5}})
}

func TestSplitMergeAdversary(t *testing.T) {
	s := graph.SplitMergeStream(160, 4, 6, 3)
	_, qrs := replay(t, s, Config{Config: core.Config{K: 4, Seed: 23}})
	for i, q := range qrs {
		want := 1
		if i%2 == 0 {
			want = 4
		}
		if q.Components != want {
			t.Fatalf("batch %d: components = %d, want %d", i, q.Components, want)
		}
	}
	// Split batches delete forest edges, so the certificate must relabel a
	// nonempty dirty region.
	if qrs[0].RelabeledVertices == 0 {
		t.Fatal("split batch relabeled no vertices")
	}
}

func TestCoinMergeAndLevelWise(t *testing.T) {
	s := graph.RandomChurnStream(150, 300, 3, 20, 0.5, 29)
	replay(t, s, Config{Config: core.Config{K: 3, Seed: 7, CoinMerge: true}})
	replay(t, s, Config{Config: core.Config{K: 3, Seed: 7, CollapseLevelWise: true}})
}

func TestEdgeCases(t *testing.T) {
	ctx := context.Background()
	g := graph.Path(50) // 0-1-...-49
	sess := mustEngine(t, g, Config{Config: core.Config{K: 3, Seed: 2}})

	// Empty batch.
	br, err := sess.ApplyBatch(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if br.Applied != 0 || br.Rounds <= 0 {
		t.Fatalf("empty batch: %+v", br)
	}

	// Duplicate insert, delete of a non-existent edge, invalid ops.
	br, err = sess.ApplyBatch(ctx, []graph.EdgeOp{
		{U: 0, V: 1, W: 1},          // duplicate: path already has it
		{Del: true, U: 0, V: 2},     // absent edge
		{U: 7, V: 7, W: 1},          // self-loop
		{U: -1, V: 3, W: 1},         // out of range
		{Del: true, U: 10, V: 1000}, // out of range
	})
	if err != nil {
		t.Fatal(err)
	}
	want := BatchResult{Ops: 5, Applied: 0, RejectedInserts: 1, RejectedDeletes: 1, RejectedInvalid: 3, Rounds: br.Rounds}
	if *br != want {
		t.Fatalf("got %+v, want %+v", *br, want)
	}
	q, err := sess.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, g, q)

	// Delete-then-reinsert within one batch: net no-op on the graph, both
	// ops applied, and connectivity intact.
	br, err = sess.ApplyBatch(ctx, []graph.EdgeOp{
		{Del: true, U: 24, V: 25},
		{U: 24, V: 25, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.Applied != 2 || br.RejectedDeletes+br.RejectedInserts != 0 {
		t.Fatalf("delete-then-reinsert: %+v", br)
	}
	q, err = sess.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, g, q)
	if q.Components != 1 {
		t.Fatalf("components = %d, want 1", q.Components)
	}

	// Reinsert-after-query of a previously deleted forest edge.
	if _, err := sess.ApplyBatch(ctx, []graph.EdgeOp{{Del: true, U: 10, V: 11}}); err != nil {
		t.Fatal(err)
	}
	q, err = sess.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if q.Components != 2 {
		t.Fatalf("after split: components = %d, want 2", q.Components)
	}
	if _, err := sess.ApplyBatch(ctx, []graph.EdgeOp{{U: 10, V: 11, W: 1}}); err != nil {
		t.Fatal(err)
	}
	q, err = sess.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if q.Components != 1 {
		t.Fatalf("after reinsert: components = %d, want 1", q.Components)
	}
	assertMatchesOracle(t, graph.Path(50), q)
}

// TestDeterminism: identical seeds must reproduce identical results —
// including round counts — across separate sessions.
func TestDeterminism(t *testing.T) {
	s := graph.RandomChurnStream(200, 400, 4, 25, 0.5, 31)
	cfg := Config{Config: core.Config{K: 4, Seed: 19}}
	br1, qr1 := replay(t, s, cfg)
	br2, qr2 := replay(t, s, cfg)
	if !reflect.DeepEqual(br1, br2) {
		t.Fatalf("batch results differ across identical sessions:\n%+v\n%+v", br1, br2)
	}
	if !reflect.DeepEqual(qr1, qr2) {
		t.Fatal("query results differ across identical sessions")
	}
}

// TestIncrementalCheaperThanStatic is the acceptance property at test
// scale: after the initial build-up query, a 1%-churn batch query must
// cost strictly fewer rounds than a fresh static run on the same
// snapshot.
func TestIncrementalCheaperThanStatic(t *testing.T) {
	n, m, k := 1000, 3000, 8
	s := graph.RandomChurnStream(n, m, 3, m/100, 0.5, 41)
	ctx := context.Background()
	sess := mustEngine(t, s.Initial, Config{Config: core.Config{K: k, Seed: 47}})
	if _, err := sess.Query(ctx); err != nil { // initial build-up
		t.Fatal(err)
	}
	snap := s.Initial
	for i, ops := range s.Batches {
		if _, err := sess.ApplyBatch(ctx, ops); err != nil {
			t.Fatal(err)
		}
		snap = graph.ApplyOps(snap, ops)
		q, err := sess.Query(ctx)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesOracle(t, snap, q)
		static, err := core.Run(snap, core.Config{K: k, Seed: 47})
		if err != nil {
			t.Fatal(err)
		}
		if q.Rounds >= static.Metrics.Rounds {
			t.Fatalf("batch %d: incremental query cost %d rounds, static %d",
				i, q.Rounds, static.Metrics.Rounds)
		}
		t.Logf("batch %d: incremental %d rounds (%d phases, %d relabeled) vs static %d rounds",
			i, q.Rounds, q.Phases, q.RelabeledVertices, static.Metrics.Rounds)
	}
}

// TestSessionLifecycle checks Close idempotence and post-close errors.
func TestSessionLifecycle(t *testing.T) {
	ctx := context.Background()
	sess, err := New(graph.Cycle(30), Config{Config: core.Config{K: 2, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(ctx); err != nil {
		t.Fatal(err)
	}
	met, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if met.Rounds <= 0 || met.DroppedMessages != 0 {
		t.Fatalf("bad session metrics: %+v", met)
	}
	if _, err := sess.ApplyBatch(ctx, nil); err != ErrClosed {
		t.Fatalf("ApplyBatch after close: %v", err)
	}
	if _, err := sess.Query(ctx); err != ErrClosed {
		t.Fatalf("Query after close: %v", err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
