package resident

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/sketch"
	"kmgraph/internal/verify"
)

func mustEngine(t *testing.T, g *graph.Graph, cfg Config) *Engine {
	t.Helper()
	e, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestOneClusterServesEveryFamily is the acceptance property: one resident
// cluster serves connectivity, MST, min-cut, multiple verification
// problems, and a dynamic batch — with the graph-load rounds paid exactly
// once (metrics-based: the cumulative rounds telescope as load + the sum
// of per-job rounds).
func TestOneClusterServesEveryFamily(t *testing.T) {
	ctx := context.Background()
	g := graph.WithDistinctWeights(graph.RandomConnected(400, 900, 7), 8)
	e := mustEngine(t, g, Config{K: 5, Seed: 21})

	load := e.Metrics()
	if load.LoadRounds <= 0 {
		t.Fatalf("load rounds = %d, want > 0", load.LoadRounds)
	}
	if load.Total.Rounds != load.LoadRounds {
		t.Fatalf("pre-job total %d != load %d", load.Total.Rounds, load.LoadRounds)
	}
	jobRounds := 0

	// Connectivity (incremental query path).
	q, err := e.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, oracleCC := graph.Components(g)
	if q.Components != oracleCC {
		t.Fatalf("components = %d, oracle %d", q.Components, oracleCC)
	}
	jobRounds += q.Rounds

	// MST on the same residency.
	mst, err := e.MST(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	_, oracleW := graph.KruskalMST(g)
	if mst.TotalWeight != oracleW {
		t.Fatalf("MST weight = %d, oracle %d", mst.TotalWeight, oracleW)
	}
	jobRounds += mst.Metrics.Rounds

	// Min-cut on the same residency.
	mc, err := e.MinCut(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Level < 1 || mc.Estimate <= 0 {
		t.Fatalf("min-cut on a connected graph: %+v", mc)
	}
	jobRounds += mc.Metrics.Rounds

	// Two verification problems on the same residency.
	vb, err := e.Verify(ctx, verify.Bipartiteness, VerifyArgs{})
	if err != nil {
		t.Fatal(err)
	}
	if vb.Holds != graph.IsBipartite(g) {
		t.Fatalf("bipartiteness = %v, oracle %v", vb.Holds, graph.IsBipartite(g))
	}
	jobRounds += vb.Metrics.Rounds

	vs, err := e.Verify(ctx, verify.STConnectivity, VerifyArgs{S: 0, T: g.N() - 1})
	if err != nil {
		t.Fatal(err)
	}
	if !vs.Holds {
		t.Fatal("s-t connectivity on a connected graph = false")
	}
	jobRounds += vs.Metrics.Rounds

	// A dynamic batch, then a (cheap, incremental) re-query.
	br, err := e.ApplyBatch(ctx, []graph.EdgeOp{{U: 0, V: g.N() / 2, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if br.Applied+br.RejectedInserts != 1 {
		t.Fatalf("batch: %+v", br)
	}
	jobRounds += br.Rounds
	q2, err := e.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Components != oracleCC {
		t.Fatalf("post-batch components = %d, oracle %d", q2.Components, oracleCC)
	}
	jobRounds += q2.Rounds

	// The residency contract: total rounds = load (once) + per-job costs.
	m := e.Metrics()
	if m.LoadRounds != load.LoadRounds {
		t.Fatalf("load rounds changed: %d -> %d (graph re-loaded?)", load.LoadRounds, m.LoadRounds)
	}
	if m.Total.Rounds != m.LoadRounds+jobRounds {
		t.Fatalf("total rounds %d != load %d + jobs %d", m.Total.Rounds, m.LoadRounds, jobRounds)
	}
	if m.Jobs != 7 {
		t.Fatalf("jobs = %d, want 7", m.Jobs)
	}
}

// TestPhaseDriverStopRuleOnResidency pins what each outcome of the shared
// phase driver (core.Merger.RunPhases) means to a resident job: exhausted
// phases surface as ErrNotConverged with the engine still usable — a
// retried query resumes from the certificate and finishes — and a
// cancellation observed mid-run stops the job at the phase boundary
// without wedging the cluster.
func TestPhaseDriverStopRuleOnResidency(t *testing.T) {
	g := graph.GNM(300, 700, 71)
	_, oracleCC := graph.Components(g)

	t.Run("exhausted", func(t *testing.T) {
		e := mustEngine(t, g, Config{K: 4, Seed: 5, MaxPhasesPerQuery: 1})
		ctx := context.Background()
		if _, err := e.Verify(ctx, verify.CycleContainment, VerifyArgs{}); !errors.Is(err, core.ErrNotConverged) {
			t.Fatalf("derived run capped at one phase: err = %v, want ErrNotConverged", err)
		}
		q, err := e.Query(ctx)
		if !errors.Is(err, core.ErrNotConverged) || q == nil || q.Phases != 1 {
			t.Fatalf("query capped at one phase: result %+v, err %v; want a 1-phase partial result and ErrNotConverged", q, err)
		}
		for try := 0; err != nil; try++ {
			if try == 64 || !errors.Is(err, core.ErrNotConverged) {
				t.Fatalf("retry %d: %v", try, err)
			}
			q, err = e.Query(ctx)
		}
		assertMatchesOracle(t, g, q)
	})

	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := Config{K: 4, Seed: 5}
		cfg.Observer = func(ev Event) {
			if ev.Job == "mincut" && ev.Phase == 0 {
				cancel() // mid-run: between phase 0 and phase 1 of the first derived run
			}
		}
		e := mustEngine(t, g, cfg)
		if _, err := e.MinCut(ctx, 0, 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled min-cut: err = %v, want context.Canceled", err)
		}
		cyc, err := e.Verify(context.Background(), verify.CycleContainment, VerifyArgs{})
		if err != nil {
			t.Fatal(err)
		}
		if want := g.M() > g.N()-oracleCC; cyc.Holds != want {
			t.Fatalf("post-cancel cycle containment = %v, want %v", cyc.Holds, want)
		}
	})
}

// TestTinySketchParamsStarveMST is the MST counterpart of core's
// TestTinySketchParamsDegradeGracefully, starved on purpose: sketches of
// one repetition and two buckets (so sums fail to sample, decode in part
// and collide) and one elimination iteration per phase (so a component
// must finish by a full decode or an empty re-sketch, or be truncated).
// Whatever that does to the cost, an edge the job returns is an edge of
// the Kruskal forest, and a forest that is not whole is reported as
// ErrNotConverged.
func TestTinySketchParamsStarveMST(t *testing.T) {
	var failures int64
	var whole, partial int
	for seed := int64(1); seed <= 6; seed++ {
		g := graph.WithUniformWeights(graph.RandomConnected(120, 360, seed), 40, seed+10) // ties too
		p := sketch.DefaultParams(g.N())
		p.Reps, p.Buckets = 1, 2
		cfg := Config{K: 4, Seed: seed, Sketch: p, MaxElimIters: 1}
		if seed%2 == 0 {
			cfg.MaxPhasesPerQuery = 6 // too few for a starved job: the not-converged cell
		}
		e := mustEngine(t, g, cfg)
		res, err := e.MST(context.Background(), false)
		if err != nil && !errors.Is(err, core.ErrNotConverged) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		forest, total := graph.KruskalMST(g)
		want := make(map[uint64]int64, len(forest))
		for _, fe := range forest {
			want[graph.EdgeID(fe.U, fe.V, g.N())] = fe.W
		}
		for _, me := range res.Edges {
			if w, ok := want[graph.EdgeID(me.U, me.V, g.N())]; !ok || w != me.W {
				t.Fatalf("seed %d: returned edge %+v is not in the Kruskal forest", seed, me)
			}
		}
		if err == nil {
			whole++
			if len(res.Edges) != len(forest) || res.TotalWeight != total {
				t.Fatalf("seed %d: converged with %d edges of weight %d, Kruskal has %d of %d", seed, len(res.Edges), res.TotalWeight, len(forest), total)
			}
		} else {
			partial++
		}
		failures += res.SketchFailures
		t.Logf("seed %d: %d/%d edges, %d phases, %d elimination iterations, %d sketch failures, err %v",
			seed, len(res.Edges), len(forest), res.Phases, res.ElimIters, res.SketchFailures, err)
	}
	if failures == 0 || whole == 0 || partial == 0 {
		t.Fatalf("%d sketch failures, %d whole forests, %d not converged: the cell starves nothing", failures, whole, partial)
	}
}

// TestMSTTracksBatches: MST jobs observe the live graph — after deleting
// the lightest edge, the MST recomputes against the mutated residency.
func TestMSTTracksBatches(t *testing.T) {
	ctx := context.Background()
	g := graph.WithDistinctWeights(graph.RandomConnected(150, 400, 31), 32)
	e := mustEngine(t, g, Config{K: 3, Seed: 37})
	mst1, err := e.MST(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	drop := mst1.Edges[0]
	if _, err := e.ApplyBatch(ctx, []graph.EdgeOp{{Del: true, U: drop.U, V: drop.V}}); err != nil {
		t.Fatal(err)
	}
	mst2, err := e.MST(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	snap := graph.ApplyOps(g, []graph.EdgeOp{{Del: true, U: drop.U, V: drop.V}})
	_, oracleW := graph.KruskalMST(snap)
	if mst2.TotalWeight != oracleW {
		t.Fatalf("post-delete MST weight = %d, oracle %d", mst2.TotalWeight, oracleW)
	}
	if mst2.TotalWeight == mst1.TotalWeight {
		t.Fatal("deleting an MST edge did not change the MST weight")
	}
}

// TestStrongOutputMST: the strong output criterion delivers every MST edge
// to both endpoints' home machines.
func TestStrongOutputMST(t *testing.T) {
	g := graph.WithDistinctWeights(graph.RandomConnected(120, 300, 41), 42)
	e := mustEngine(t, g, Config{K: 3, Seed: 43})
	mst, err := e.MST(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if mst.VertexEdges == nil {
		t.Fatal("strong output returned no vertex edges")
	}
	count := make(map[uint64]bool)
	for v, es := range mst.VertexEdges {
		for _, ed := range es {
			if ed.U != v && ed.V != v {
				t.Fatalf("vertex %d holds non-incident edge %+v", v, ed)
			}
			count[graph.EdgeID(ed.U, ed.V, g.N())] = true
		}
	}
	if len(count) != len(mst.Edges) {
		t.Fatalf("strong output covers %d edges, MST has %d", len(count), len(mst.Edges))
	}
}

// TestCancellationMidPhase cancels a job deterministically after its first
// phase event and checks (a) the job returns the context error, (b) the
// cluster is not wedged: the same engine serves subsequent jobs correctly.
// Run under -race, this also exercises the cancel-flag publication path.
func TestCancellationMidPhase(t *testing.T) {
	g := graph.WithDistinctWeights(graph.RandomConnected(500, 1200, 51), 52)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{K: 4, Seed: 53}
	cfg.Observer = func(ev Event) {
		if ev.Job == "mst" && ev.Phase == 0 {
			cancel() // fires mid-job, between phase 0 and phase 1
		}
	}
	e := mustEngine(t, g, cfg)

	if _, err := e.MST(ctx, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled MST: err = %v, want context.Canceled", err)
	}

	// The engine must still serve jobs after the cancellation.
	q, err := e.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, oracleCC := graph.Components(g)
	if q.Components != oracleCC {
		t.Fatalf("post-cancel components = %d, oracle %d", q.Components, oracleCC)
	}
	mst, err := e.MST(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	_, oracleW := graph.KruskalMST(g)
	if mst.TotalWeight != oracleW {
		t.Fatalf("post-cancel MST weight = %d, oracle %d", mst.TotalWeight, oracleW)
	}
}

// TestCancelledQueryKeepsEngineConsistent cancels a connectivity query
// mid-phase and checks the certificate/labels stay consistent: the next
// uncancelled query answers the oracle.
func TestCancelledQueryKeepsEngineConsistent(t *testing.T) {
	g := graph.GNM(400, 800, 61)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{K: 4, Seed: 63}
	cfg.Observer = func(ev Event) {
		if ev.Job == "connectivity" && ev.Seq == 1 && ev.Phase == 0 {
			cancel()
		}
	}
	e := mustEngine(t, g, cfg)
	if _, err := e.Query(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: err = %v, want context.Canceled", err)
	}
	q, err := e.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	oracle, cc := graph.Components(g)
	if q.Components != cc {
		t.Fatalf("post-cancel components = %d, oracle %d", q.Components, cc)
	}
	min := make(map[uint64]int)
	for v, l := range q.Labels {
		if m, ok := min[l]; !ok || v < m {
			min[l] = v
		}
	}
	for v, l := range q.Labels {
		if min[l] != oracle[v] {
			t.Fatalf("vertex %d misclassified after cancelled query", v)
		}
	}
}

// TestQueuedJobCancellation: a job whose context is cancelled while queued
// behind a running job never executes.
func TestQueuedJobCancellation(t *testing.T) {
	g := graph.GNM(300, 700, 71)
	e := mustEngine(t, g, Config{K: 3, Seed: 73})

	hold, err := e.begin(context.Background(), "hold") // occupy the queue slot
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := e.Query(ctx)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the query join the queue
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued job: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued job did not observe cancellation")
	}
	hold.end(nil)
	if _, err := e.Query(context.Background()); err != nil {
		t.Fatalf("query after queue release: %v", err)
	}
}

// TestConcurrentCallers hammers one engine from many goroutines; the job
// queue must serialize them without races or deadlocks (run under -race).
func TestConcurrentCallers(t *testing.T) {
	g := graph.GNM(200, 500, 81)
	e := mustEngine(t, g, Config{K: 3, Seed: 83})
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if _, err := e.Query(ctx); err != nil {
				errs <- err
			}
			if _, err := e.ApplyBatch(ctx, []graph.EdgeOp{{U: i, V: 100 + i, W: 1}}); err != nil {
				errs <- err
			}
			if _, err := e.Verify(ctx, verify.CycleContainment, VerifyArgs{}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCloseReleasesGoroutines: an engine leaves no goroutines behind after
// Close, including after a cancelled job.
func TestCloseReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	g := graph.WithDistinctWeights(graph.RandomConnected(300, 700, 91), 92)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{K: 4, Seed: 93}
	cfg.Observer = func(ev Event) {
		if ev.Job == "mst" && ev.Phase == 0 {
			cancel()
		}
	}
	e, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.MST(ctx, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	met, err := e.Close()
	if err != nil {
		t.Fatal(err)
	}
	if met.Rounds <= 0 || met.DroppedMessages != 0 {
		t.Fatalf("bad close metrics: %+v", met)
	}
	waitForGoroutines(t, base)
}

// waitForGoroutines polls until the goroutine count is back at base, and
// fails with a stack dump if it is not within five seconds.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(10 * time.Millisecond)
		runtime.GC()
	}
}

// TestObserverSeesPhases: the observer receives load, per-phase, and done
// events with monotone rounds.
func TestObserverSeesPhases(t *testing.T) {
	g := graph.GNM(200, 500, 95)
	var mu sync.Mutex
	var events []Event
	cfg := Config{K: 3, Seed: 97}
	cfg.Observer = func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	e := mustEngine(t, g, cfg)
	if _, err := e.Query(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 || events[0].Job != "load" || !events[0].Done {
		t.Fatalf("first event: %+v", events)
	}
	phases, lastRound := 0, 0
	for _, ev := range events {
		if ev.Round < lastRound {
			t.Fatalf("rounds went backwards: %+v", ev)
		}
		lastRound = ev.Round
		if ev.Job == "connectivity" && ev.Phase >= 0 {
			phases++
		}
	}
	if phases == 0 {
		t.Fatal("no phase events observed")
	}
	last := events[len(events)-1]
	if last.Job != "connectivity" || !last.Done || last.Err != "" {
		t.Fatalf("last event: %+v", last)
	}
}

// TestResidentQueryEquivalence pins the "static run = one-shot session"
// property: a fresh engine's first query answers exactly what the static
// algorithm and the oracle answer.
func TestResidentQueryEquivalence(t *testing.T) {
	g := graph.GNM(350, 650, 99)
	e := mustEngine(t, g, Config{K: 5, Seed: 101})
	q, err := e.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, g, q)
	static, err := core.Run(g, core.Config{K: 5, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	if q.Components != static.Components {
		t.Fatalf("resident %d components, static %d", q.Components, static.Components)
	}
}

// TestMinCutRefusesBadOptions: a negative trial count, or a max level
// outside [0, 64], is a configuration error, refused before the job
// starts, not a search that skips its levels and returns a made-up
// estimate. The residency serves the default search afterwards.
func TestMinCutRefusesBadOptions(t *testing.T) {
	ctx := context.Background()
	e := mustEngine(t, graph.GNM(200, 2000, 3), Config{K: 4, Seed: 1})
	before := e.Metrics()
	for _, o := range []struct{ trials, maxLevel int }{{-1, 0}, {0, -3}, {0, 65}, {-2, -2}} {
		if res, err := e.MinCut(ctx, o.trials, o.maxLevel); !errors.Is(err, ErrBadConfig) {
			t.Errorf("MinCut(trials %d, max level %d) = %+v, %v; want ErrBadConfig", o.trials, o.maxLevel, res, err)
		}
	}
	if after := e.Metrics(); after.Jobs != before.Jobs || after.Total.Rounds != before.Total.Rounds {
		t.Errorf("refused searches ran: jobs %d -> %d, rounds %d -> %d",
			before.Jobs, after.Jobs, before.Total.Rounds, after.Total.Rounds)
	}
	if mc, err := e.MinCut(ctx, 0, 0); err != nil || mc.Level < 1 {
		t.Fatalf("default min-cut after the refusals: %+v, %v", mc, err)
	}
}
