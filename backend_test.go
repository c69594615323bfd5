package kmgraph

// The backend axis: the same stored graph behind a fleet-backed Cluster
// (two in-process kmworkers), a resident Cluster, and the one-shot hosts.
// Placement is a constructor argument and one engine serves both kinds of
// Cluster, so everything a caller can see — answers, Metrics, job counts,
// observer events, cancellation — must agree between them, and with
// sequential oracles that share no code with either.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"kmgraph/internal/core"
	"kmgraph/internal/dist"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/resident"
)

// startTestWorkers launches count in-process kmworkers.
func startTestWorkers(t *testing.T, count int) []string {
	t.Helper()
	addrs := make([]string, count)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w := dist.NewWorker(ln, dist.WorkerOptions{MeshTimeout: 30 * time.Second, HeartbeatInterval: 20 * time.Millisecond})
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
	}
	return addrs
}

func intLabels(ls []uint64) []int {
	out := make([]int, len(ls))
	for i, l := range ls {
		out[i] = int(l)
	}
	return out
}

func TestBackendAxis(t *testing.T) {
	tieHeavy := NewGraphBuilder(500) // three distinct weights over 1500 edges
	for i, e := range GNM(500, 1500, 7).Edges() {
		tieHeavy.AddEdge(e.U, e.V, int64(1+i%3))
	}
	families := []struct {
		name string
		g    *Graph
	}{
		{"gnm", WithDistinctWeights(GNM(600, 1800, 3), 4)},
		{"small-components", WithDistinctWeights(DisjointComponents(600, 40, 0.5, 5), 6)},
		{"tie-heavy", tieHeavy.Build()},
		{"all-equal", GNM(300, 900, 8)},
		{"star", WithDistinctWeights(Star(300), 9)},
		{"long-path", Path(400)},
	}
	addrs := startTestWorkers(t, 2)
	const k, seed = 4, int64(11)
	ctx := context.Background()

	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			g := fam.g
			path := filepath.Join(t.TempDir(), "g.kmgs")
			if err := WriteStore(path, g.Source()); err != nil {
				t.Fatal(err)
			}
			oracleLabels, oracleCount := ComponentsOracle(g)
			oracleForest, oracleWeight := MSTOracle(g)
			slices.SortFunc(oracleForest, func(a, b Edge) int { // canonical U < V: the edge ID order, as a result lists them
				return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
			})

			// The MST matrix: at every k and seed the one-shot, resident and
			// fleet hosts return Kruskal's forest under (weight, edge ID), edge
			// for edge, at the same model cost — a fresh residency's load plus
			// its one job being the one-shot run.
			for _, mk := range []int{2, 4, 16} {
				for ms := seed; ms < seed+3; ms++ {
					cell := fmt.Sprintf("MST k=%d seed=%d", mk, ms)
					one, err := MST(g, MSTConfig{Config: Config{K: mk, Seed: ms}})
					if err != nil {
						t.Fatal(cell, err)
					}
					want := metricsFingerprint(&one.Metrics)
					for _, host := range []struct {
						name string
						open func() (*Cluster, error)
					}{
						{"resident", func() (*Cluster, error) { return OpenCluster(path, WithK(mk), WithSeed(ms)) }},
						{"fleet", func() (*Cluster, error) {
							return OpenFleet(FleetSpec{Source: "store:" + path, Addrs: addrs}, WithK(mk), WithSeed(ms))
						}},
					} {
						c, err := host.open()
						if err != nil {
							t.Fatal(cell, host.name, err)
						}
						res, err := c.MST(ctx)
						total := c.Metrics().Total
						c.Close()
						if err != nil {
							t.Fatal(cell, host.name, err)
						}
						if !slices.Equal(res.Edges, oracleForest) {
							t.Errorf("%s: %s MST is not Kruskal's forest (%d edges, weight %d; want %d, %d)",
								cell, host.name, len(res.Edges), res.TotalWeight, len(oracleForest), oracleWeight)
						}
						if got := metricsFingerprint(&total); got != want {
							t.Errorf("%s: %s Metrics fingerprint %d, one-shot host's %d", cell, host.name, got, want)
						}
					}
					if !slices.Equal(one.Edges, oracleForest) {
						t.Errorf("%s: one-shot MST is not Kruskal's forest", cell)
					}
				}
			}

			// The fleet and a resident Cluster side by side: the same jobs in
			// the same order must give the same answers at the same cost, every
			// family and every batch of a churn stream included.
			var mu sync.Mutex
			var starts, dones int
			fleet, err := OpenFleet(FleetSpec{Source: "store:" + path, Addrs: addrs},
				WithK(k), WithSeed(seed), WithObserver(func(ev ClusterEvent) {
					mu.Lock()
					defer mu.Unlock()
					switch {
					case ev.Job == "load":
					case ev.Done:
						dones++
					case ev.Phase < 0:
						starts++
					}
				}))
			if err != nil {
				t.Fatal(err)
			}
			defer fleet.Close()
			resident, err := OpenCluster(path, WithK(k), WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			defer resident.Close()
			if fleet.N() != g.N() || fleet.K() != k || fleet.Epoch() != 0 {
				t.Errorf("fleet cluster: n=%d k=%d epoch=%d, want %d, %d, 0", fleet.N(), fleet.K(), fleet.Epoch(), g.N(), k)
			}
			jobs := 0
			same := func(job string, run func(c *Cluster) (any, error)) any {
				t.Helper()
				jobs++
				fv, ferr := run(fleet)
				rv, rerr := run(resident)
				if ferr != nil || rerr != nil {
					t.Fatalf("%s: fleet err %v, resident err %v", job, ferr, rerr)
				}
				if !reflect.DeepEqual(fv, rv) {
					t.Errorf("%s: fleet answered %+v, the resident Cluster %+v", job, fv, rv)
				}
				ft, rt := fleet.Metrics().Total, resident.Metrics().Total
				if metricsFingerprint(&ft) != metricsFingerprint(&rt) {
					t.Errorf("%s: fleet Metrics fingerprint %d, the resident Cluster's %d",
						job, metricsFingerprint(&ft), metricsFingerprint(&rt))
				}
				return fv
			}
			q := same("connectivity", func(c *Cluster) (any, error) { return c.Connectivity(ctx) }).(*QueryResult)
			if q.Components != oracleCount || !sameLabeling(intLabels(q.Labels), oracleLabels) {
				t.Errorf("fleet connectivity: %d components, union-find %d (or the label partition differs)", q.Components, oracleCount)
			}
			same("spanning tree", func(c *Cluster) (any, error) { return c.SpanningTree(ctx) })
			if m := same("mst", func(c *Cluster) (any, error) { return c.MST(ctx) }).(*MSTResult); m.TotalWeight != oracleWeight {
				t.Errorf("fleet MST weight %d, Kruskal's %d", m.TotalWeight, oracleWeight)
			}
			same("mincut", func(c *Cluster) (any, error) { return c.ApproxMinCut(ctx, WithMaxLevel(6)) })
			var cut []Edge
			for _, e := range g.Edges() {
				if (e.U < g.N()/2) != (e.V < g.N()/2) {
					cut = append(cut, e)
				}
			}
			e0 := g.Edges()[0]
			for _, v := range []struct {
				p    Problem
				args VerifyArgs
			}{
				{ProblemSpanningConnectedSubgraph, VerifyArgs{H: oracleForest}},
				{ProblemCut, VerifyArgs{Cut: cut}},
				{ProblemSTConnectivity, VerifyArgs{S: 0, T: g.N() - 1}},
				{ProblemEdgeOnAllPaths, VerifyArgs{S: e0.U, T: e0.V, E: e0}},
				{ProblemSTCut, VerifyArgs{S: 0, T: g.N() - 1, Cut: cut}},
				{ProblemBipartiteness, VerifyArgs{}},
				{ProblemCycleContainment, VerifyArgs{}},
				{ProblemECycleContainment, VerifyArgs{E: e0}},
			} {
				same("verify "+v.p.String(), func(c *Cluster) (any, error) { return c.Verify(ctx, v.p, v.args) })
			}
			stream := RandomChurnStream(g.N(), g.M(), 5, 40, 0.5, seed)
			snap := g
			for i, ops := range stream.Batches {
				same(fmt.Sprintf("batch %d", i), func(c *Cluster) (any, error) { return c.ApplyBatch(ctx, ops) })
				snap = ApplyOps(snap, ops)
				q := same(fmt.Sprintf("connectivity after batch %d", i), func(c *Cluster) (any, error) { return c.Connectivity(ctx) }).(*QueryResult)
				if labels, count := ComponentsOracle(snap); q.Components != count || !sameLabeling(intLabels(q.Labels), labels) {
					t.Errorf("batch %d: fleet connectivity %d components, union-find %d (or the partition differs)", i, q.Components, count)
				}
			}
			if fleet.Epoch() == 0 || fleet.Epoch() != resident.Epoch() {
				t.Errorf("after the churn stream: fleet epoch %d, resident %d", fleet.Epoch(), resident.Epoch())
			}
			if fm, rm := fleet.Metrics(), resident.Metrics(); !reflect.DeepEqual(fm.Banks, rm.Banks) || fm.Edges != rm.Edges || fm.LoadRounds != rm.LoadRounds {
				t.Errorf("fleet Metrics %+v, the resident Cluster's %+v", fm, rm)
			}
			mu.Lock()
			defer mu.Unlock()
			if n := fleet.Metrics().Jobs; n != jobs || starts != jobs || dones != jobs {
				t.Errorf("after %d jobs: Metrics().Jobs=%d, observer saw %d starts / %d dones", jobs, n, starts, dones)
			}
		})
	}
}

// TestFleetResidency: a fleet-backed Cluster pays its shard load once, on
// its first job — the second runs on the workers' kept machines, at the
// resident Cluster's incremental cost — and its workers keep one residency
// between the jobs.
func TestFleetResidency(t *testing.T) {
	g := GNM(2000, 6000, 5)
	path := filepath.Join(t.TempDir(), "g.kmgs")
	if err := WriteStore(path, g.Source()); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	loads := 0
	ctx := context.Background()
	fleet, err := OpenFleet(FleetSpec{Source: "store:" + path, Addrs: startTestWorkers(t, 2)}, WithK(8), WithSeed(3),
		WithObserver(func(ev ClusterEvent) {
			mu.Lock()
			defer mu.Unlock()
			if ev.Job == "load" {
				loads++
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if met := fleet.Metrics(); met.LoadRounds != 0 || met.Total.Rounds != 0 {
		t.Fatalf("before the first job: %+v, want nothing loaded", met)
	}
	first, err := fleet.Connectivity(ctx)
	if err != nil {
		t.Fatal(err)
	}
	load := fleet.Metrics().LoadRounds
	second, err := fleet.Connectivity(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if met := fleet.Metrics(); loads != 1 || load == 0 || met.LoadRounds != load ||
		met.Total.Rounds != load+first.Rounds+second.Rounds {
		t.Errorf("two jobs: %d loads, %d load rounds (%d after the first job), total %d; want one load and total = load + %d + %d",
			loads, met.LoadRounds, load, met.Total.Rounds, first.Rounds, second.Rounds)
	}
	if second.Rounds >= first.Rounds || second.Components != first.Components {
		t.Errorf("repeat query: %d rounds / %d components after %d / %d; want the incremental re-query",
			second.Rounds, second.Components, first.Rounds, first.Components)
	}
}

// TestFleetClusterCancellation: a fleet job whose context is cancelled
// while the workers' engines are running (its first heartbeat) returns
// ctx.Err() promptly — the machines agree on the Bye at a phase boundary —
// and leaves the Cluster serviceable: the next job runs on the same
// residency (opened by an empty batch before), with no second shard load.
func TestFleetClusterCancellation(t *testing.T) {
	const n, m, gs = 8000, 24000, int64(3)
	want, err := ComponentsFromSourceOracle(StreamGNM(n, m, gs))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var cancelRunning context.CancelFunc // armed for the job to cancel
	spec := FleetSpec{Source: fmt.Sprintf("gnm:%d:%d:%d", n, m, gs), Addrs: startTestWorkers(t, 2)}
	spec.Coord.Progress = func(_ int, rounds uint64) {
		mu.Lock()
		defer mu.Unlock()
		if rounds > 0 && cancelRunning != nil {
			cancelRunning()
		}
	}
	loads := 0
	fleet, err := OpenFleet(spec, WithK(4), WithSeed(5), WithObserver(func(ev ClusterEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Job == "load" {
			loads++
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if _, err := fleet.ApplyBatch(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	load := fleet.Metrics().Load

	ctx, cancel := context.WithCancel(context.Background())
	mu.Lock()
	cancelRunning = cancel
	mu.Unlock()
	if _, err := fleet.Connectivity(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job: err = %v, want context.Canceled", err)
	}
	mu.Lock()
	cancelRunning = nil
	mu.Unlock()
	if queued, running := fleet.Queue(); queued != 0 || running != 0 {
		t.Errorf("queue after a cancelled job: %d queued, %d running", queued, running)
	}
	q, err := fleet.Connectivity(context.Background())
	if err != nil || q.Components != want {
		t.Fatalf("job after a cancelled one: %v components, err %v; want %d", q, err, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if met := fleet.Metrics(); met.Jobs != 3 || met.Queries != 1 || loads != 1 || !reflect.DeepEqual(met.Load, load) {
		t.Errorf("after a batch, a cancelled and a clean job: %d jobs, %d queries, %d loads; want 3, 1 and the one load",
			met.Jobs, met.Queries, loads)
	}
}

// TestOneFleetJobPath fails if a serving layer or a CLI grows its own
// distributed job path again: only a Cluster (through dist.OpenFleet) and the
// benchmark module (bench/), which measures the coordinator itself, may
// call dist.Run*.
func TestOneFleetJobPath(t *testing.T) {
	call := regexp.MustCompile(`\bdist\.Run[A-Z]\w*\(`)
	var sites []string
	for _, dir := range []string{"internal/server", "cmd/kmrun", "cmd/kmserve", "cmd/kmbench", "internal/cli"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files under %s (%v)", dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				if call.MatchString(line) {
					sites = append(sites, fmt.Sprintf("%s:%d: %s", path, i+1, strings.TrimSpace(line)))
				}
			}
		}
	}
	if len(sites) != 0 {
		t.Fatalf("distributed jobs bypass the Cluster:\n%s", strings.Join(sites, "\n"))
	}
}

// TestNotConvergedOnEveryHost: a job that runs out of phases answers wrong
// — 208 components where the oracle counts 3, a 304-edge "spanning" forest
// — so every host must say so: the partial result comes back with
// ErrNotConverged from the one-shot drivers and from the one engine, whose
// machines are goroutines or a fleet's alike (the one-shot and the fleet
// hosts used to return it with a nil error, and kmserve would have cached
// it).
func TestNotConvergedOnEveryHost(t *testing.T) {
	g := WithDistinctWeights(GNM(400, 1200, 1), 2)
	ctx := context.Background()
	cfg := Config{K: 4, Seed: 1, MaxPhases: 1}
	rcfg := resident.Config{Config: core.Config{K: 4, Seed: 1, MaxPhases: 1}}
	type engine interface {
		Query(context.Context) (*resident.QueryResult, error)
		MST(context.Context, bool) (*core.MSTResult, error)
		Close() (*kmachine.Metrics, error)
	}
	onEngine := func(e engine, err error) (conn, mst bool, connErr, mstErr error) {
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		q, connErr := e.Query(ctx)
		f, mstErr := e.MST(ctx, false)
		return q != nil && q.Phases == 1, f != nil && f.Phases == 1, connErr, mstErr
	}
	hosts := map[string]func() (conn, mst bool, connErr, mstErr error){
		"one-shot": func() (bool, bool, error, error) {
			r, connErr := core.Run(g, cfg)
			f, mstErr := core.RunMST(g, core.MSTConfig{Config: cfg})
			return r != nil && r.Phases == 1, f != nil && f.Phases == 1, connErr, mstErr
		},
		"resident": func() (bool, bool, error, error) { return onEngine(resident.New(g, rcfg)) },
		"fleet": func() (bool, bool, error, error) {
			path := filepath.Join(t.TempDir(), "g.kmgs")
			if err := WriteStore(path, g.Source()); err != nil {
				t.Fatal(err)
			}
			return onEngine(dist.OpenFleet(dist.FleetSpec{Source: "store:" + path, Addrs: startTestWorkers(t, 2)}, rcfg))
		},
	}
	for name, run := range hosts {
		conn, mst, connErr, mstErr := run()
		if !errors.Is(connErr, ErrNotConverged) || !conn {
			t.Errorf("%s connectivity at one phase: partial result %v, err %v; want a 1-phase result and ErrNotConverged", name, conn, connErr)
		}
		if !errors.Is(mstErr, ErrNotConverged) || !mst {
			t.Errorf("%s MST at one phase: partial result %v, err %v; want a 1-phase forest and ErrNotConverged", name, mst, mstErr)
		}
	}
}
