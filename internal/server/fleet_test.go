package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kmgraph"
	"kmgraph/internal/dist"
	"kmgraph/internal/graph"
	"kmgraph/internal/store"
	"kmgraph/internal/telemetry"
)

// startFleetWorker launches one in-process dist worker and returns it
// with its dialable address.
func startFleetWorker(t *testing.T) (*dist.Worker, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := dist.NewWorker(ln, dist.WorkerOptions{
		MeshTimeout:       30 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	go w.Serve()
	t.Cleanup(func() { w.Close() })
	return w, w.Addr()
}

// The fleet fixture: one weighted graph in a kmgs store every worker
// loads its shard from, and a resident Cluster on the same graph, k and
// seed, whose answers a fleet's must equal job for job.
const (
	fleetK    = 4
	fleetSeed = int64(9)
)

func fleetGraph() *graph.Graph {
	return graph.WithDistinctWeights(graph.GNM(4000, 12000, 3), 4)
}

// residentTwin is the resident Cluster a fleet on the fixture must agree
// with.
func residentTwin(t *testing.T) *kmgraph.Cluster {
	t.Helper()
	c, err := kmgraph.NewCluster(fleetGraph(), kmgraph.WithK(fleetK), kmgraph.WithSeed(fleetSeed))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// fleetSource writes the fixture graph to a store and returns its source
// spec plus the resident twin's first connectivity answer on it.
func fleetSource(t *testing.T) (string, *kmgraph.QueryResult) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.kmgs")
	if err := store.WriteFile(path, fleetGraph().Source()); err != nil {
		t.Fatal(err)
	}
	golden, err := residentTwin(t).Connectivity(context.Background())
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	return "store:" + path, golden
}

// newFleetServer registers the fixture under name as a fleet-backed graph
// over the given worker addresses and returns the serving front end.
func newFleetServer(t *testing.T, name, source string, addrs []string, coord dist.CoordOptions) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{MaxQueue: 32})
	err := s.RegisterFleet(name, kmgraph.FleetSpec{Source: source, Addrs: addrs, Coord: coord},
		kmgraph.WithK(fleetK), kmgraph.WithSeed(fleetSeed))
	if err != nil {
		t.Fatalf("RegisterFleet: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// newLiveFleetServer is newFleetServer over two fresh workers.
func newLiveFleetServer(t *testing.T, name string) (*Server, *httptest.Server, *kmgraph.QueryResult) {
	t.Helper()
	source, golden := fleetSource(t)
	_, a0 := startFleetWorker(t)
	_, a1 := startFleetWorker(t)
	s, ts := newFleetServer(t, name, source, []string{a0, a1}, dist.CoordOptions{
		Retry: dist.RetryPolicy{Attempts: 3, Backoff: 50 * time.Millisecond},
	})
	return s, ts, golden
}

// workerPhaseRounds sums, per fleet-worker pid of a served trace, the
// rounds of its phase spans.
func workerPhaseRounds(t *testing.T, url string) map[int]int {
	t.Helper()
	var trace struct {
		TraceEvents []struct {
			Cat  string         `json:"cat"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	getJSON(t, url, http.StatusOK, &trace)
	perPid := map[int]int{}
	for _, ev := range trace.TraceEvents {
		if ev.Cat == "phase" && ev.Pid >= telemetry.WorkerPid(0) {
			perPid[ev.Pid] += int(ev.Args["rounds"].(float64))
		}
	}
	return perPid
}

// TestFleetIsAGraph is the tentpole acceptance: a fleet-backed graph is
// served by the code that serves resident graphs — coalescing, cache,
// job funnel, trace, error mapping, every job family — and answers what a
// resident graph does. The cases share one fleet and run in order.
func TestFleetIsAGraph(t *testing.T) {
	s, ts, golden := newLiveFleetServer(t, "web")
	base := ts.URL + "/graphs/web"
	okJobs := func(job string) float64 {
		return sampleValue(t, scrape(t, ts.URL), fmt.Sprintf(`kmgraph_jobs_total{graph="web",job=%q,status="ok"}`, job))
	}

	t.Run("cold herd runs one distributed job", func(t *testing.T) {
		const clients = 4
		var wg sync.WaitGroup
		out := make([]connectivityResponse, clients)
		start := make(chan struct{})
		for i := range out {
			wg.Add(1)
			go func(c *connectivityResponse) {
				defer wg.Done()
				<-start
				resp, err := http.Get(base + "/connectivity")
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				if err := json.NewDecoder(resp.Body).Decode(c); err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("cold request: status %d, decode error %v", resp.StatusCode, err)
				}
			}(&out[i])
		}
		close(start)
		wg.Wait()
		for i, c := range out {
			if c.Components != golden.Components || c.Rounds != golden.Rounds || c.SketchFailures != golden.SketchFailures {
				t.Errorf("client %d: %d components / %d rounds / %d sketch failures, want the resident twin's %d / %d / %d",
					i, c.Components, c.Rounds, c.SketchFailures, golden.Components, golden.Rounds, golden.SketchFailures)
			}
		}
		if n := okJobs("connectivity"); n != 1 {
			t.Errorf("%v distributed connectivity jobs ran for %d concurrent cold requests, want 1", n, clients)
		}
		if n := sampleValue(t, scrape(t, ts.URL), `kmserve_cache_coalesced_total{graph="web"}`); n < 1 {
			t.Errorf("kmserve_cache_coalesced_total = %v, want >= 1", n)
		}
	})

	t.Run("repeat is a cache hit that runs no job", func(t *testing.T) {
		var c connectivityResponse
		resp := getJSON(t, base+"/connectivity?labels=true", http.StatusOK, &c)
		if !c.Cached || resp.Header.Get("X-Kmserve-Cache") != "hit" || len(c.Labels) != len(golden.Labels) {
			t.Errorf("repeat: cached=%v header=%q labels=%d, want a hit with %d labels",
				c.Cached, resp.Header.Get("X-Kmserve-Cache"), len(c.Labels), len(golden.Labels))
		}
		if n := okJobs("connectivity"); n != 1 {
			t.Errorf("%v connectivity jobs after a repeat, want still 1", n)
		}
	})

	t.Run("jobs and trace come from the one funnel", func(t *testing.T) {
		var jobs struct {
			Jobs []jobProgress `json:"jobs"`
		}
		getJSON(t, base+"/jobs", http.StatusOK, &jobs)
		load := s.graphs["web"].c.Metrics().LoadRounds
		if len(jobs.Jobs) != 2 || jobs.Jobs[0].Job != "connectivity" || jobs.Jobs[0].Running || jobs.Jobs[1].Job != "load" ||
			jobs.Jobs[0].Round != load+golden.Rounds || jobs.Jobs[0].Phase != golden.Phases-1 {
			t.Errorf("jobs = %+v, want the load and the one finished connectivity job at round %d, phase %d",
				jobs.Jobs, load+golden.Rounds, golden.Phases-1)
		}
		perPid := workerPhaseRounds(t, base+"/trace")
		if len(perPid) != 2 {
			t.Fatalf("trace worker pids = %v, want one per worker", perPid)
		}
		for pid, sum := range perPid {
			if sum != golden.Rounds {
				t.Errorf("pid %d phase rounds sum to %d, want the job's %d", pid, sum, golden.Rounds)
			}
		}
	})

	twin := residentTwin(t)
	if _, err := twin.Connectivity(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Run("strong MST matches the resident twin", func(t *testing.T) {
		want, err := twin.MST(context.Background(), kmgraph.StrongOutput())
		if err != nil {
			t.Fatal(err)
		}
		var m mstResponse
		getJSON(t, base+"/mst?strong=true&edges=true", http.StatusOK, &m)
		if m.TotalWeight != want.TotalWeight || m.EdgeCount != len(want.Edges) || m.Rounds != want.Metrics.Rounds || m.Phases != want.Phases {
			t.Fatalf("mst = weight %d / %d edges / %d rounds / %d phases, want %d / %d / %d / %d",
				m.TotalWeight, m.EdgeCount, m.Rounds, m.Phases, want.TotalWeight, len(want.Edges), want.Metrics.Rounds, want.Phases)
		}
		for i, e := range want.Edges {
			if got := m.Edges[i]; got.U != e.U || got.V != e.V || got.W != e.W {
				t.Fatalf("edge %d = %+v, want %+v", i, got, e)
			}
		}
	})

	t.Run("serves every family", func(t *testing.T) {
		var forest connectivityResponse
		getJSON(t, base+"/spanning-tree", http.StatusOK, &forest)
		want, err := twin.SpanningTree(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !forest.Cached || len(forest.Forest) != len(want.Forest) {
			t.Errorf("spanning tree: cached=%v, %d forest edges; want the cached answer's %d", forest.Cached, len(forest.Forest), len(want.Forest))
		}
		for _, path := range []string{"/mincut?maxlevel=3", "/connectivity?forest=true"} {
			getJSON(t, base+path, http.StatusOK, nil)
		}
		req, _ := http.NewRequest("POST", base+"/verify", strings.NewReader(`{"problem":"cycle"}`))
		if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("verify: %v / %v, want 200", resp, err)
		} else {
			resp.Body.Close()
		}
		// A batch changes the graph on the workers: the epoch moves on, and
		// the cached answer of the old one is not served again.
		req, _ = http.NewRequest("POST", base+"/batch", strings.NewReader(`{"ops":[{"u":1,"v":2},{"u":3,"v":4}]}`))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var b struct {
			Applied int    `json:"applied"`
			Epoch   uint64 `json:"epoch"`
		}
		decodeErr := json.NewDecoder(resp.Body).Decode(&b)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || decodeErr != nil || b.Applied == 0 || b.Epoch != 1 {
			t.Fatalf("batch: status %d, %+v (%v); want it applied at epoch 1", resp.StatusCode, b, decodeErr)
		}
		var c connectivityResponse
		resp = getJSON(t, base+"/connectivity", http.StatusOK, &c)
		if c.Cached || resp.Header.Get("X-Kmserve-Cache") != "miss" || c.Epoch != 1 {
			t.Errorf("connectivity after the batch: cached=%v header=%q epoch=%d, want a fresh answer at epoch 1",
				c.Cached, resp.Header.Get("X-Kmserve-Cache"), c.Epoch)
		}
	})

	t.Run("names collide loudly", func(t *testing.T) {
		c, err := kmgraph.NewCluster(kmgraph.GNM(100, 300, 1), kmgraph.WithK(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register("web", c); err == nil {
			t.Error("a resident graph was registered under a fleet's name")
		}
		if err := s.Register("g", c); err != nil {
			t.Fatal(err)
		}
		err = s.RegisterFleet("g", kmgraph.FleetSpec{Source: "gnm:100:300:1", Addrs: []string{"127.0.0.1:1"}}, kmgraph.WithK(2))
		if err == nil {
			t.Error("a fleet was registered under a resident graph's name")
		}
		// The refused fleet must not have taken the live graph's funnel or
		// series with it.
		getJSON(t, ts.URL+"/graphs/g/jobs", http.StatusOK, nil)
		if v := sampleValue(t, scrape(t, ts.URL), `kmserve_shed_total{graph="g"}`); v != 0 {
			t.Errorf(`kmserve_shed_total{graph="g"} = %v after the refusal, want the resident graph's 0`, v)
		}
	})
}

// TestFleetConnectivityMatchesLocal: a fleet-backed graph's first
// connectivity answer is the local golden, its repeat a cache hit, and
// GET /fleet/{name} reports its health.
func TestFleetConnectivityMatchesLocal(t *testing.T) {
	_, ts, golden := newLiveFleetServer(t, "web")

	var out connectivityResponse
	resp := getJSON(t, ts.URL+"/graphs/web/connectivity", http.StatusOK, &out)
	if out.Components != golden.Components {
		t.Errorf("components = %d, want %d", out.Components, golden.Components)
	}
	if out.Rounds != golden.Rounds {
		t.Errorf("rounds = %d, want %d (distributed run not bit-identical)", out.Rounds, golden.Rounds)
	}
	if out.Cached || resp.Header.Get("X-Kmserve-Cache") != "miss" {
		t.Errorf("first request: cached=%v header=%q, want fresh miss", out.Cached, resp.Header.Get("X-Kmserve-Cache"))
	}

	// Without a batch the graph is unchanged: the second request must be a
	// hit.
	resp = getJSON(t, ts.URL+"/graphs/web/connectivity", http.StatusOK, &out)
	if !out.Cached || resp.Header.Get("X-Kmserve-Cache") != "hit" {
		t.Errorf("second request: cached=%v header=%q, want cache hit", out.Cached, resp.Header.Get("X-Kmserve-Cache"))
	}

	var info fleetInfo
	getJSON(t, ts.URL+"/fleet/web", http.StatusOK, &info)
	if info.State != "healthy" || len(info.Workers) != 2 || info.K != fleetK {
		t.Errorf("info = %+v, want healthy with 2 workers at k=%d", info, fleetK)
	}
	getJSON(t, ts.URL+"/fleet/nosuch", http.StatusNotFound, nil)
}

func TestFleetDownSheds503(t *testing.T) {
	// A listener that is opened and immediately closed yields an address
	// with nothing behind it: the registration probe finds the fleet down.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	_, ts := newFleetServer(t, "ghost", "gnm:1000:3000:1", []string{dead}, dist.CoordOptions{})

	// From here on something listens there again, so a dial would be seen:
	// the gate must shed on the prober's verdict alone.
	ln, err = net.Listen("tcp", dead)
	if err != nil {
		t.Fatalf("relisten on %s: %v", dead, err)
	}
	defer ln.Close()
	var dials atomic.Int32
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			c.Close()
		}
	}()

	resp, err := http.Get(ts.URL + "/graphs/ghost/connectivity")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
	if n := dials.Load(); n != 0 {
		t.Errorf("shedding a request on a down fleet dialed it %d times", n)
	}

	var info fleetInfo
	getJSON(t, ts.URL+"/fleet/ghost", http.StatusServiceUnavailable, &info)
	if info.State != "down" {
		t.Errorf("state = %q, want down", info.State)
	}
}

func TestFleetStateOnMetrics(t *testing.T) {
	_, ts, _ := newLiveFleetServer(t, "web")
	body := scrape(t, ts.URL)
	for _, want := range []string{
		`kmserve_graph_state{graph="web"} 2`,
		`kmserve_fleet_workers_up{graph="web"} 2`,
		`kmserve_shed_total{graph="web"} 0`,
		`kmserve_graphs 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestFleetDegradesAndRecovers walks the full degradation arc: a lost
// worker turns job requests into 503 + Retry-After (not hangs, not
// 500s), and once a replacement worker is listening again the same
// endpoint serves the golden result with no server restart.
func TestFleetDegradesAndRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed recovery test")
	}
	source, golden := fleetSource(t)
	w1, a1 := startFleetWorker(t)
	_, a2 := startFleetWorker(t)
	_, ts := newFleetServer(t, "web", source, []string{a1, a2}, dist.CoordOptions{
		HeartbeatTimeout: 5 * time.Second,
		Retry:            dist.RetryPolicy{Attempts: 2, Backoff: 50 * time.Millisecond},
	})

	// Lose a worker: the job fails link-down after its retry budget and
	// the endpoint degrades to 503 + Retry-After.
	w1.Close()
	resp, err := http.Get(ts.URL + "/graphs/web/connectivity")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("with dead worker: status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded 503 without Retry-After header")
	}
	if n := sampleValue(t, scrape(t, ts.URL), `kmgraph_jobs_total{graph="web",job="connectivity",status="error"}`); n != 1 {
		t.Errorf("failed fleet job counted %v times in kmgraph_jobs_total, want 1", n)
	}

	// A replacement worker on the same address restores service; no
	// server-side intervention needed.
	ln, err := net.Listen("tcp", a1)
	if err != nil {
		t.Fatalf("relisten on %s: %v", a1, err)
	}
	w := dist.NewWorker(ln, dist.WorkerOptions{
		MeshTimeout:       30 * time.Second,
		HeartbeatInterval: 100 * time.Millisecond,
	})
	go w.Serve()
	t.Cleanup(func() { w.Close() })

	var out connectivityResponse
	getJSON(t, ts.URL+"/graphs/web/connectivity", http.StatusOK, &out)
	if out.Components != golden.Components || out.Rounds != golden.Rounds {
		t.Errorf("recovered result = %d components / %d rounds, want %d / %d",
			out.Components, out.Rounds, golden.Components, golden.Rounds)
	}
}

// TestFleetTraceAndRoundGauges pins what only a fleet reports: its jobs
// feed the per-worker round gauges from the workers' heartbeats, and the
// graph's trace carries one pid per worker whose span round sums telescope
// to the job's merged rounds.
func TestFleetTraceAndRoundGauges(t *testing.T) {
	_, ts, golden := newLiveFleetServer(t, "web")

	var out connectivityResponse
	getJSON(t, ts.URL+"/graphs/web/connectivity", http.StatusOK, &out)
	if out.Rounds != golden.Rounds {
		t.Fatalf("rounds = %d, want %d", out.Rounds, golden.Rounds)
	}
	perPid := workerPhaseRounds(t, ts.URL+"/graphs/web/trace")
	if len(perPid) != 2 {
		t.Fatalf("trace span pids = %v, want one per worker", perPid)
	}
	for pid, sum := range perPid {
		if sum != golden.Rounds {
			t.Errorf("pid %d span rounds sum to %v, want %d", pid, sum, golden.Rounds)
		}
	}

	// The heartbeat round counts surface as per-worker gauges.
	body := scrape(t, ts.URL)
	for w := 0; w < 2; w++ {
		sample := fmt.Sprintf(`kmserve_fleet_job_rounds{graph="web",worker="%d"}`, w)
		if v := sampleValue(t, body, sample); v <= 0 {
			t.Errorf("%s = %v, want > 0 after a fleet job", sample, v)
		}
	}
}
