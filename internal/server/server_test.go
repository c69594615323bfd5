package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"kmgraph"
)

// newTestServer registers a fresh cluster on g under name and returns
// the server plus its HTTP front end.
func newTestServer(t *testing.T, cfg Config, name string, g *kmgraph.Graph, k int, seed int64) (*Server, *httptest.Server) {
	t.Helper()
	c, err := kmgraph.NewCluster(g, kmgraph.WithK(k), kmgraph.WithSeed(seed))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	s := New(cfg)
	if err := s.Register(name, c); err != nil {
		t.Fatalf("Register: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// getJSON GETs url and decodes the response into out, asserting status.
func getJSON(t *testing.T, url string, wantStatus int, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d (want %d): %s", url, resp.StatusCode, wantStatus, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, body, err)
		}
	}
	return resp
}

// postJSON POSTs v as JSON to url and decodes the response into out.
func postJSON(t *testing.T, url string, v any, wantStatus int, out any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d (want %d): %s", url, resp.StatusCode, wantStatus, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", url, body, err)
		}
	}
}

func TestEndpointsAnswerEveryJobFamily(t *testing.T) {
	g := kmgraph.WithDistinctWeights(kmgraph.DisjointComponents(300, 3, 0.1, 7), 8)
	_, ts := newTestServer(t, Config{}, "g", g, 4, 11)
	base := ts.URL + "/graphs/g"

	_, wantComps := kmgraph.ComponentsOracle(g)

	var health struct {
		Status string `json:"status"`
		Graphs int    `json:"graphs"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Graphs != 1 {
		t.Errorf("healthz: %+v", health)
	}

	var list struct {
		Graphs []graphInfo `json:"graphs"`
	}
	getJSON(t, ts.URL+"/graphs", http.StatusOK, &list)
	if len(list.Graphs) != 1 || list.Graphs[0].Name != "g" || list.Graphs[0].N != 300 {
		t.Errorf("graphs list: %+v", list)
	}

	var conn connectivityResponse
	getJSON(t, base+"/connectivity?labels=true", http.StatusOK, &conn)
	if conn.Components != wantComps {
		t.Errorf("connectivity: %d components, oracle %d", conn.Components, wantComps)
	}
	if len(conn.Labels) != 300 {
		t.Errorf("labels: got %d, want 300", len(conn.Labels))
	}

	var st connectivityResponse
	getJSON(t, base+"/spanning-tree", http.StatusOK, &st)
	if len(st.Forest) != 300-wantComps {
		t.Errorf("spanning-tree: %d forest edges, want %d", len(st.Forest), 300-wantComps)
	}

	var mst mstResponse
	getJSON(t, base+"/mst?edges=true", http.StatusOK, &mst)
	wantMST, wantW := kmgraph.MSTOracle(g)
	if mst.EdgeCount != len(wantMST) || mst.TotalWeight != wantW {
		t.Errorf("mst: %d edges weight %d, oracle %d edges weight %d",
			mst.EdgeCount, mst.TotalWeight, len(wantMST), wantW)
	}

	var mc mincutResponse
	getJSON(t, base+"/mincut", http.StatusOK, &mc)
	if mc.Estimate != 0 || mc.Level != -1 {
		// Three components: the graph is already disconnected.
		t.Errorf("mincut on disconnected graph: %+v", mc)
	}

	var ver verifyResponse
	postJSON(t, base+"/verify", map[string]any{"problem": "cycle"}, http.StatusOK, &ver)
	if !ver.Holds {
		t.Errorf("cycle verification: %+v (components with p=0.1 inside 100-vertex blocks must have cycles)", ver)
	}
	postJSON(t, base+"/verify", map[string]any{"problem": "nope"}, http.StatusBadRequest, nil)

	// Four engine jobs, not five: spanning-tree was served from the
	// connectivity cache entry (same computation, one key).
	var met metricsResponse
	getJSON(t, base+"/metrics", http.StatusOK, &met)
	if met.Jobs != 4 || met.Queries != 1 || met.CacheHits == 0 ||
		met.TotalRounds < met.LoadRounds || met.N != 300 {
		t.Errorf("metrics: %+v", met)
	}

	getJSON(t, ts.URL+"/graphs/absent/connectivity", http.StatusNotFound, nil)
}

// TestVerifyBadArgsAre400: an out-of-range edge endpoint (which EdgeID
// would alias onto a real edge: {0, 12} is (1, 2) on 10 vertices) or s/t
// vertex is the caller's mistake, not a server fault.
func TestVerifyBadArgsAre400(t *testing.T) {
	_, ts := newTestServer(t, Config{}, "p", kmgraph.Path(10), 2, 1)
	postJSON(t, ts.URL+"/graphs/p/verify", map[string]any{"problem": "cut", "cut": []map[string]int{{"u": 0, "v": 12}}},
		http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/graphs/p/verify", map[string]any{"problem": "stconn", "s": -1, "t": 1},
		http.StatusBadRequest, nil)
}

// TestMinCutBadOptionsAre400: a negative trial count or a max level outside
// [0, 64] reaches the engine, which refuses it before the job starts, so
// the caller gets 400 and no rounds are spent, not the default search's
// answer under a cache key of its own.
func TestMinCutBadOptionsAre400(t *testing.T) {
	_, ts := newTestServer(t, Config{}, "g", kmgraph.GNM(200, 2000, 3), 4, 1)
	base := ts.URL + "/graphs/g"
	var before, after metricsResponse
	getJSON(t, base+"/metrics", http.StatusOK, &before)
	for _, q := range []string{"trials=-1", "maxlevel=-3", "maxlevel=65"} {
		getJSON(t, base+"/mincut?"+q, http.StatusBadRequest, nil)
	}
	getJSON(t, base+"/metrics", http.StatusOK, &after)
	if after.Jobs != before.Jobs || after.TotalRounds != before.TotalRounds {
		t.Errorf("refused min-cuts ran: jobs %d -> %d, rounds %d -> %d",
			before.Jobs, after.Jobs, before.TotalRounds, after.TotalRounds)
	}
}

// TestCacheHitServesWithZeroRounds is the acceptance-criteria pin: a
// repeated connectivity query on an unchanged graph is served from the
// epoch-keyed cache without a single simulation round, and a batch that
// changes the graph invalidates it.
func TestCacheHitServesWithZeroRounds(t *testing.T) {
	g := kmgraph.GNM(250, 700, 3)
	_, ts := newTestServer(t, Config{}, "g", g, 4, 5)
	base := ts.URL + "/graphs/g"

	var first connectivityResponse
	resp := getJSON(t, base+"/connectivity", http.StatusOK, &first)
	if first.Cached || resp.Header.Get("X-Kmserve-Cache") != "miss" {
		t.Fatalf("first query must miss: cached=%t header=%q", first.Cached, resp.Header.Get("X-Kmserve-Cache"))
	}

	var met1 metricsResponse
	getJSON(t, base+"/metrics", http.StatusOK, &met1)

	var second connectivityResponse
	resp = getJSON(t, base+"/connectivity", http.StatusOK, &second)
	if !second.Cached || resp.Header.Get("X-Kmserve-Cache") != "hit" {
		t.Fatalf("second query must hit: cached=%t header=%q", second.Cached, resp.Header.Get("X-Kmserve-Cache"))
	}
	if second.Components != first.Components || second.Rounds != first.Rounds {
		t.Fatalf("cached answer drifted: first %+v, second %+v", first, second)
	}

	var met2 metricsResponse
	getJSON(t, base+"/metrics", http.StatusOK, &met2)
	if met2.TotalRounds != met1.TotalRounds {
		t.Fatalf("cache hit burned %d simulation rounds", met2.TotalRounds-met1.TotalRounds)
	}
	if met2.Queries != met1.Queries {
		t.Fatalf("cache hit reached the engine (queries %d -> %d)", met1.Queries, met2.Queries)
	}
	if met2.CacheHits == 0 {
		t.Fatalf("metrics did not record the cache hit: %+v", met2)
	}

	// A batch that changes the edge set bumps the epoch and invalidates.
	var br batchResponse
	postJSON(t, base+"/batch", map[string]any{
		"ops": []map[string]any{{"u": 0, "v": 1}, {"u": 0, "v": 2}},
	}, http.StatusOK, &br)
	if br.Applied == 0 || br.Epoch == first.Epoch {
		t.Fatalf("batch must apply and bump the epoch: %+v (was epoch %d)", br, first.Epoch)
	}

	var third connectivityResponse
	getJSON(t, base+"/connectivity", http.StatusOK, &third)
	if third.Cached {
		t.Fatalf("query after a mutating batch served stale cache: %+v", third)
	}
	if third.Epoch != br.Epoch {
		t.Fatalf("post-batch query at epoch %d, batch left %d", third.Epoch, br.Epoch)
	}

	var met3 metricsResponse
	getJSON(t, base+"/metrics", http.StatusOK, &met3)
	if met3.TotalRounds <= met2.TotalRounds {
		t.Fatalf("post-invalidation query must re-run rounds")
	}

	// A fully-rejected batch (duplicate insert) leaves the epoch — and
	// therefore the cache — intact.
	var rejected batchResponse
	postJSON(t, base+"/batch", map[string]any{
		"ops": []map[string]any{{"u": 0, "v": 1}},
	}, http.StatusOK, &rejected)
	if rejected.Applied != 0 || rejected.Epoch != br.Epoch {
		t.Fatalf("duplicate insert must reject without bumping the epoch: %+v", rejected)
	}
	var fourth connectivityResponse
	getJSON(t, base+"/connectivity", http.StatusOK, &fourth)
	if !fourth.Cached {
		t.Fatalf("rejected batch invalidated the cache")
	}
}

// TestConcurrentColdMissesCoalesce pins the singleflight: identical
// requests racing a cold cache run the job once — followers wait for
// the leader and serve its cached result instead of piling N identical
// recomputations onto the engine.
func TestConcurrentColdMissesCoalesce(t *testing.T) {
	g := kmgraph.GNM(400, 1200, 41)
	_, ts := newTestServer(t, Config{MaxQueue: 32}, "g", g, 4, 43)
	base := ts.URL + "/graphs/g"

	const clients = 6
	var wg sync.WaitGroup
	comps := make([]int, clients)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp connectivityResponse
			r, err := http.Get(base + "/connectivity")
			if err != nil {
				errs <- err
				return
			}
			defer r.Body.Close()
			if r.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d", i, r.StatusCode)
				return
			}
			if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
				errs <- err
				return
			}
			comps[i] = resp.Components
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 1; i < clients; i++ {
		if comps[i] != comps[0] {
			t.Fatalf("divergent answers: %v", comps)
		}
	}
	var met metricsResponse
	getJSON(t, base+"/metrics", http.StatusOK, &met)
	if met.Queries != 1 {
		t.Fatalf("cold herd reached the engine %d times, want 1 (coalesced)", met.Queries)
	}
}

func TestBackpressure429(t *testing.T) {
	g := kmgraph.GNM(200, 500, 9)
	s, ts := newTestServer(t, Config{MaxQueue: 2}, "g", g, 4, 13)

	// Deterministically exhaust the admission queue, then ask for work.
	s.mu.RLock()
	ten := s.graphs["g"]
	s.mu.RUnlock()
	ten.slots <- struct{}{}
	ten.slots <- struct{}{}

	resp, err := http.Get(ts.URL + "/graphs/g/connectivity")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (want 429): %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Metrics and health must still answer while the queue is full.
	getJSON(t, ts.URL+"/graphs/g/metrics", http.StatusOK, nil)
	getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)

	<-ten.slots
	<-ten.slots
	getJSON(t, ts.URL+"/graphs/g/connectivity", http.StatusOK, nil)
}

func TestRequestTimeoutMapsToJobDeadline(t *testing.T) {
	g := kmgraph.GNM(400, 1200, 17)
	_, ts := newTestServer(t, Config{}, "g", g, 4, 19)

	resp, err := http.Get(ts.URL + "/graphs/g/connectivity?timeout=1ns")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (want 504): %s", resp.StatusCode, body)
	}
	// The cluster must stay serviceable after the expired job.
	getJSON(t, ts.URL+"/graphs/g/connectivity", http.StatusOK, nil)

	getJSON(t, ts.URL+"/graphs/g/connectivity?timeout=bogus", http.StatusBadRequest, nil)

	// ?timeout= is capped at 10 minutes, or at a larger DefaultTimeout.
	for _, c := range []struct{ def, want time.Duration }{{0, 10 * time.Minute}, {20 * time.Minute, 20 * time.Minute}} {
		s := &Server{cfg: Config{DefaultTimeout: c.def}.withDefaults()}
		if d, err := s.parseTimeout(httptest.NewRequest("GET", "/?timeout=1h", nil)); err != nil || d != c.want {
			t.Errorf("DefaultTimeout %v: ?timeout=1h gives %v, %v; want %v", c.def, d, err, c.want)
		}
	}
}

func TestLoadAndUnloadOverHTTP(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.kmgs")
	src := kmgraph.StreamGNM(500, 1500, 23)
	if err := kmgraph.WriteStore(path, src); err != nil {
		t.Fatal(err)
	}
	stored, closer, err := kmgraph.OpenSource(path)
	if err != nil {
		t.Fatal(err)
	}
	wantComps, err := kmgraph.ComponentsFromSourceOracle(stored)
	closer.Close()
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{AllowLoad: true})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	seed := int64(3)
	var info graphInfo
	postJSON(t, ts.URL+"/graphs", loadRequest{Name: "web", Path: path, K: 4, Seed: &seed},
		http.StatusCreated, &info)
	if info.N != 500 {
		t.Fatalf("loaded info: %+v", info)
	}
	// Duplicate name and bad path are client errors.
	postJSON(t, ts.URL+"/graphs", loadRequest{Name: "web", Path: path},
		http.StatusConflict, nil)
	postJSON(t, ts.URL+"/graphs", loadRequest{Name: "x", Path: filepath.Join(dir, "absent.kmgs")},
		http.StatusBadRequest, nil)

	var conn connectivityResponse
	getJSON(t, ts.URL+"/graphs/web/connectivity", http.StatusOK, &conn)
	if conn.Components != wantComps {
		t.Fatalf("components %d, oracle %d", conn.Components, wantComps)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/web", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/graphs/web/connectivity", http.StatusNotFound, nil)
}

// TestFailedLoadLeavesNoObserver: POST /graphs wires the graph's observer
// funnel (a 4096-event tracer) before it opens the cluster, so a load
// that then fails must drop it again — or distinct bad requests grow the
// server without bound — unless a live graph of that name shares it.
func TestFailedLoadLeavesNoObserver(t *testing.T) {
	s, base := newObservedServer(t, Config{AllowLoad: true}, "web", kmgraph.GNM(300, 900, 5), 4, 7)
	getJSON(t, base+"/graphs/web/connectivity", http.StatusOK, nil)
	obsCount := func() int {
		s.obsMu.Lock()
		defer s.obsMu.Unlock()
		return len(s.obs)
	}
	before := obsCount()

	absent := filepath.Join(t.TempDir(), "absent.kmgs")
	for _, name := range []string{"a", "b", "c"} {
		postJSON(t, base+"/graphs", loadRequest{Name: name, Path: absent}, http.StatusBadRequest, nil)
	}
	if got := obsCount(); got != before {
		t.Errorf("three failed loads left %d observer funnels, want the %d there were", got, before)
	}

	// A failed load under the live graph's name must leave its funnel be.
	postJSON(t, base+"/graphs", loadRequest{Name: "web", Path: absent}, http.StatusConflict, nil)
	s.dropUnregisteredObs("web")
	var jobs struct {
		Jobs []jobProgress `json:"jobs"`
	}
	getJSON(t, base+"/graphs/web/jobs", http.StatusOK, &jobs)
	if len(jobs.Jobs) != 2 { // load + connectivity
		t.Errorf("live graph's jobs after a failed load under its name: %+v, want its load and query", jobs.Jobs)
	}
	var trace struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	getJSON(t, base+"/graphs/web/trace", http.StatusOK, &trace)
	spans := 0
	for _, ev := range trace.TraceEvents {
		if ev.Cat == "job" {
			spans++
		}
	}
	if spans != 2 {
		t.Errorf("live graph's trace holds %d job spans after a failed load under its name, want 2", spans)
	}
}

func TestLoadDisabledByDefault(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()
	postJSON(t, ts.URL+"/graphs", loadRequest{Name: "g", Path: "x"}, http.StatusForbidden, nil)
}

// TestConcurrentJobsAndMetricsConsistency is the -race witness for the
// whole serving path: overlapping connectivity queries, mutating
// batches, and metrics snapshots through the server's admission layer.
// Mid-job metrics snapshots must be internally consistent — the load
// cost never changes, cumulative counters never run backwards, and the
// epoch is monotone — i.e. no torn reads.
func TestConcurrentJobsAndMetricsConsistency(t *testing.T) {
	g := kmgraph.GNM(200, 600, 29)
	_, ts := newTestServer(t, Config{MaxQueue: 32}, "g", g, 4, 31)
	base := ts.URL + "/graphs/g"

	var loadRounds int
	var met0 metricsResponse
	getJSON(t, base+"/metrics", http.StatusOK, &met0)
	loadRounds = met0.LoadRounds

	const (
		queriers  = 3
		batchers  = 2
		perWorker = 6
	)
	var workers, poller sync.WaitGroup
	errs := make(chan error, queriers+batchers+1)

	for q := 0; q < queriers; q++ {
		workers.Add(1)
		go func(q int) {
			defer workers.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Get(fmt.Sprintf("%s/connectivity?labels=%t", base, i%2 == 0))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					errs <- fmt.Errorf("querier %d: status %d", q, resp.StatusCode)
					return
				}
			}
		}(q)
	}
	for b := 0; b < batchers; b++ {
		workers.Add(1)
		go func(b int) {
			defer workers.Done()
			rng := rand.New(rand.NewSource(int64(100 + b)))
			for i := 0; i < perWorker; i++ {
				u, v := rng.Intn(200), rng.Intn(200)
				if u == v {
					continue
				}
				body, _ := json.Marshal(map[string]any{
					"ops": []map[string]any{{"u": u, "v": v, "del": i%3 == 0}},
				})
				resp, err := http.Post(base+"/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					errs <- fmt.Errorf("batcher %d: status %d", b, resp.StatusCode)
					return
				}
			}
		}(b)
	}

	// The metrics poller races the jobs above; every snapshot it takes
	// must be internally consistent.
	poller.Add(1)
	stop := make(chan struct{})
	go func() {
		defer poller.Done()
		var prev metricsResponse
		for {
			select {
			case <-stop:
				return
			default:
			}
			var met metricsResponse
			resp, err := http.Get(base + "/metrics")
			if err != nil {
				errs <- err
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err := json.Unmarshal(data, &met); err != nil {
				errs <- fmt.Errorf("metrics decode: %v", err)
				return
			}
			switch {
			case met.LoadRounds != loadRounds:
				errs <- fmt.Errorf("torn read: load rounds %d -> %d", loadRounds, met.LoadRounds)
				return
			case met.TotalRounds < prev.TotalRounds,
				met.Jobs < prev.Jobs,
				met.Batches < prev.Batches,
				met.Queries < prev.Queries,
				met.Epoch < prev.Epoch:
				errs <- fmt.Errorf("torn read: counters ran backwards: %+v -> %+v", prev, met)
				return
			case met.TotalRounds < met.LoadRounds,
				met.Queued < 0, met.Running < 0, met.Running > 1,
				met.Edges < 0:
				errs <- fmt.Errorf("inconsistent snapshot: %+v", met)
				return
			}
			prev = met
			time.Sleep(time.Millisecond)
		}
	}()

	workers.Wait()
	close(stop)
	poller.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestOversizedBodyRefusedWith413: a body past maxBodyBytes is refused
// with 413 and the usual JSON error body instead of being decoded without
// bound — and a refused batch leaves the graph (its epoch) untouched.
func TestOversizedBodyRefusedWith413(t *testing.T) {
	_, ts := newTestServer(t, Config{}, "g", kmgraph.GNM(200, 500, 3), 4, 5)
	base := ts.URL + "/graphs/g"
	var before, after metricsResponse
	getJSON(t, base+"/metrics", http.StatusOK, &before)

	// Well-formed JSON throughout: only its size is wrong.
	var body bytes.Buffer
	body.WriteString(`{"ops":[{"u":1,"v":2}`)
	for body.Len() <= maxBodyBytes {
		body.WriteString(`,{"u":1,"v":2}`)
	}
	body.WriteString(`]}`)
	for _, ep := range []string{"/batch", "/verify"} {
		resp, err := http.Post(base+ep, "application/json", bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatalf("POST %s: %v", ep, err)
		}
		var e errorResponse
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || e.Error == "" {
			t.Fatalf("POST %s: status %d, error body %q (decode: %v); want 413 with a JSON error",
				ep, resp.StatusCode, e.Error, err)
		}
	}

	getJSON(t, base+"/metrics", http.StatusOK, &after)
	if after.Epoch != before.Epoch || after.Batches != before.Batches {
		t.Fatalf("refused batch touched the graph: epoch %d -> %d, batches %d -> %d",
			before.Epoch, after.Epoch, before.Batches, after.Batches)
	}
	// The same ops at a legal size are accepted: the cap, not the content, refused them.
	postJSON(t, base+"/batch", map[string]any{"ops": []map[string]int{{"u": 1, "v": 2}}}, http.StatusOK, nil)
}
