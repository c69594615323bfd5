package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"kmgraph"
)

// newObservedServer is newTestServer with the observer wired through
// JobObserver, the way kmserve constructs clusters, so engine-job
// series and the trace buffer are fed.
func newObservedServer(t *testing.T, cfg Config, name string, g *kmgraph.Graph, k int, seed int64) (*Server, string) {
	t.Helper()
	s := New(cfg)
	c, err := kmgraph.NewCluster(g,
		kmgraph.WithK(k), kmgraph.WithSeed(seed),
		kmgraph.WithObserver(s.JobObserver(name)),
		kmgraph.WithPhaseMetrics())
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if err := s.Register(name, c); err != nil {
		t.Fatalf("Register: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts.URL
}

// scrape fetches /metrics and returns the exposition body.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type: %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// sampleValue extracts one sample's value from an exposition body, -1
// if the sample is absent.
func sampleValue(t *testing.T, body, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			v, err := strconv.ParseFloat(line[len(sample)+1:], 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	return -1
}

func TestMetricsEndpointExposesServerAndEngineSeries(t *testing.T) {
	g := kmgraph.GNM(300, 900, 3)
	_, base := newObservedServer(t, Config{}, "g", g, 4, 7)

	getJSONurl(t, base+"/graphs/g/connectivity")

	body := scrape(t, base)
	// Server-side: per-endpoint request counters and latency histograms.
	if v := sampleValue(t, body, `kmserve_requests_total{code="200",endpoint="connectivity"}`); v != 1 {
		t.Errorf("request counter: %v\n%s", v, body)
	}
	if v := sampleValue(t, body, `kmserve_request_seconds_count{endpoint="connectivity"}`); v != 1 {
		t.Errorf("latency histogram count: %v", v)
	}
	if !strings.Contains(body, `kmserve_request_seconds_bucket{endpoint="connectivity",le="+Inf"}`) {
		t.Error("latency histogram buckets missing")
	}
	// Engine-side: job counters fed by the observer (load + connectivity).
	if v := sampleValue(t, body, `kmgraph_jobs_total{graph="g",job="connectivity",status="ok"}`); v != 1 {
		t.Errorf("engine job counter: %v", v)
	}
	if v := sampleValue(t, body, `kmgraph_job_rounds_total{graph="g",job="connectivity"}`); v <= 0 {
		t.Errorf("engine round counter: %v", v)
	}
	// The bank ledger: a cold query on 300 singletons rebuilds at least
	// one sketch per vertex.
	if v := sampleValue(t, body, `kmgraph_bank_reads_rebuilt_total{graph="g"}`); v < 300 {
		t.Errorf("bank rebuilt-reads counter: %v", v)
	}
	// Tenant gauges and process series are present.
	for _, sample := range []string{
		`kmserve_queue_depth{graph="g"}`,
		`kmserve_graph_epoch{graph="g"}`,
		`kmgraph_bank_kept_sums{graph="g"}`,
		`kmgraph_bank_kept_bytes{graph="g"}`,
		`kmgraph_bank_reads_kept_total{graph="g"}`,
		`kmgraph_bank_dropped_total{graph="g"}`,
		"kmserve_graphs",
		"process_max_resident_memory_bytes",
		"go_goroutines",
	} {
		if v := sampleValue(t, body, sample); v < 0 {
			t.Errorf("sample %s missing", sample)
		}
	}
}

// TestCacheCountersAcrossIdenticalQueries is the CI smoke assertion in
// test form: the first query misses, the identical second one hits, and
// both transitions are visible in the exposition.
func TestCacheCountersAcrossIdenticalQueries(t *testing.T) {
	g := kmgraph.GNM(300, 900, 3)
	_, base := newObservedServer(t, Config{CacheEntries: 16}, "g", g, 4, 7)

	getJSONurl(t, base+"/graphs/g/connectivity")
	after1 := scrape(t, base)
	hits1 := sampleValue(t, after1, `kmserve_cache_hits_total{graph="g"}`)
	misses1 := sampleValue(t, after1, `kmserve_cache_misses_total{graph="g"}`)
	if misses1 != 1 || hits1 != 0 {
		t.Fatalf("after first query: hits=%v misses=%v", hits1, misses1)
	}

	getJSONurl(t, base+"/graphs/g/connectivity")
	after2 := scrape(t, base)
	hits2 := sampleValue(t, after2, `kmserve_cache_hits_total{graph="g"}`)
	if hits2 != hits1+1 {
		t.Fatalf("identical second query did not increment cache hits: %v -> %v", hits1, hits2)
	}
	if m := sampleValue(t, after2, `kmserve_cache_misses_total{graph="g"}`); m != misses1 {
		t.Fatalf("second query missed: %v -> %v", misses1, m)
	}
}

func TestUnloadDropsGraphSeries(t *testing.T) {
	g := kmgraph.GNM(200, 600, 3)
	s, base := newObservedServer(t, Config{AllowLoad: true}, "g", g, 4, 7)
	_ = s

	getJSONurl(t, base+"/graphs/g/connectivity")
	req, _ := http.NewRequest(http.MethodDelete, base+"/graphs/g", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	if body := scrape(t, base); strings.Contains(body, `graph="g"`) {
		t.Errorf("per-graph series survive unload:\n%s", body)
	}
}

func TestVersionEndpoint(t *testing.T) {
	g := kmgraph.GNM(100, 300, 3)
	_, ts := newTestServer(t, Config{}, "g", g, 4, 7)
	var v struct {
		Module    string `json:"module"`
		GoVersion string `json:"go_version"`
		Revision  string `json:"revision"`
	}
	getJSON(t, ts.URL+"/version", http.StatusOK, &v)
	if v.Module == "" || v.GoVersion == "" || v.Revision == "" {
		t.Errorf("version fields empty: %+v", v)
	}
}

func TestTraceEndpointServesJobSpans(t *testing.T) {
	g := kmgraph.GNM(300, 900, 3)
	_, base := newObservedServer(t, Config{}, "g", g, 4, 7)
	getJSONurl(t, base+"/graphs/g/connectivity")

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	resp, err := http.Get(base + "/graphs/g/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit: %q", doc.DisplayTimeUnit)
	}
	var jobs, phases int
	for _, ev := range doc.TraceEvents {
		switch ev.Cat {
		case "job":
			jobs++
		case "phase":
			phases++
		}
	}
	if jobs < 2 { // load + connectivity
		t.Errorf("job spans: %d, want >= 2", jobs)
	}
	if phases == 0 {
		t.Error("no phase spans (PhaseMetrics wired?)")
	}
}

func TestRequestIDEchoedAndPropagated(t *testing.T) {
	g := kmgraph.GNM(100, 300, 3)
	_, ts := newTestServer(t, Config{}, "g", g, 4, 7)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); len(id) != 16 {
		t.Errorf("minted request id: %q", id)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-chosen-id")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if id := resp2.Header.Get("X-Request-Id"); id != "caller-chosen-id" {
		t.Errorf("request id not propagated: %q", id)
	}
}

// getJSONurl GETs url expecting 200, discarding the body.
func getJSONurl(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
}
