package benchfmt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSummarizePercentiles(t *testing.T) {
	// 100 latencies: 1ms..100ms.
	var lats []time.Duration
	for i := 1; i <= 100; i++ {
		lats = append(lats, time.Duration(i)*time.Millisecond)
	}
	r := Summarize("ServeLoad/connectivity", lats, 2*time.Second,
		ErrorCounts{Non2xx: 1, Timeouts: 2}, 7)
	if r.Requests != 100 || r.Errors != 3 || r.Rejected != 7 {
		t.Fatalf("counters: %+v", r)
	}
	if r.Non2xx != 1 || r.Timeouts != 2 || r.TransportErrors != 0 {
		t.Fatalf("error breakdown: %+v", r)
	}
	if r.P50Ns != float64(50*time.Millisecond) ||
		r.P90Ns != float64(90*time.Millisecond) ||
		r.P99Ns != float64(99*time.Millisecond) {
		t.Fatalf("percentiles: p50=%v p90=%v p99=%v", r.P50Ns, r.P90Ns, r.P99Ns)
	}
	if r.RequestsPerSec != 50 {
		t.Fatalf("throughput: %v req/s, want 50", r.RequestsPerSec)
	}
	if r.NsPerOp != float64(50500*time.Microsecond) {
		t.Fatalf("mean: %v", r.NsPerOp)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	r := Summarize("ServeLoad/mst", nil, time.Second, ErrorCounts{}, 2)
	if r.Requests != 0 || r.Rejected != 2 || r.P99Ns != 0 || r.RequestsPerSec != 0 {
		t.Fatalf("empty summary: %+v", r)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	results := []Result{
		{Name: "ServeLoad/connectivity", NsPerOp: 1e6},
		Summarize("ServeLoad/overall",
			[]time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond},
			time.Second, ErrorCounts{}, 1),
	}
	if err := WriteFile(path, results); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if err := doc.Validate(); err != nil {
		t.Fatalf("round trip invalid: %v", err)
	}
	if doc.Schema != Schema || len(doc.Benchmarks) != 2 {
		t.Fatalf("round trip: %+v", doc)
	}
	if doc.Benchmarks[1].P50Ns != float64(2*time.Millisecond) {
		t.Fatalf("serving fields lost: %+v", doc.Benchmarks[1])
	}
}

func TestValidateRejectsBadDocs(t *testing.T) {
	bad := []Doc{
		{Schema: "kmachine-bench/v1", Benchmarks: []Result{{Name: "x"}}},
		{Schema: Schema, Benchmarks: []Result{{Name: ""}}},
		{Schema: Schema, Benchmarks: []Result{{Name: "x", NsPerOp: -1}}},
		{Schema: Schema, Benchmarks: []Result{{Name: "x", P50Ns: 5, P90Ns: 1, P99Ns: 2}}},
		{Schema: Schema, Benchmarks: []Result{{Name: "x", Errors: 1, Non2xx: 1, Timeouts: 1}}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("doc %d validated: %+v", i, d)
		}
	}
}
