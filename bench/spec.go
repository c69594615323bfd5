package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The benchmark's registry: every workload and metric the code emits, with
// the unit, direction and regression bound BENCHMARK.json repeats. The
// registry test pins the two against each other, so a name cannot exist in
// one and not the other.

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

// metricSpec describes one metric. Bound is set on end-to-end metrics only;
// Layer, Exact and Moves on per-layer metrics only.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median the metric may worsen by
	Layer  string  // module the metric measures
	Exact  bool    // repeats bit-for-bit for a fixed seed: compare as a count
	Moves  string  // end-to-end metric and workload the metric should move
}

const (
	wlColdConn   = "cold_conn"
	wlColdMST    = "cold_mst"
	wlTCPConn    = "tcp_conn"
	wlServeChurn = "serve_churn"
)

var workloads = []workloadSpec{
	{wlColdConn, "cold connectivity query on a stored G(4000,12000), k=8: store decode, shard load, sketch-bank build and merge all run, so bank-build and arena work shows here"},
	{wlColdMST, "cold MST on a weighted G(3000,9000), k=16: no persistent banks, twice the rounds on 0.6x the vertices, so per-round engine cost shows here and bank-build work is bypassed"},
	{wlTCPConn, "the cold_conn store as a dist job over two loopback workers: control link, TCP frames and barrier wait dominate, one-shot handlers build no banks, so resident-path changes are bypassed"},
	{wlServeChurn, "closed loop of 2 HTTP clients on one residency of G(10000,30000), connectivity 8 : metrics 2 : batch 1 with one writer: p50 is the cache-hit path, p99 and throughput the miss path after a mutation"},
}

// End-to-end metrics, measured with tracing off. An op is one whole job on
// the cold and TCP workloads and one HTTP request on serve_churn.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p99_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "ok_share", Unit: "ratio", Better: "higher", Bound: 0.00001},
	{Name: "rounds_per_op", Unit: "rounds", Better: "lower", Bound: 0.15},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "cpu_user_s_per_op", Unit: "s", Better: "lower", Bound: 0.25},
}

// exactOnJobs lists the end-to-end metrics that repeat bit-for-bit for a
// fixed seed on the three job workloads (not on serve_churn, where the
// interleaving of two clients decides how many queries miss). ok_share is
// not one: its bound already fails any rise in failures, and a change that
// mends a failing baseline has improved, not moved a fingerprint.
var exactOnJobs = map[string]bool{"rounds_per_op": true}

const (
	coldConnTime  = "op_p50_s, alloc_mb_per_op, peak_rss_mb on cold_conn; flat on cold_mst and tcp_conn"
	perRoundTime  = "op_p50_s on cold_mst first, then cold_conn and tcp_conn"
	tcpOnly       = "op_p50_s, ops_per_s on tcp_conn only"
	loadTime      = "op_p50_s on cold_conn and cold_mst (under 1% today), setup_s on serve_churn"
	serveHit      = "op_p50_s on serve_churn"
	serveMiss     = "op_p99_s, ops_per_s on serve_churn"
	modelCost     = "model-cost fingerprint: identical under any bit-exact change"
	procPressure  = "op_p50_s, cpu_user_s_per_op on cold_conn"
	benchOverhead = "none: the cost of the bench's own spans"
)

// Per-layer metrics, measured in the traced run and by the layer probes.
var perLayer = []metricSpec{
	{Name: "store.decode_s", Unit: "s", Better: "lower", Layer: "store", Moves: loadTime},
	{Name: "store.bytes_per_edge", Unit: "B", Better: "lower", Layer: "store", Exact: true, Moves: loadTime},

	{Name: "kmachine.shardload_s", Unit: "s", Better: "lower", Layer: "kmachine", Moves: loadTime},
	{Name: "kmachine.round_us", Unit: "us", Better: "lower", Layer: "kmachine", Moves: perRoundTime},
	{Name: "kmachine.rounds", Unit: "rounds", Better: "lower", Layer: "kmachine", Exact: true, Moves: modelCost},
	{Name: "kmachine.messages", Unit: "count", Better: "lower", Layer: "kmachine", Exact: true, Moves: modelCost},
	{Name: "kmachine.payload_mb", Unit: "MB", Better: "lower", Layer: "kmachine", Exact: true, Moves: modelCost},
	{Name: "kmachine.link_skew", Unit: "ratio", Better: "lower", Layer: "kmachine", Exact: true, Moves: modelCost},

	{Name: "sketch.addvertex_ns_per_edge", Unit: "ns", Better: "lower", Layer: "sketch", Moves: coldConnTime},
	{Name: "sketch.encode_ns", Unit: "ns", Better: "lower", Layer: "sketch", Moves: perRoundTime},
	{Name: "sketch.addencoded_ns", Unit: "ns", Better: "lower", Layer: "sketch", Moves: perRoundTime},
	{Name: "sketch.sample_ns", Unit: "ns", Better: "lower", Layer: "sketch", Moves: perRoundTime},
	{Name: "sketch.encoded_bytes", Unit: "B", Better: "lower", Layer: "sketch", Exact: true, Moves: modelCost},
	{Name: "sketch.failures_per_op", Unit: "count", Better: "lower", Layer: "sketch", Exact: true, Moves: modelCost},

	{Name: "wire.append_ns_per_msg", Unit: "ns", Better: "lower", Layer: "wire", Moves: perRoundTime},
	{Name: "wire.read_ns_per_msg", Unit: "ns", Better: "lower", Layer: "wire", Moves: perRoundTime},

	{Name: "proxy.exchange_us_per_round", Unit: "us", Better: "lower", Layer: "proxy", Moves: perRoundTime},
	{Name: "proxy.rounds_per_exchange", Unit: "rounds", Better: "lower", Layer: "proxy", Exact: true, Moves: modelCost},

	{Name: "transport.switch_ns_per_msg", Unit: "ns", Better: "lower", Layer: "transport", Moves: perRoundTime},
	{Name: "transport.tcp.encode_ns_per_msg", Unit: "ns", Better: "lower", Layer: "transport", Moves: tcpOnly},
	{Name: "transport.tcp.decode_ns_per_msg", Unit: "ns", Better: "lower", Layer: "transport", Moves: tcpOnly},
	{Name: "transport.tcp.wire_mb_per_op", Unit: "MB", Better: "lower", Layer: "transport", Moves: tcpOnly},
	{Name: "transport.tcp.frames_per_op", Unit: "count", Better: "lower", Layer: "transport", Exact: true, Moves: tcpOnly},
	{Name: "transport.tcp.wire_over_model", Unit: "ratio", Better: "lower", Layer: "transport", Moves: tcpOnly},
	{Name: "transport.tcp.barrier_wait_p50_us", Unit: "us", Better: "lower", Layer: "transport", Moves: tcpOnly},
	{Name: "transport.tcp.barrier_wait_p99_us", Unit: "us", Better: "lower", Layer: "transport", Moves: tcpOnly},
	{Name: "transport.tcp.barrier_wait_share", Unit: "ratio", Better: "lower", Layer: "transport", Moves: tcpOnly},

	{Name: "core.oneshot_s", Unit: "s", Better: "lower", Layer: "core", Moves: perRoundTime},
	{Name: "core.mst_oneshot_s", Unit: "s", Better: "lower", Layer: "core", Moves: perRoundTime},
	{Name: "core.phases", Unit: "count", Better: "lower", Layer: "core", Exact: true, Moves: modelCost},

	{Name: "resident.load_s", Unit: "s", Better: "lower", Layer: "resident", Moves: loadTime},
	{Name: "resident.first_query_s", Unit: "s", Better: "lower", Layer: "resident", Moves: coldConnTime},
	{Name: "resident.phase0_share", Unit: "ratio", Better: "lower", Layer: "resident", Moves: coldConnTime},
	{Name: "resident.requery_ms", Unit: "ms", Better: "lower", Layer: "resident", Moves: serveMiss},
	{Name: "resident.mst_s", Unit: "s", Better: "lower", Layer: "resident", Moves: "op_p50_s on cold_mst"},
	{Name: "resident.batch_ms", Unit: "ms", Better: "lower", Layer: "resident", Moves: serveMiss},
	{Name: "resident.incr_query_ms", Unit: "ms", Better: "lower", Layer: "resident", Moves: serveMiss},
	{Name: "resident.incr_rounds", Unit: "rounds", Better: "lower", Layer: "resident", Exact: true, Moves: "rounds_per_op on serve_churn"},
	{Name: "resident.heap_after_load_mb", Unit: "MB", Better: "lower", Layer: "resident", Moves: "peak_rss_mb on every workload"},
	{Name: "resident.heap_after_query_mb", Unit: "MB", Better: "lower", Layer: "resident", Moves: "peak_rss_mb on cold_conn and serve_churn"},
	{Name: "resident.close_ms", Unit: "ms", Better: "lower", Layer: "resident", Moves: "op_p50_s on cold_conn and cold_mst"},

	{Name: "dist.job_s", Unit: "s", Better: "lower", Layer: "dist", Moves: tcpOnly},
	{Name: "dist.over_oneshot", Unit: "ratio", Better: "lower", Layer: "dist", Moves: tcpOnly},

	{Name: "server.handler_hit_us", Unit: "us", Better: "lower", Layer: "server", Moves: serveHit},
	{Name: "server.http_hit_us", Unit: "us", Better: "lower", Layer: "server", Moves: serveHit},
	{Name: "server.metrics_us", Unit: "us", Better: "lower", Layer: "server", Moves: serveHit},
	{Name: "server.batch_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: serveMiss},
	{Name: "server.miss_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: serveMiss},
	{Name: "server.hit_share", Unit: "ratio", Better: "higher", Layer: "server", Moves: serveMiss},
	{Name: "server.shed_share", Unit: "ratio", Better: "lower", Layer: "server", Moves: "ok_share on serve_churn"},
	{Name: "server.resp_bytes", Unit: "B", Better: "lower", Layer: "server", Moves: serveHit},

	{Name: "proc.gc_cycles_per_op", Unit: "count", Better: "lower", Layer: "proc", Moves: procPressure},
	{Name: "proc.gc_pause_ms_per_op", Unit: "ms", Better: "lower", Layer: "proc", Moves: procPressure},
	{Name: "proc.cpu_sys_s_per_op", Unit: "s", Better: "lower", Layer: "proc", Moves: procPressure},
	{Name: "proc.live_heap_peak_mb", Unit: "MB", Better: "lower", Layer: "proc", Moves: "peak_rss_mb"},

	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower", Layer: "bench", Moves: benchOverhead},
}

// benchmarkJSON is the contract file's shape.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// checkContract refuses to run when BENCHMARK.json and the registry name
// different workloads or metrics. bench/ is a module of its own, so the
// registry test is not part of the root's `go test ./...`; this keeps the two
// from drifting apart unnoticed all the same.
func checkContract(root string) error {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var file, code []string
	for _, w := range doc.Workloads {
		file = append(file, "workload "+w.Name)
	}
	for _, m := range doc.EndToEnd {
		if m.Bound == nil {
			return fmt.Errorf("BENCHMARK.json: end-to-end metric %s has no bound", m.Name)
		}
		file = append(file, fmt.Sprintf("end-to-end %s %s %s %v", m.Name, m.Unit, m.Better, *m.Bound))
	}
	for _, m := range doc.PerLayer {
		file = append(file, fmt.Sprintf("per-layer %s %s %s", m.Name, m.Unit, m.Better))
	}
	for _, w := range workloads {
		code = append(code, "workload "+w.Name)
	}
	for _, m := range endToEnd {
		code = append(code, fmt.Sprintf("end-to-end %s %s %s %v", m.Name, m.Unit, m.Better, m.Bound))
	}
	for _, m := range perLayer {
		code = append(code, fmt.Sprintf("per-layer %s %s %s", m.Name, m.Unit, m.Better))
	}
	for i := 0; i < len(file) || i < len(code); i++ {
		switch {
		case i >= len(file):
			return fmt.Errorf("BENCHMARK.json lacks %q, which bench/spec.go has", code[i])
		case i >= len(code):
			return fmt.Errorf("bench/spec.go lacks %q, which BENCHMARK.json has", file[i])
		case file[i] != code[i]:
			return fmt.Errorf("BENCHMARK.json has %q where bench/spec.go has %q", file[i], code[i])
		}
	}
	return nil
}

func findMetric(specs []metricSpec, name string) (metricSpec, bool) {
	for _, m := range specs {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
