package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("median sorted its input in place")
	}
	// Nearest rank: with fewer than 100 samples the 99th percentile is the
	// maximum; with 1000 it has ten samples beyond it.
	if got := percentile(xs, 99); got != 5 {
		t.Errorf("p99 of 5 samples = %v, want the maximum", got)
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(big, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if percentile(nil, 99) != 0 || median(nil) != 0 {
		t.Error("empty input must read 0")
	}
}

// A window's timings are its best block's, each on its own: a block that a
// spell slowed must not show, whichever metric it is worst on.
func TestBlockTimings(t *testing.T) {
	got := blockTimings([]blockStat{
		{p50: 70e-6, p99: 0.030, rate: 1000, cpu: 0.9e-3},
		{p50: 95e-6, p99: 0.028, rate: 800, cpu: 1.2e-3}, // disturbed, with lucky batches
		{p50: 68e-6, p99: 0.031, rate: 1050, cpu: 1.0e-3},
	})
	want := timings{p50: 68e-6, p99: 0.028, opsPerS: 1050, cpuPerOp: 0.9e-3}
	if got != want {
		t.Errorf("blockTimings = %+v, want %+v", got, want)
	}
	if blockTimings(nil) != (timings{}) {
		t.Error("no blocks must read as no timings")
	}
	if m := mean([]float64{1, 2, 6}); m != 3 || mean(nil) != 0 {
		t.Errorf("mean = %v", m)
	}
}

// The spread rule is Python's statistics.quantiles(xs, n=4); the expected
// values below were computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{2, 1})
	if !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles(1,2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1.2, 1.5, 1.1, 1.3, 1.9})
	if !near(q1, 1.15) || !near(q3, 1.7) {
		t.Errorf("quartiles of five = %v, %v, want 1.15, 1.7", q1, q3)
	}
	if s, ok := spread([]float64{1.2, 1.5, 1.1, 1.3, 1.9}); !ok || !near(s, 0.55/1.3) {
		t.Errorf("spread = %v, %v", s, ok)
	}
	if _, ok := spread([]float64{1}); ok {
		t.Error("one value has no spread")
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "op_p50_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	ok := metricSpec{Name: "ok_share", Unit: "ratio", Better: "higher", Bound: 0.00001}
	for _, tc := range []struct {
		name  string
		spec  metricSpec
		exact bool
		a, b  []float64
		want  string
	}{
		{"within the bound", lower, false, []float64{1.00, 1.01}, []float64{1.05, 1.06}, verdictUnchanged},
		{"beyond the bound", lower, false, []float64{1.00, 1.01}, []float64{1.20, 1.21}, verdictRegressed},
		{"better beyond the bound", lower, false, []float64{1.00, 1.01}, []float64{0.80, 0.81}, verdictImproved},
		{"a higher-is-better metric that fell", higher, false, []float64{100, 101}, []float64{80, 81}, verdictRegressed},
		{"a higher-is-better metric that rose", higher, false, []float64{100, 101}, []float64{120, 121}, verdictImproved},
		// The sets' own spread is wider than the bound: inside the bound
		// they cannot tell, and must not call the cell unchanged or improved.
		{"spread wider than the bound", lower, false, []float64{1.0, 1.3}, []float64{1.05, 1.35}, verdictUnresolved},
		{"equal medians, wide spread", lower, false, []float64{1.0, 1.3}, []float64{1.0, 1.3}, verdictUnresolved},
		{"better, but the spread is wider than the bound", lower, false, []float64{1.0, 1.3}, []float64{0.8, 1.1}, verdictUnresolved},
		{"worse beyond the bound stays a regression", lower, false, []float64{1.0, 1.3}, []float64{1.2, 1.5}, verdictRegressed},
		{"single runs are judged on the bound alone", lower, false, []float64{1.0}, []float64{1.2}, verdictRegressed},
		// Any rise in failures fails: one failed op in 12000 is a share of
		// 8.3e-5, far beyond ok_share's bound.
		{"one failure in 12000", ok, false, []float64{1, 1}, []float64{1, 1 - 2.0/12000}, verdictRegressed},
		{"one failure in 12000, single runs", ok, false, []float64{1}, []float64{1 - 1.0/12000}, verdictRegressed},
		{"no failures", ok, false, []float64{1, 1}, []float64{1, 1}, verdictUnchanged},
		{"an exact count that repeats", lower, true, []float64{1808, 1808}, []float64{1808}, verdictUnchanged},
		{"an exact count that moved by one", lower, true, []float64{1808}, []float64{1809}, verdictChanged},
		{"an exact count that drifts inside a set", lower, true, []float64{1808, 1809}, []float64{1808, 1809}, verdictChanged},
	} {
		if got := judge(tc.spec, tc.exact, tc.a, tc.b); got.Verdict != tc.want {
			t.Errorf("%s: %s, want %s (%v)", tc.name, got.Verdict, tc.want, got)
		}
	}
	if w := worseBy(0, 1, "lower"); !math.IsInf(w, 1) {
		t.Errorf("a metric that left zero is infinitely worse, got %v", w)
	}
}

func resultSet(seed int64, trace int, workload string, metrics map[string]float64, n int) *resultsFile {
	f := &resultsFile{Schema: resultsSchema}
	for i := 0; i < n; i++ {
		r := runResult{Workload: workload, Seed: seed, Trace: trace, Correct: true, Metrics: map[string]metricValue{}}
		for name, v := range metrics {
			r.Metrics[name] = metricValue{Value: v}
		}
		f.Runs = append(f.Runs, r)
	}
	return f
}

func TestCompareSets(t *testing.T) {
	verdicts := func(a, b *resultsFile) map[string]string {
		out := map[string]string{}
		for _, c := range compareSets(a, b) {
			out[c.Workload+"/"+c.Metric] = c.Verdict
		}
		return out
	}
	a := resultSet(1, 0, wlColdConn, map[string]float64{"op_p50_s": 1.25, "rounds_per_op": 1808}, 2)
	b := resultSet(1, 0, wlColdConn, map[string]float64{"op_p50_s": 1.75, "rounds_per_op": 1810}, 2)
	got := verdicts(a, b)
	if got["cold_conn/op_p50_s"] != verdictRegressed {
		t.Errorf("op_p50_s +40%%: %v", got)
	}
	// +0.1% is inside rounds_per_op's bound, but with one seed on both
	// sides the count must repeat exactly.
	if got["cold_conn/rounds_per_op"] != verdictChanged {
		t.Errorf("rounds_per_op moved at a fixed seed: %v", got)
	}
	// Different seeds are different inputs: the count is judged by its bound.
	b.Runs[0].Seed, b.Runs[1].Seed = 2, 2
	if got := verdicts(a, b); got["cold_conn/rounds_per_op"] != verdictUnchanged {
		t.Errorf("rounds_per_op across seeds: %v", got)
	}
	// serve_churn's rounds depend on how the clients interleave.
	sa := resultSet(1, 0, wlServeChurn, map[string]float64{"rounds_per_op": 3.00}, 1)
	sb := resultSet(1, 0, wlServeChurn, map[string]float64{"rounds_per_op": 3.05}, 1)
	if got := verdicts(sa, sb); got["serve_churn/rounds_per_op"] != verdictUnchanged {
		t.Errorf("serve_churn rounds_per_op: %v", got)
	}
	// Of a traced run only the exact per-layer metrics are compared.
	ta := resultSet(1, 1, wlColdMST, map[string]float64{"core.phases": 13, "core.oneshot_s": 1.0}, 1)
	tb := resultSet(1, 1, wlColdMST, map[string]float64{"core.phases": 14, "core.oneshot_s": 2.0}, 1)
	got = verdicts(ta, tb)
	if got["cold_mst/core.phases"] != verdictChanged || len(got) != 1 {
		t.Errorf("traced sets: %v", got)
	}
	if cells := compareSets(a, ta); len(cells) != 0 {
		t.Errorf("sets with nothing in common compared: %v", cells)
	}
	// One bad run among three leaves the median of ok_share at 1: the cell
	// is judged on the worst run.
	oa := resultSet(1, 0, wlServeChurn, map[string]float64{"ok_share": 1}, 3)
	ob := resultSet(1, 0, wlServeChurn, map[string]float64{"ok_share": 1}, 3)
	ob.Runs[1].Metrics["ok_share"] = metricValue{Value: 1 - 1.0/12000}
	if got := verdicts(oa, ob); got["serve_churn/ok_share"] != verdictRegressed {
		t.Errorf("one failed op in one run of three: %v", got)
	}
}

// TestCompareFailsOnFailedOps: the same failure on both sides leaves every
// cell unchanged, and -compare must still fail on it.
func TestCompareFailsOnFailedOps(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, failed int) string {
		f := resultSet(1, 0, wlColdConn, map[string]float64{"op_p50_s": 1.25, "ok_share": 1 - float64(failed)/16}, 2)
		for i := range f.Runs {
			f.Runs[i].Attempted, f.Runs[i].Failed, f.Runs[i].Correct = 16, failed, failed == 0
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good, bad := write("good.json", 0), write("bad.json", 2)
	for _, tc := range []struct {
		name string
		a, b string
		want int
	}{
		{"no failures", good, good, 0},
		{"the same failures on both sides", bad, bad, 1},
		{"failures in the change only", good, bad, 1},
		{"failures in the baseline only", bad, good, 0},
	} {
		if code, err := compareFiles(tc.a, tc.b); err != nil || code != tc.want {
			t.Errorf("%s: exit code %d, %v, want %d", tc.name, code, err, tc.want)
		}
	}
	if set, _ := readResults(bad); reportFailed("bad", set) != 1 {
		t.Error("reportFailed passed a set with failed ops")
	}
}

// TestRegistryMatchesBenchmarkJSON pins BENCHMARK.json and the code's
// registry to each other, and both to the contract's name rules and caps.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkContract(".."); err != nil {
		t.Errorf("the start-up check: %v", err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(keys))
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the code's default window is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q breaks the name rule", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if n := len(doc.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code (2..8 allowed)", n, len(workloads))
	}
	for i, w := range doc.Workloads {
		checkName("workload", w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: JSON %q, code %q (or their reasons differ)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || regexp.MustCompile(`\n`).MatchString(w.Why) {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, ok := defaultScale[w.Name]; !ok {
			t.Errorf("workload %s has no defined size", w.Name)
		}
	}

	if n := len(doc.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code (1..16 allowed)", n, len(endToEnd))
	}
	hasSetup := false
	for i, m := range doc.EndToEnd {
		checkName("end-to-end metric", m.Name)
		c := endToEnd[i]
		if m.Bound == nil || m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || *m.Bound != c.Bound {
			t.Errorf("end-to-end metric %d: JSON %+v, code %+v", i, m, c)
			continue
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q breaks the rules", m.Name, m.Unit, m.Better)
		}
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > c.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if n := len(doc.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code (1..128 allowed)", n, len(perLayer))
	}
	for i, m := range doc.PerLayer {
		checkName("per-layer metric", m.Name)
		c := perLayer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per-layer metric %d: JSON %+v, code %+v", i, m, c)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q breaks the rules", m.Name, m.Unit, m.Better)
		}
		if c.Layer == "" || c.Moves == "" {
			t.Errorf("%s: the registry must name its layer and what it should move", m.Name)
		}
	}
	for n := range windowMetrics {
		if _, ok := findMetric(perLayer, n); !ok {
			t.Errorf("windowMetrics names %q, which is not a per-layer metric", n)
		}
	}
}

// smokeScale is small enough for tier-1 and large enough that every layer
// does work (several phases, a handful of components, real churn).
var smokeScale = map[string]scale{
	wlColdConn:   {N: 512, M: 1024, K: 4},
	wlColdMST:    {N: 512, M: 1536, K: 4},
	wlTCPConn:    {N: 512, M: 1024, K: 4},
	wlServeChurn: {N: 512, M: 1024, K: 4},
}

// TestWorkloadsSmoke runs every workload small, oracles on, and checks that
// it emits exactly the end-to-end metrics the registry names, none of them
// zero, and leaves nothing behind.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			work := t.TempDir()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			res, err := runWorkload(ctx, runOptions{Workload: w.Name, Seed: 7, Seconds: 0.15, Setups: 2,
				Scale: smokeScale[w.Name], WorkDir: work})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || res.Samples < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d samples=%d notes=%v",
					res.Correct, res.Attempted, res.Failed, res.Samples, res.Notes)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics emitted, the registry has %d", len(res.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %+v (emitted: %v); an end-to-end metric is never zero", m.Name, v, ok)
				}
			}
			if left, _ := os.ReadDir(work); len(left) != 0 {
				t.Errorf("the run left %d entries in its work directory", len(left))
			}
		})
	}
}

// TestTracedSmoke runs the traced run of one workload small: every
// per-layer metric must be emitted, and the trace must load.
func TestTracedSmoke(t *testing.T) {
	work, out := t.TempDir(), t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := runWorkload(ctx, runOptions{Workload: wlServeChurn, Seed: 7, Seconds: 1, Trace: true, Setups: 1,
		Scale: smokeScale[wlServeChurn], WorkDir: work, OutDir: out, traceOps: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v failed=%d notes=%v", res.Correct, res.Failed, res.Notes)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics emitted, the registry has %d", len(res.Metrics), len(perLayer))
	}
	for _, m := range perLayer {
		if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s = %+v (emitted: %v)", m.Name, v, ok)
		}
	}
	data, err := os.ReadFile(filepath.Join(out, "trace."+wlServeChurn+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string             `json:"name"`
			Cat  string             `json:"cat"`
			Ph   string             `json:"ph"`
			Dur  float64            `json:"dur"`
			Args map[string]float64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, e := range trace.TraceEvents {
		layers[e.Cat] = true
		if e.Ph != "X" || e.Dur < 0 || e.Args["self_us"] > e.Dur+1e-6 {
			t.Fatalf("bad span %+v", e)
		}
	}
	for _, l := range []string{"store", "kmachine", "sketch", "wire", "proxy", "transport", "core", "resident", "dist", "server"} {
		if !layers[l] {
			t.Errorf("no span of layer %s in the trace", l)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin("bench", "op", 0, 1, 1)
	child := tr.begin("resident", "job", root, 1, 1)
	time.Sleep(2 * time.Millisecond)
	tr.end(child)
	tr.end(root)
	self := tr.selfTimes()
	total := tr.spans[root-1].End - tr.spans[root-1].Start
	inner := tr.spans[child-1].End - tr.spans[child-1].Start
	if self[root] != total-inner || self[child] != inner {
		t.Errorf("self times %v, want root %v and child %v", self, total-inner, inner)
	}
	var none *tracer
	if id := none.begin("x", "y", 0, 0, 0); id != 0 || none.end(id) != 0 {
		t.Error("a nil tracer must record nothing")
	}
}
