package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// Ops of the traced run: few, because its numbers are per-layer shares and
// counts, not the end-to-end timings (those are taken with tracing off).
const (
	tracedJobOps   = jobInstances // one cycle over the inputs
	tracedRequests = 2000
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOptions selects one run of one workload.
type runOptions struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Setups   int    // zero: setupsPerRun; the smoke tests set up fewer times
	Scale    scale  // zero: the workload's defined size
	WorkDir  string // fixtures go to a fresh .bench_work-* directory in it
	OutDir   string // trace.<workload>.json goes here
	traceOps int    // zero: tracedJobOps / tracedRequests
}

// runResult is one run of one workload, as results.json records it.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Scale     scale                  `json:"scale"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Samples   int                    `json:"samples"` // timed ops behind op_p50_s
	WallS     float64                `json:"wall_s"`  // the whole run, set-up included
	TracedP50 float64                `json:"traced_op_p50_s,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Notes     []string               `json:"notes,omitempty"`
}

func (r *runResult) set(specs []metricSpec, name string, v float64) {
	spec, ok := findMetric(specs, name)
	if !ok {
		panic("bench: metric " + name + " is not in the registry")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: spec.Unit}
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// runWorkload sets the workload up from the seed, measures it, checks every
// answer, tears everything down and reports. State never carries between
// runs: fixtures are regenerated into a fresh directory and every residency,
// server and worker is made here and closed here.
func runWorkload(ctx context.Context, o runOptions) (*runResult, error) {
	if !knownWorkload(o.Workload) {
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if o.Scale == (scale{}) {
		o.Scale = defaultScale[o.Workload]
	}
	if o.Setups < 1 {
		o.Setups = setupsPerRun
	}
	started := time.Now()
	goroutines := runtime.NumGoroutine()
	res := &runResult{Workload: o.Workload, Seed: o.Seed, Seconds: o.Seconds, Scale: o.Scale,
		Metrics: map[string]metricValue{}}

	dir, err := os.MkdirTemp(o.WorkDir, ".bench_work-"+o.Workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set up several times and report the fastest: one set-up is a single
	// sample of something a later change may move work into, and the box
	// only ever adds time to it.
	var sess session
	var setups []float64
	for i := 0; i < o.Setups; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		s, err := setupWorkload(ctx, o.Workload, o.Scale, o.Seed, sub)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < o.Setups-1 {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
			os.RemoveAll(sub)
			continue
		}
		sess = s
	}

	if o.Trace {
		res.Trace = 1
		err = traced(ctx, o, sess, res)
	} else {
		var w *window
		if w, err = sess.measure(ctx, limit{seconds: o.Seconds}, nil); err == nil {
			endToEndMetrics(res, w, slices.Min(setups))
		}
	}
	if cerr := sess.close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	if s, ok := sess.(*serveSession); ok && s.exhausted {
		res.note("the update stream of %d batches ran out: the writer read instead", serveBatches)
	}
	if leaked := waitGoroutines(goroutines); leaked > 0 {
		res.Failed++
		res.note("%d goroutines outlived the run", leaked)
	}
	res.Correct = res.Failed == 0
	res.WallS = time.Since(started).Seconds()
	return res, nil
}

// waitGoroutines waits briefly for the goroutine count to return to the
// baseline and reports how many are left over.
func waitGoroutines(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		extra := runtime.NumGoroutine() - baseline
		if extra <= 0 || time.Now().After(deadline) {
			return max(extra, 0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// perOp divides a window total by the ops that completed.
func perOp(total float64, w *window) float64 {
	if len(w.latencies) == 0 {
		return 0
	}
	return total / float64(len(w.latencies))
}

func (r *runResult) count(w *window) {
	r.Attempted += w.attempted
	r.Failed += w.failed
	r.Notes = append(r.Notes, w.notes...)
}

// endToEndMetrics fills in what a user of the system would see, from an
// untraced window.
func endToEndMetrics(r *runResult, w *window, setupS float64) {
	r.count(w)
	r.Samples = len(w.latencies)
	r.set(endToEnd, "setup_s", setupS)
	r.set(endToEnd, "op_p50_s", w.timings.p50)
	r.set(endToEnd, "op_p99_s", w.timings.p99)
	r.set(endToEnd, "ops_per_s", w.timings.opsPerS)
	r.set(endToEnd, "ok_share", float64(w.attempted-w.failed)/float64(w.attempted))
	r.set(endToEnd, "rounds_per_op", perOp(w.rounds, w))
	r.set(endToEnd, "alloc_mb_per_op", perOp(float64(w.after.allocBytes-w.before.allocBytes)/1e6, w))
	r.set(endToEnd, "peak_rss_mb", peakRSSMB())
	r.set(endToEnd, "cpu_user_s_per_op", w.timings.cpuPerOp)
}

// windowMetrics are the per-layer metrics read off the traced window's ops
// (the others come from the layer probes). On serve_churn they depend on how
// the two clients interleave, so they are exact on the job workloads only.
var windowMetrics = map[string]bool{
	"kmachine.rounds": true, "kmachine.messages": true, "kmachine.payload_mb": true,
	"kmachine.link_skew": true, "sketch.failures_per_op": true,
}

// traced is the traced run: a few ops without spans for reference, the same
// ops again with a span around every call into a layer, then the layer
// probes on the workload's graph. Every per-layer metric comes from here.
func traced(ctx context.Context, o runOptions, sess session, r *runResult) error {
	lim := limit{seconds: o.Seconds, maxOps: o.traceOps}
	if lim.maxOps == 0 {
		lim.maxOps = tracedJobOps
		if o.Workload == wlServeChurn {
			lim.maxOps = tracedRequests
		}
	}
	plain, err := sess.measure(ctx, lim, nil)
	if err != nil {
		return err
	}
	r.count(plain)
	tr := newTracer()
	w, err := sess.measure(ctx, lim, tr)
	if err != nil {
		return err
	}
	r.count(w)
	r.Samples = len(w.latencies)
	r.TracedP50 = median(w.latencies)
	probes, err := runProbes(ctx, sess.fixture(), tr)
	if err != nil {
		return err
	}
	r.Attempted += probes.checked
	r.Failed += probes.failed
	r.Notes = append(r.Notes, probes.notes...)

	for name, v := range probes.out {
		r.set(perLayer, name, v)
	}
	r.set(perLayer, "kmachine.rounds", perOp(w.rounds, w))
	r.set(perLayer, "kmachine.messages", perOp(w.messages, w))
	r.set(perLayer, "kmachine.payload_mb", perOp(w.payloadBytes/1e6, w))
	r.set(perLayer, "kmachine.link_skew", w.linkSkew)
	r.set(perLayer, "sketch.failures_per_op", perOp(w.sketchFailures, w))
	r.set(perLayer, "proc.gc_cycles_per_op", perOp(float64(w.after.gcCycles-w.before.gcCycles), w))
	r.set(perLayer, "proc.gc_pause_ms_per_op", perOp((w.after.gcPauseS-w.before.gcPauseS)*1e3, w))
	r.set(perLayer, "proc.cpu_sys_s_per_op", perOp(w.after.sysS-w.before.sysS, w))
	r.set(perLayer, "proc.live_heap_peak_mb", w.heapPeakMB)
	if base := median(plain.latencies); base > 0 {
		r.set(perLayer, "bench.trace_overhead_share", (median(w.latencies)-base)/base)
	}
	for _, m := range perLayer {
		if _, ok := r.Metrics[m.Name]; !ok {
			r.Failed++
			r.note("per-layer metric %s was not measured", m.Name)
			r.set(perLayer, m.Name, 0)
		}
	}
	if o.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(o.OutDir, "trace."+o.Workload+".json"))
}
