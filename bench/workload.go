package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"kmgraph"
	"kmgraph/internal/core"
	"kmgraph/internal/dist"
	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/store"
)

// scale is a workload's input size. The defaults are the sizes the
// benchmark is defined at; the smoke tests shrink them.
type scale struct {
	N, M, K int
}

var defaultScale = map[string]scale{
	// Ops of 0.125 to 0.3 s, so that a 20 s window repeats each of a job
	// workload's inputs 7 to 20 times and a set-up takes under a second. At
	// G(20000, 60000) (1.3 s an op) a window held two repeats of an input and
	// the timings spread 25 to 58% over ten seeds; G(50000, 150000) measured
	// the kernel's page-fault path (39/19/11 s for three identical runs). See
	// README.md, "Sizing evidence".
	wlColdConn:   {N: 4000, M: 12000, K: 8},
	wlColdMST:    {N: 3000, M: 9000, K: 16},
	wlTCPConn:    {N: 4000, M: 12000, K: 8},
	wlServeChurn: {N: 10000, M: 30000, K: 8},
}

// churnBatchSize is the number of edge operations in one serve_churn batch.
const churnBatchSize = 16

// fixture is everything a workload's inputs are made of, all derived from
// the seed: the update stream (whose initial graph is the workload's
// graph), the graph itself (reweighted for MST), and its store on disk.
type fixture struct {
	sc     scale
	seed   int64
	stream *graph.Stream
	g      *graph.Graph
	path   string // kmgs store of g
}

// newFixture generates the inputs of one workload into dir. batches is the
// number of churn batches to generate beside the graph.
func newFixture(workload string, sc scale, seed int64, dir string, batches int) (*fixture, error) {
	st := graph.RandomChurnStream(sc.N, sc.M, batches, churnBatchSize, 0.5, seed)
	fx := &fixture{sc: sc, seed: seed, stream: st, g: st.Initial, path: filepath.Join(dir, workload+".kmgs")}
	if workload == wlColdMST {
		fx.g = graph.WithDistinctWeights(st.Initial, seed+1)
	}
	if err := store.WriteFile(fx.path, fx.g.Source()); err != nil {
		return nil, fmt.Errorf("writing store: %w", err)
	}
	return fx, nil
}

// limit ends a measurement window: after the given time, or after maxOps
// ops when that is set, whichever comes first. An op in flight finishes.
type limit struct {
	seconds float64
	maxOps  int
}

// timings are a window's four end-to-end timings. Each is estimated from
// the fast side of what the window saw, because a disturbance on a shared
// box only ever adds time: README.md, "Timings on a shared box".
type timings struct {
	p50, p99 float64 // seconds per op
	opsPerS  float64
	cpuPerOp float64 // user CPU seconds per op
}

// window is what one measurement window observed.
type window struct {
	latencies []float64 // seconds per completed op, as measured
	timings   timings
	attempted int
	failed    int
	notes     []string // the first few failures, for the report
	elapsed   float64  // seconds
	before    procSnap
	after     procSnap

	// Model cost over the window (totals; the report divides by ops).
	rounds, messages, payloadBytes float64
	linkSkew                       float64 // max/mean directed-link bits
	sketchFailures                 float64

	// Traced windows only.
	heapPeakMB float64
	hitBytes   []float64 // sizes of serve_churn's cache-hit responses
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.notes) < 8 {
		w.notes = append(w.notes, fmt.Sprintf(format, args...))
	}
}

// session is a set-up workload: fixtures generated, servers and workers
// started, the warm-up op done.
type session interface {
	// measure runs ops until lim ends the window. tr is nil with tracing off.
	measure(ctx context.Context, lim limit, tr *tracer) (*window, error)
	// close stops everything the session started and waits for it.
	close() error
	fixture() *fixture
}

// setupWorkload builds the named workload's session in dir.
func setupWorkload(ctx context.Context, name string, sc scale, seed int64, dir string) (session, error) {
	switch name {
	case wlColdConn, wlColdMST, wlTCPConn:
		return setupJob(ctx, name, sc, seed, dir)
	case wlServeChurn:
		return setupServe(ctx, sc, seed, dir)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// linkSkew is the maximum over the mean of the directed-link loads, the
// quantity Lemma 1 bounds.
func linkSkew(m *kmachine.Metrics) float64 {
	snap := m.Snapshot() // resolves MaxLinkBits
	if mean := snap.MeanLinkBits(); mean > 0 {
		return float64(snap.MaxLinkBits) / mean
	}
	return 0
}

// ---- job workloads: cold_conn, cold_mst, tcp_conn -----------------------

// jobOutcome is one job's answer and model-cost fingerprint.
type jobOutcome struct {
	answer         int64 // components, or MST weight
	rounds         int
	messages       int64
	payloadBytes   int64
	skew           float64
	sketchFailures int64
}

// fingerprint is the part of an outcome that must repeat bit-for-bit over
// the ops of one run: the same job on the same input with the same seed.
type fingerprint struct {
	answer, messages, payloadBytes int64
	rounds                         int
}

func (o jobOutcome) fingerprint() fingerprint {
	return fingerprint{o.answer, o.messages, o.payloadBytes, o.rounds}
}

// jobInstances is how many inputs a job workload cycles through in one run.
// Rounds differ by 5 to 10% between seeds (the algorithm is randomized: 12
// to 17 phases on the same family), so a run on one input measures that
// input's luck. A run therefore generates jobInstances graphs, each with an
// algorithm seed of its own, and its window is whole cycles over them: every
// input is repeated equally often, and every per-op number is a balanced
// mean or a median over the instances.
const jobInstances = 8

// jobInstance is one input of a job workload with its oracle's answer and
// the fingerprint its first op left.
type jobInstance struct {
	fx     *fixture
	oracle int64
	first  *fingerprint
}

// jobSession runs whole jobs as ops, cycling over its instances.
type jobSession struct {
	inst    []*jobInstance
	run     func(ctx context.Context, tr *tracer, op int, fx *fixture) (jobOutcome, error)
	workers []*dist.Worker
	served  sync.WaitGroup
	nextOp  int
}

// fixture returns the first instance's inputs, which the probes run on.
func (s *jobSession) fixture() *fixture { return s.inst[0].fx }

// oracleAnswer computes the sequential reference for one instance.
func oracleAnswer(name string, fx *fixture) (int64, error) {
	if name == wlColdMST {
		_, weight := graph.KruskalMST(fx.g)
		return weight, nil
	}
	// The streaming union-find oracle, over the store the program reads.
	r, err := store.Open(fx.path)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	comps, err := graph.ComponentsFromSource(r.Source())
	return int64(comps), err
}

func setupJob(ctx context.Context, name string, sc scale, seed int64, dir string) (session, error) {
	s := &jobSession{}
	for j := 0; j < jobInstances; j++ {
		sub := filepath.Join(dir, fmt.Sprint("input", j))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, err
		}
		// Only the first instance is probed, and only the probes apply
		// batches: the others carry no update stream.
		batches := 0
		if j == 0 {
			batches = probeBatches
		}
		fx, err := newFixture(name, sc, seed*jobInstances+int64(j), sub, batches)
		if err != nil {
			return nil, err
		}
		want, err := oracleAnswer(name, fx)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		s.inst = append(s.inst, &jobInstance{fx: fx, oracle: want})
	}
	switch name {
	case wlColdConn:
		s.run = coldConn
	case wlColdMST:
		s.run = coldMST
	case wlTCPConn:
		if err := s.startWorkers(2); err != nil {
			s.close()
			return nil, err
		}
		s.run = s.tcpConn
	}
	// The untimed warm-up op: page cache, sketch pools and (over TCP) the
	// listeners are warm before the window opens, as they are for a user's
	// second query.
	out, err := s.run(ctx, nil, 0, s.inst[0].fx)
	if err == nil && out.answer != s.inst[0].oracle {
		err = fmt.Errorf("answer %d, oracle %d", out.answer, s.inst[0].oracle)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return s, nil
}

// startWorkers starts in-process dist workers on loopback listeners.
func (s *jobSession) startWorkers(n int) error {
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		w := dist.NewWorker(ln, dist.WorkerOptions{})
		s.workers = append(s.workers, w)
		s.served.Add(1)
		go func() {
			defer s.served.Done()
			if err := w.Serve(); err != nil {
				fmt.Fprintln(os.Stderr, "bench: worker:", err)
			}
		}()
	}
	return nil
}

func (s *jobSession) close() error {
	for _, w := range s.workers {
		w.Close()
	}
	s.served.Wait()
	s.workers = nil
	return nil
}

// phaseSpans turns a traced cluster's observer events into spans: one per
// merge phase of each job, from the previous event of the job to this one,
// carrying the model rounds the phase took (the WithPhaseMetrics snapshots).
type phaseSpans struct {
	tr         *tracer
	mu         sync.Mutex
	parent     int
	op         int
	lane       int
	open       int // the span of the phase in progress
	openRounds int // the cluster's round counter when it opened
}

func (p *phaseSpans) observe(ev kmgraph.ClusterEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rounds := p.openRounds
	if ev.Snap != nil {
		rounds = ev.Snap.Rounds
	}
	if p.open != 0 {
		p.tr.endRounds(p.open, rounds-p.openRounds)
		p.open = 0
	}
	if ev.Done || p.parent == 0 {
		return
	}
	p.openRounds = rounds
	p.open = p.tr.begin("resident", fmt.Sprintf("%s.phase%d", ev.Job, ev.Phase+1), p.parent, p.op, p.lane)
}

// setParent names the span the following jobs' phases belong under.
func (p *phaseSpans) setParent(id int) {
	p.mu.Lock()
	p.parent = id
	p.mu.Unlock()
}

// coldOp is the cold query a CLI user pays: open the store onto a fresh
// residency, ask one question, close.
func coldOp(ctx context.Context, tr *tracer, op int, fx *fixture,
	ask func(ctx context.Context, c *kmgraph.Cluster) (jobOutcome, error)) (jobOutcome, error) {
	opts := []kmgraph.ClusterOption{kmgraph.WithK(fx.sc.K), kmgraph.WithSeed(fx.seed)}
	var ps *phaseSpans
	if tr != nil {
		ps = &phaseSpans{tr: tr, op: op, lane: 1}
		opts = append(opts, kmgraph.WithObserver(ps.observe), kmgraph.WithPhaseMetrics())
	}
	root := tr.begin("bench", "op", 0, op, 1)
	defer tr.end(root)

	id := tr.begin("resident", "OpenCluster", root, op, 1)
	c, err := kmgraph.OpenCluster(fx.path, opts...)
	tr.end(id)
	if err != nil {
		return jobOutcome{}, err
	}
	id = tr.begin("resident", "job", root, op, 1)
	if ps != nil {
		ps.setParent(id)
	}
	out, err := ask(ctx, c)
	tr.end(id)
	if err == nil {
		total := c.Metrics().Total
		out.rounds, out.messages, out.payloadBytes = total.Rounds, total.Messages, total.PayloadBytes
		out.skew = linkSkew(&total)
	}
	id = tr.begin("resident", "Close", root, op, 1)
	cerr := c.Close()
	tr.end(id)
	return out, errors.Join(err, cerr)
}

func coldConn(ctx context.Context, tr *tracer, op int, fx *fixture) (jobOutcome, error) {
	return coldOp(ctx, tr, op, fx, func(ctx context.Context, c *kmgraph.Cluster) (jobOutcome, error) {
		q, err := c.Connectivity(ctx)
		if err != nil {
			return jobOutcome{}, err
		}
		return jobOutcome{answer: int64(q.Components), sketchFailures: q.SketchFailures}, nil
	})
}

func coldMST(ctx context.Context, tr *tracer, op int, fx *fixture) (jobOutcome, error) {
	return coldOp(ctx, tr, op, fx, func(ctx context.Context, c *kmgraph.Cluster) (jobOutcome, error) {
		r, err := c.MST(ctx)
		if err != nil {
			return jobOutcome{}, err
		}
		return jobOutcome{answer: r.TotalWeight, sketchFailures: r.SketchFailures}, nil
	})
}

// tcpConn is one distributed connectivity job over the loopback workers.
func (s *jobSession) tcpConn(ctx context.Context, tr *tracer, op int, fx *fixture) (jobOutcome, error) {
	addrs := make([]string, len(s.workers))
	for i, w := range s.workers {
		addrs[i] = w.Addr()
	}
	root := tr.begin("bench", "op", 0, op, 1)
	defer tr.end(root)
	id := tr.begin("dist", "RunConnectivity", root, op, 1)
	res, err := dist.RunConnectivity(ctx, addrs, "store:"+fx.path, core.Config{K: fx.sc.K, Seed: fx.seed})
	tr.end(id)
	if err != nil {
		return jobOutcome{}, err
	}
	return jobOutcome{
		answer: int64(res.Components), rounds: res.Metrics.Rounds,
		messages: res.Metrics.Messages, payloadBytes: res.Metrics.PayloadBytes,
		skew: linkSkew(&res.Metrics), sketchFailures: res.SketchFailures,
	}, nil
}

func (s *jobSession) measure(ctx context.Context, lim limit, tr *tracer) (*window, error) {
	w := &window{}
	var poller *heapPoller
	if tr != nil {
		poller = startHeapPoller()
	}
	// The repeats of each instance's op: wall and user CPU seconds.
	type repeats struct{ wall, cpu []float64 }
	reps := make([]repeats, len(s.inst))
	w.before = readProc()
	start := time.Now()
	for done := false; !done; {
		// One whole cycle over the instances, so that the window repeats
		// every instance equally often.
		for j, in := range s.inst {
			if ctx.Err() != nil {
				break
			}
			s.nextOp++
			w.attempted++
			u0 := userCPU()
			t0 := time.Now()
			out, err := s.run(ctx, tr, s.nextOp, in.fx)
			d := time.Since(t0).Seconds()
			u := userCPU() - u0
			switch fp := out.fingerprint(); {
			case err != nil:
				w.fail("op %d: %v", s.nextOp, err)
			case out.answer != in.oracle:
				w.fail("op %d: answer %d, oracle %d", s.nextOp, out.answer, in.oracle)
			case in.first != nil && fp != *in.first:
				// The same job on the same input with the same seed: a
				// drifting fingerprint is a failure, not noise.
				w.fail("op %d: fingerprint %+v drifted from %+v", s.nextOp, fp, *in.first)
			default:
				if in.first == nil {
					in.first = &fp
				}
				w.latencies = append(w.latencies, d)
				reps[j].wall = append(reps[j].wall, d)
				reps[j].cpu = append(reps[j].cpu, u)
				w.rounds += float64(out.rounds)
				w.messages += float64(out.messages)
				w.payloadBytes += float64(out.payloadBytes)
				w.sketchFailures += float64(out.sketchFailures)
				w.linkSkew += out.skew
			}
		}
		w.elapsed = time.Since(start).Seconds()
		done = w.elapsed >= lim.seconds || (lim.maxOps > 0 && w.attempted >= lim.maxOps) || ctx.Err() != nil
	}
	w.after = readProc()
	if poller != nil {
		w.heapPeakMB = poller.stopMB()
	}
	if n := len(w.latencies); n > 0 {
		w.linkSkew /= float64(n)
	}
	// An instance's op is the same work every time, so the fastest of its
	// repeats is the one the box disturbed least. The timings are taken over
	// the instances' fastest repeats: the median instance, the slowest one,
	// the rate of a caller cycling over them, and their mean CPU.
	var wall, cpu []float64
	for _, r := range reps {
		if len(r.wall) > 0 {
			wall = append(wall, slices.Min(r.wall))
			cpu = append(cpu, slices.Min(r.cpu))
		}
	}
	if len(wall) > 0 {
		w.timings = timings{p50: median(wall), p99: percentile(wall, 99), opsPerS: 1 / mean(wall), cpuPerOp: mean(cpu)}
	}
	return w, ctx.Err()
}
