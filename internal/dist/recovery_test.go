package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/resident"
	"kmgraph/internal/store"
	"kmgraph/internal/transport"
	"kmgraph/internal/transport/tcp"
)

// fleetStatic is RunConnectivity under the coordinator options and engine
// configuration it does not take: a residency of spec opened for one
// fresh-sketch run, its Metrics the residency's total (the load included).
func fleetStatic(ctx context.Context, spec FleetSpec, cfg resident.Config) (*core.Result, error) {
	e, err := OpenFleet(spec, cfg)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	res, err := e.Static(ctx)
	if res != nil {
		res.Metrics = e.Metrics().Total
	}
	return res, err
}

// fleetMST is fleetStatic's MST counterpart (golden: core.RunMST).
func fleetMST(ctx context.Context, spec FleetSpec, cfg resident.Config, strong bool) (*core.MSTResult, error) {
	e, err := OpenFleet(spec, cfg)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	res, err := e.MST(ctx, strong)
	if res != nil {
		res.Metrics = e.Metrics().Total
	}
	return res, err
}

// startWorker launches one in-process worker with a fast heartbeat and
// returns it with its dialable address.
func startWorker(t *testing.T) (*Worker, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(ln, WorkerOptions{
		MeshTimeout:       30 * time.Second,
		HeartbeatInterval: 100 * time.Millisecond,
	})
	go w.Serve()
	t.Cleanup(func() { w.Close() })
	return w, w.Addr()
}

// waitJobRunning blocks until one of w's jobs reports at least one
// completed round — the engine is provably mid-run, so a Close here is
// a mid-job kill, not a kill during setup.
func waitJobRunning(t *testing.T, w *Worker) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		for _, js := range w.Jobs() {
			if js.Rounds >= 1 {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never reached a running engine")
}

// respawnDead probes every fleet address and replaces the ones that no
// longer accept connections with freshly started workers — the test
// analog of a supervisor restarting a crashed process.
func respawnDead(t *testing.T, respawned *int) func(context.Context, int, error, []string) ([]string, error) {
	var mu sync.Mutex
	return func(_ context.Context, _ int, _ error, addrs []string) ([]string, error) {
		mu.Lock()
		defer mu.Unlock()
		out := append([]string(nil), addrs...)
		for i, a := range out {
			c, err := net.DialTimeout("tcp", a, time.Second)
			if err != nil {
				_, na := startWorker(t)
				out[i] = na
				*respawned++
				continue
			}
			c.Close()
		}
		return out, nil
	}
}

// TestRetryRecoversKilledWorkerConnectivity is the recovery acceptance
// for connectivity: a worker dies mid-job, the coordinator retries with
// a respawned replacement, and the recovered result — labels, component
// count, and the full Metrics fingerprint — is bit-identical to the
// fault-free local golden.
func TestRetryRecoversKilledWorkerConnectivity(t *testing.T) {
	const (
		n, m = 8000, 24000
		gs   = int64(3)
	)
	cfg := core.Config{K: 6, Seed: 5}
	golden, err := core.RunSource(graph.StreamGNM(n, m, gs), cfg)
	if err != nil {
		t.Fatal(err)
	}

	_, a0 := startWorker(t)
	victim, a1 := startWorker(t)
	go func() {
		waitJobRunning(t, victim)
		victim.Close()
	}()

	respawned := 0
	opts := CoordOptions{Retry: RetryPolicy{
		Attempts:   3,
		Backoff:    50 * time.Millisecond,
		MaxBackoff: 200 * time.Millisecond,
		Respawn:    respawnDead(t, &respawned),
	}}
	spec := fmt.Sprintf("gnm:%d:%d:%d", n, m, gs)
	res, err := fleetStatic(context.Background(), FleetSpec{Source: spec, Addrs: []string{a0, a1}, Coord: opts}, resident.Config{Config: cfg})
	if err != nil {
		t.Fatalf("job did not recover: %v", err)
	}
	if respawned == 0 {
		t.Fatal("job succeeded without respawning the killed worker; the kill missed the run")
	}
	if res.Components != golden.Components {
		t.Errorf("components: recovered %d, golden %d", res.Components, golden.Components)
	}
	for v := range golden.Labels {
		if res.Labels[v] != golden.Labels[v] {
			t.Fatalf("label of vertex %d drifted after recovery", v)
		}
	}
	if rf, gf := metricsFingerprint(&res.Metrics), metricsFingerprint(&golden.Metrics); rf != gf {
		t.Errorf("metrics fingerprint drifted after recovery: %d vs %d", rf, gf)
	}
}

// TestRetryRecoversKilledWorkerMST is the same acceptance for MST, with
// the graph served from a kmgs store.
func TestRetryRecoversKilledWorkerMST(t *testing.T) {
	const (
		n, m = 3000, 9000
	)
	g := graph.WithDistinctWeights(graph.GNM(n, m, 5), 6)
	path := filepath.Join(t.TempDir(), "g.kmgs")
	if err := store.WriteFile(path, g.Source()); err != nil {
		t.Fatal(err)
	}
	cfg := core.MSTConfig{Config: core.Config{K: 4, Seed: 3}}
	golden, err := core.RunMST(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	_, a0 := startWorker(t)
	victim, a1 := startWorker(t)
	go func() {
		waitJobRunning(t, victim)
		victim.Close()
	}()

	respawned := 0
	opts := CoordOptions{Retry: RetryPolicy{
		Attempts:   3,
		Backoff:    50 * time.Millisecond,
		MaxBackoff: 200 * time.Millisecond,
		Respawn:    respawnDead(t, &respawned),
	}}
	res, err := fleetMST(context.Background(), FleetSpec{Source: "store:" + path, Addrs: []string{a0, a1}, Coord: opts},
		resident.Config{Config: cfg.Config}, cfg.StrongOutput)
	if err != nil {
		t.Fatalf("job did not recover: %v", err)
	}
	if respawned == 0 {
		t.Fatal("job succeeded without respawning the killed worker; the kill missed the run")
	}
	if res.TotalWeight != golden.TotalWeight || len(res.Edges) != len(golden.Edges) {
		t.Errorf("forest: recovered weight=%d/%d edges, golden weight=%d/%d edges",
			res.TotalWeight, len(res.Edges), golden.TotalWeight, len(golden.Edges))
	}
	for i := range golden.Edges {
		if res.Edges[i] != golden.Edges[i] {
			t.Fatalf("edge %d drifted after recovery", i)
		}
	}
	if rf, gf := metricsFingerprint(&res.Metrics), metricsFingerprint(&golden.Metrics); rf != gf {
		t.Errorf("metrics fingerprint drifted after recovery: %d vs %d", rf, gf)
	}
}

// TestSilentWorkerStallsPromptly is the goroutine-leak regression for
// the coordinator's gather: a worker that accepts the job but never
// answers (and never heartbeats) must fail the job at the heartbeat
// deadline — classified as a stall — and leave no coordinator
// goroutines or connections behind.
func TestSilentWorkerStallsPromptly(t *testing.T) {
	base := runtime.NumGoroutine()

	addr, _, stop := silentListener(t)

	cfg := core.Config{K: 2, Seed: 1}
	opts := CoordOptions{HeartbeatTimeout: 300 * time.Millisecond}
	start := time.Now()
	_, err := fleetStatic(context.Background(), FleetSpec{Source: "gnm:200:600:1", Addrs: []string{addr}, Coord: opts},
		resident.Config{Config: cfg})
	if err == nil {
		t.Fatal("job succeeded against a silent worker")
	}
	if !errors.Is(err, transport.ErrLinkDown) {
		t.Fatalf("err = %v, want wrapping transport.ErrLinkDown", err)
	}
	var ld *transport.LinkDownError
	if !errors.As(err, &ld) || ld.Reason != transport.ReasonStall {
		t.Fatalf("err = %v, want stall classification", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stall detection took %v, want within the heartbeat deadline's order", elapsed)
	}

	// The accept loop is ours; everything the coordinator spawned must be
	// gone.
	stop()
	waitGoroutines(t, base)
}

// silentListener accepts connections and never answers them. It returns
// its address, the number accepted so far, and a stop (also run at test
// cleanup) that closes it and every connection it holds.
func silentListener(t *testing.T) (addr string, accepted func() int, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	stop = func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
		held = nil
	}
	t.Cleanup(stop)
	accepted = func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(held)
	}
	return ln.Addr().String(), accepted, stop
}

// TestGarbageHeartbeatsFailAsDesync closes a coordinator liveness hole: a
// worker that takes the job and then streams heartbeats that do not
// decode used to refresh the read deadline with every frame and keep the
// job "alive" until the caller's own deadline. It must fail promptly as a
// desync link-down — well under HeartbeatTimeout — and, being link-down,
// be retried under the default policy.
func TestGarbageHeartbeatsFailAsDesync(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var jobs atomic.Int32
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				var buf []byte
				if ft, _, err := tcp.ReadFrame(c, &buf); err != nil || ft != tcp.FrameJob {
					return
				}
				jobs.Add(1)
				beat := tcp.AppendFrame(nil, tcp.FrameHeartbeat, []byte{0xff})
				for {
					if _, err := c.Write(beat); err != nil {
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
			}()
		}
	}()

	const hbTimeout = 30 * time.Second
	opts := CoordOptions{
		HeartbeatTimeout: hbTimeout,
		Retry:            RetryPolicy{Attempts: 2, Backoff: 10 * time.Millisecond},
	}
	start := time.Now()
	_, err = fleetStatic(context.Background(), FleetSpec{Source: "gnm:200:600:1", Addrs: []string{ln.Addr().String()}, Coord: opts},
		resident.Config{Config: core.Config{K: 2, Seed: 1}})
	if !errors.Is(err, transport.ErrLinkDown) {
		t.Fatalf("err = %v, want wrapping transport.ErrLinkDown", err)
	}
	var ld *transport.LinkDownError
	if !errors.As(err, &ld) || ld.Reason != transport.ReasonDesync {
		t.Fatalf("err = %v, want desync classification", err)
	}
	if elapsed := time.Since(start); elapsed > hbTimeout/4 {
		t.Fatalf("garbage heartbeats held the job for %v (HeartbeatTimeout %v)", elapsed, hbTimeout)
	}
	if got := jobs.Load(); got != 2 {
		t.Fatalf("worker was shipped the job %d times, want 2 (the desync is retryable)", got)
	}
}

// TestDrainFinishesActiveJob pins graceful drain: a worker draining
// mid-job lets the job run to completion (the coordinator gets the full
// result), then reports idle with no orphaned cluster inboxes.
func TestDrainFinishesActiveJob(t *testing.T) {
	const (
		n, m = 8000, 24000
		gs   = int64(3)
	)
	cfg := core.Config{K: 4, Seed: 5}
	golden, err := core.RunSource(graph.StreamGNM(n, m, gs), cfg)
	if err != nil {
		t.Fatal(err)
	}

	_, a0 := startWorker(t)
	w1, a1 := startWorker(t)

	type outcome struct {
		res *core.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		spec := fmt.Sprintf("gnm:%d:%d:%d", n, m, gs)
		res, err := RunConnectivity(context.Background(), []string{a0, a1}, spec, cfg)
		done <- outcome{res, err}
	}()

	waitJobRunning(t, w1)
	drained := make(chan error, 1)
	go func() { drained <- w1.Drain(context.Background()) }()

	o := <-done
	if o.err != nil {
		t.Fatalf("job failed under drain: %v", o.err)
	}
	if o.res.Components != golden.Components {
		t.Errorf("components: drained %d, golden %d", o.res.Components, golden.Components)
	}
	if metricsFingerprint(&o.res.Metrics) != metricsFingerprint(&golden.Metrics) {
		t.Error("metrics fingerprint drifted under drain")
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain = %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Drain did not return after the job finished")
	}
	if jobs := w1.Jobs(); len(jobs) != 0 {
		t.Fatalf("drained worker still reports jobs: %+v", jobs)
	}
	w1.mu.Lock()
	orphans := len(w1.meshes)
	w1.mu.Unlock()
	if orphans != 0 {
		t.Fatalf("drained worker holds %d orphaned cluster inboxes", orphans)
	}
}

// TestCancelDuringMeshDialReleasesWorker: a job cancelled while a worker
// is dialing a lower-index participant that accepts and never says hello
// must let go of that worker at once. tcp.Dial used to take no context, so
// the dial sat out HandshakeTimeout (30 s) per attempt and Worker.Close
// waited with it.
func TestCancelDuringMeshDialReleasesWorker(t *testing.T) {
	silent, accepted, _ := silentListener(t)
	w, addr := startWorker(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := RunConnectivity(ctx, []string{silent, addr}, "gnm:200:600:1", core.Config{K: 2, Seed: 1})
		done <- err
	}()
	// The silent listener holds two connections once the worker is in its
	// hello wait: the coordinator's control link and the worker's dial.
	for deadline := time.Now().Add(10 * time.Second); accepted() < 2 || len(w.Jobs()) == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("worker never dialed: %d connections, %d jobs", accepted(), len(w.Jobs()))
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("job err = %v, want context.Canceled", err)
	}
	start := time.Now()
	w.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Worker.Close took %v with the job cancelled mid-dial, want under a second", d)
	}
}

// TestErrorFrameRoundTrip pins that a worker's structured link-down
// error crosses the control connection intact: peer index, round, and
// reason survive, and the reconstructed error still matches ErrLinkDown.
func TestErrorFrameRoundTrip(t *testing.T) {
	orig := &transport.LinkDownError{
		Peer: 3, Addr: "10.0.0.8:9601", Round: 17,
		Reason: transport.ReasonStall, Err: errors.New("boom"),
	}
	ef, err := decodeErrorFrame(appendErrorFrame(nil, fmt.Errorf("dist: forming mesh: %w", orig)))
	if err != nil {
		t.Fatal(err)
	}
	if !ef.linkDown || ef.peer != 3 || ef.round != 17 || ef.reason != transport.ReasonStall {
		t.Fatalf("decoded frame = %+v", ef)
	}
	e := ef.err()
	if !errors.Is(e, transport.ErrLinkDown) {
		t.Fatal("reconstructed error lost the ErrLinkDown identity")
	}
	var ld *transport.LinkDownError
	if !errors.As(e, &ld) || ld.Peer != 3 || ld.Round != 17 || ld.Reason != transport.ReasonStall {
		t.Fatalf("reconstructed error = %+v", ld)
	}

	// Plain job failures stay plain.
	ef, err = decodeErrorFrame(appendErrorFrame(nil, errors.New("no such file")))
	if err != nil {
		t.Fatal(err)
	}
	if ef.linkDown || errors.Is(ef.err(), transport.ErrLinkDown) {
		t.Fatal("application error classified as link-down")
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// base (goleak-style, mirroring the kmachine cancellation tests).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
