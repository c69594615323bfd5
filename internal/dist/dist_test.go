package dist

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/resident"
	"kmgraph/internal/sketch"
	"kmgraph/internal/store"
	"kmgraph/internal/transport"
	"kmgraph/internal/transport/tcp"
)

// metricsFingerprint folds every field of a Metrics — including the
// full LinkBits matrix and per-machine counters — so any drift between
// the local and TCP backends shows up as a mismatch.
func metricsFingerprint(m *kmachine.Metrics) uint64 {
	h := fnv.New64a()
	add := func(x int64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(uint64(x) >> (8 * i))
		}
		h.Write(b[:])
	}
	add(int64(m.Rounds))
	add(m.Messages)
	add(m.PayloadBytes)
	add(m.MaxLinkBits)
	add(int64(m.DroppedMessages))
	for _, row := range m.LinkBits {
		for _, b := range row {
			add(b)
		}
	}
	for i := range m.SentMsgs {
		add(m.SentMsgs[i])
		add(m.RecvMsgs[i])
	}
	return h.Sum64()
}

// startWorkers launches count in-process workers on localhost listeners
// and returns their dialable addresses.
func startWorkers(t *testing.T, count int) []string {
	t.Helper()
	addrs := make([]string, count)
	for i := 0; i < count; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorker(ln, WorkerOptions{MeshTimeout: 30 * time.Second})
		addrs[i] = w.Addr()
		go w.Serve()
		t.Cleanup(func() { w.Close() })
	}
	return addrs
}

// TestGoldenConnectivityLocalVsTCP pins the tentpole acceptance: the
// same graph, k, and seed produce bit-identical results and Metrics
// fingerprints whether the k machines share a process (local backend)
// or run distributed over TCP across three worker processes.
func TestGoldenConnectivityLocalVsTCP(t *testing.T) {
	const (
		n, m = 600, 1800
		gs   = int64(7)
		k    = 6
		seed = int64(11)
	)
	cfg := core.Config{K: k, Seed: seed}

	local, err := core.RunSource(graph.StreamGNM(n, m, gs), cfg)
	if err != nil {
		t.Fatal(err)
	}

	addrs := startWorkers(t, 3)
	spec := fmt.Sprintf("gnm:%d:%d:%d", n, m, gs)
	dist, err := RunConnectivity(context.Background(), addrs, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if dist.Components != local.Components {
		t.Errorf("components: tcp %d, local %d", dist.Components, local.Components)
	}
	if dist.Phases != local.Phases || dist.SketchFailures != local.SketchFailures {
		t.Errorf("phases/failures: tcp %d/%d, local %d/%d",
			dist.Phases, dist.SketchFailures, local.Phases, local.SketchFailures)
	}
	for v := range local.Labels {
		if dist.Labels[v] != local.Labels[v] {
			t.Fatalf("label of vertex %d: tcp %d, local %d", v, dist.Labels[v], local.Labels[v])
		}
	}
	lf, df := metricsFingerprint(&local.Metrics), metricsFingerprint(&dist.Metrics)
	if lf != df {
		t.Errorf("metrics fingerprint drifted: tcp %d, local %d\n tcp:   %+v\n local: %+v",
			df, lf, dist.Metrics, local.Metrics)
	}
	if local.Metrics.Rounds == 0 || local.Metrics.Messages == 0 {
		t.Fatalf("degenerate local run: %+v", local.Metrics)
	}
}

// TestGoldenMSTLocalVsTCP pins the same equality for MST, serving the
// graph from a kmgs store so every worker loads its slice shard-direct.
func TestGoldenMSTLocalVsTCP(t *testing.T) {
	const (
		n, m = 400, 1200
		k    = 4
		seed = int64(3)
	)
	g := graph.WithDistinctWeights(graph.GNM(n, m, 5), 6)
	path := filepath.Join(t.TempDir(), "g.kmgs")
	if err := store.WriteFile(path, g.Source()); err != nil {
		t.Fatal(err)
	}
	cfg := core.MSTConfig{Config: core.Config{K: k, Seed: seed}}

	local, err := core.RunMST(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	addrs := startWorkers(t, 2)
	dist, err := fleetMST(context.Background(), FleetSpec{Source: "store:" + path, Addrs: addrs},
		resident.Config{Config: cfg.Config}, cfg.StrongOutput)
	if err != nil {
		t.Fatal(err)
	}

	if dist.TotalWeight != local.TotalWeight || len(dist.Edges) != len(local.Edges) {
		t.Errorf("forest: tcp weight=%d/%d edges, local weight=%d/%d edges",
			dist.TotalWeight, len(dist.Edges), local.TotalWeight, len(local.Edges))
	}
	for i := range local.Edges {
		if dist.Edges[i] != local.Edges[i] {
			t.Fatalf("edge %d: tcp %+v, local %+v", i, dist.Edges[i], local.Edges[i])
		}
	}
	lf, df := metricsFingerprint(&local.Metrics), metricsFingerprint(&dist.Metrics)
	if lf != df {
		t.Errorf("metrics fingerprint drifted: tcp %d, local %d", df, lf)
	}
}

// TestConcurrentJobs runs two distributed jobs at once over the same
// worker fleet (distinct cluster IDs route each mesh independently) and
// checks both against their local goldens. Run under -race, this also
// exercises the workers' shared listener routing and telemetry.
func TestConcurrentJobs(t *testing.T) {
	addrs := startWorkers(t, 2)
	jobs := []struct {
		n, m int
		gs   int64
		k    int
		seed int64
	}{
		{500, 1500, 21, 4, 9},
		{450, 900, 22, 6, 13},
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(n, m int, gs int64, k int, seed int64) {
			defer wg.Done()
			cfg := core.Config{K: k, Seed: seed}
			local, err := core.RunSource(graph.StreamGNM(n, m, gs), cfg)
			if err != nil {
				t.Error(err)
				return
			}
			spec := fmt.Sprintf("gnm:%d:%d:%d", n, m, gs)
			dist, err := RunConnectivity(context.Background(), addrs, spec, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if dist.Components != local.Components {
				t.Errorf("n=%d: components tcp %d, local %d", n, dist.Components, local.Components)
			}
			if metricsFingerprint(&dist.Metrics) != metricsFingerprint(&local.Metrics) {
				t.Errorf("n=%d: metrics fingerprint drifted", n)
			}
		}(j.n, j.m, j.gs, j.k, j.seed)
	}
	wg.Wait()
}

// TestStaticMatchesOneShot is the bit-identity matrix of a fleet's jobs
// against the one-shot host: RunConnectivity (a residency's load plus one
// fresh-sketch run) against core.RunSource, and a fleet residency's MST,
// its total Metrics, against core.RunMST — under every ablation a
// residency hosts, tiny sketches that fail often, and a phase cap so small
// that both hosts return the same partial result with ErrNotConverged.
// The tiny-sketch case once diverged (352 against 517 rounds, both with a
// nil error): the job spec did not carry the sketch dimensions.
func TestStaticMatchesOneShot(t *testing.T) {
	const k, seed = 4, int64(3)
	g := graph.WithDistinctWeights(graph.GNM(600, 1800, 7), 8)
	path := filepath.Join(t.TempDir(), "g.kmgs")
	if err := store.WriteFile(path, g.Source()); err != nil {
		t.Fatal(err)
	}
	spec := FleetSpec{Source: "store:" + path, Addrs: startWorkers(t, 2)}
	tiny := sketch.DefaultParams(g.N())
	tiny.Reps, tiny.Buckets = 1, 2
	for name, cfg := range map[string]core.Config{
		"default":            {},
		"CollapseLevelWise":  {CollapseLevelWise: true},
		"CoinMerge":          {CoinMerge: true},
		"FaithfulRandomness": {FaithfulRandomness: true},
		"tiny sketch":        {Sketch: tiny},
		"phase cap":          {MaxPhases: 2},
	} {
		t.Run(name, func(t *testing.T) {
			cfg.K, cfg.Seed = k, seed
			local, lerr := core.RunSource(g.Source(), cfg)
			fleet, ferr := RunConnectivity(context.Background(), spec.Addrs, spec.Source, cfg)
			if lerr != ferr || local == nil || fleet == nil {
				t.Fatalf("connectivity: fleet %v, local %v", ferr, lerr)
			}
			if fleet.Components != local.Components || fleet.Phases != local.Phases ||
				fleet.SketchFailures != local.SketchFailures || fleet.CollapseIters != local.CollapseIters ||
				!reflect.DeepEqual(fleet.Labels, local.Labels) ||
				metricsFingerprint(&fleet.Metrics) != metricsFingerprint(&local.Metrics) {
				t.Errorf("connectivity drifted:\n fleet %d components, %d phases, %d failures, %d collapse, %d rounds\n local %d components, %d phases, %d failures, %d collapse, %d rounds",
					fleet.Components, fleet.Phases, fleet.SketchFailures, fleet.CollapseIters, fleet.Metrics.Rounds,
					local.Components, local.Phases, local.SketchFailures, local.CollapseIters, local.Metrics.Rounds)
			}
			if name == "phase cap" && lerr != core.ErrNotConverged {
				t.Errorf("a 2-phase cap converged (%v): the case tests nothing", lerr)
			}

			lm, lerr := core.RunMST(g, core.MSTConfig{Config: cfg})
			fm, ferr := fleetMST(context.Background(), spec, resident.Config{Config: cfg}, false)
			if lerr != ferr || lm == nil || fm == nil {
				t.Fatalf("MST: fleet %v, local %v", ferr, lerr)
			}
			if !reflect.DeepEqual(fm.Edges, lm.Edges) || fm.Phases != lm.Phases || fm.ElimIters != lm.ElimIters ||
				fm.SketchFailures != lm.SketchFailures || !reflect.DeepEqual(fm.Labels, lm.Labels) ||
				metricsFingerprint(&fm.Metrics) != metricsFingerprint(&lm.Metrics) {
				t.Errorf("MST drifted: fleet %d edges, %d phases, %d rounds; local %d edges, %d phases, %d rounds",
					len(fm.Edges), fm.Phases, fm.Metrics.Rounds, len(lm.Edges), lm.Phases, lm.Metrics.Rounds)
			}
		})
	}
}

// TestRunConnectivityRefusesOneShotSwitches: EdgeCheckSelection and
// CountComponents exist only on the one-shot host; RunConnectivity refuses
// them with resident.ErrBadConfig before it dials anything.
func TestRunConnectivityRefusesOneShotSwitches(t *testing.T) {
	addr, accepted, _ := silentListener(t)
	for _, cfg := range []core.Config{{K: 2, Seed: 1, EdgeCheckSelection: true}, {K: 2, Seed: 1, CountComponents: true}} {
		if _, err := RunConnectivity(context.Background(), []string{addr}, "gnm:200:600:1", cfg); !errors.Is(err, resident.ErrBadConfig) {
			t.Errorf("%+v: err = %v, want ErrBadConfig", cfg, err)
		}
	}
	if n := accepted(); n != 0 {
		t.Errorf("the refusals dialed the fleet %d times", n)
	}
}

// TestKilledWorkerFailsJob shuts one worker down mid-job and asserts
// the coordinator fails promptly with the typed link-down error instead
// of hanging at the next barrier.
func TestKilledWorkerFailsJob(t *testing.T) {
	lns := make([]net.Listener, 2)
	workers := make([]*Worker, 2)
	addrs := make([]string, 2)
	for i := range workers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		workers[i] = NewWorker(ln, WorkerOptions{MeshTimeout: 30 * time.Second})
		addrs[i] = workers[i].Addr()
		go workers[i].Serve()
	}
	defer workers[0].Close()

	cfg := core.Config{K: 8, Seed: 1}
	done := make(chan error, 1)
	go func() {
		_, err := RunConnectivity(context.Background(), addrs, "gnm:20000:60000:3", cfg)
		done <- err
	}()

	// Kill the second worker once the job is under way there — it reports a
	// live round — rather than after a fixed delay, which a faster engine
	// outruns.
	underWay := func() bool {
		for _, j := range workers[1].Jobs() {
			if j.Rounds > 0 {
				return true
			}
		}
		return false
	}
	guard := time.After(60 * time.Second)
	for !underWay() {
		select {
		case err := <-done:
			t.Fatalf("job ended (err %v) before the worker reported a round", err)
		case <-guard:
			t.Fatal("the worker never reported a round of the job")
		case <-time.After(time.Millisecond):
		}
	}
	workers[1].Close()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("job succeeded despite a killed worker")
		}
		if !errors.Is(err, transport.ErrLinkDown) {
			t.Fatalf("err = %v, want wrapping transport.ErrLinkDown", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("job hung after killing a worker")
	}
}

// TestSplitRanges pins the contiguous near-even split.
func TestSplitRanges(t *testing.T) {
	r, err := SplitRanges(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 3}, {3, 6}, {6, 8}}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("SplitRanges(8,3) = %v, want %v", r, want)
		}
	}
	if _, err := SplitRanges(2, 3); err == nil {
		t.Fatal("SplitRanges(2,3) should fail: more workers than machines")
	}
	if _, err := SplitRanges(4, 0); err == nil {
		t.Fatal("SplitRanges(4,0) should fail")
	}
}

// TestJobSpecRoundTrip pins the job wire format.
func TestJobSpecRoundTrip(t *testing.T) {
	j := &Job{
		ClusterID: 0xdeadbeef,
		Source:    "store:/tmp/g.kmgs",
		Config: core.Config{K: 8, Seed: -42, MaxElimIters: 7, CoinMerge: true,
			Sketch: sketch.Params{N: 100, Levels: 16, Buckets: 2, Reps: 1}},
		Index: 1,
		Workers: []WorkerSpec{
			{Addr: "a:1", Lo: 0, Hi: 3},
			{Addr: "b:2", Lo: 3, Hi: 8},
		},
	}

	got, err := DecodeJob(AppendJob(nil, j))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, j) {
		t.Fatalf("round trip drifted: %+v vs %+v", got, j)
	}

	// A spec from an older build — version 2 ran the single-draw MST
	// elimination, version 3 shipped machine outputs without the
	// convergence verdict, version 4 knew no residency, version 5 no sketch
	// dimensions, version 6 only part of core.Config, version 7 sent every
	// part as a sketch, version 8 sent count frames without reduce words,
	// version 9 a count frame per link beside one frame per payload,
	// version 10 a query output with the coordinator's component count,
	// version 11 a final sync of per-vertex label changes —
	// is refused by its version with ErrVersion, by the decoder and by a
	// worker — which answers on the control link and dials no peer of the
	// spec's mesh.
	for _, v := range []byte{2, 3, 4, 5, 6, 7, 8, 9, 10, 11} {
		stale := AppendJob(nil, j)
		stale[0] = v
		want := fmt.Sprintf("job spec version %d, want 12", v)
		if _, err := DecodeJob(stale); !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d spec: err = %v, want ErrVersion", v, err)
		}
	}
	peer, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	dialed := make(chan struct{})
	go func() {
		if c, err := peer.Accept(); err == nil {
			c.Close()
			close(dialed)
		}
	}()
	old := *j
	old.Index = 1
	old.Workers = []WorkerSpec{{Addr: peer.Addr().String(), Lo: 0, Hi: 3}, {Addr: startWorkers(t, 1)[0], Lo: 3, Hi: 8}}
	v11 := AppendJob(nil, &old)
	v11[0] = 11
	conn, err := net.Dial("tcp", old.Workers[1].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(tcp.AppendFrame(nil, tcp.FrameJob, v11)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var buf []byte
	ft, body, err := tcp.ReadFrame(conn, &buf)
	if err != nil || ft != tcp.FrameError {
		t.Fatalf("worker's answer to a version-11 spec: frame %v, err %v; want an error frame", ft, err)
	}
	ef, err := decodeErrorFrame(body)
	if err != nil || !errors.Is(ef.err(), ErrVersion) || !strings.Contains(ef.err().Error(), "job spec version 11, want 12") {
		t.Fatalf("worker's error frame: %v / %v, want ErrVersion", ef, err)
	}
	if again := (RetryPolicy{Attempts: 3}).again(context.Background(), 1, ef.err(), &[]string{}); !errors.Is(again, ErrVersion) {
		t.Fatalf("retry policy on a version skew: %v, want no retry", again)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("control link after the refusal: %v, want EOF", err)
	}
	select {
	case <-dialed:
		t.Fatal("worker dialed a mesh peer for a spec it refused")
	default:
	}

	// Negative sketch dimensions must be rejected before a worker sizes
	// anything by them.
	bad := *j
	bad.Config.Sketch.Levels = -1
	if _, err := DecodeJob(AppendJob(nil, &bad)); err == nil {
		t.Fatal("negative sketch dimensions not rejected")
	}

	// Non-contiguous cover must be rejected.
	j.Workers[1].Lo = 4
	if _, err := DecodeJob(AppendJob(nil, j)); err == nil {
		t.Fatal("gap in worker cover not rejected")
	}
}

// TestOpenJobSourceBounds: a generated source past the store's vertex
// bound (2^31) is refused with store.ErrLimit. The m ≤ n(n−1)/2 check
// used to wrap once n passed ~3·10⁹ and let "gnm:4294967298:0:1" through,
// and a worker then sized its shard tables from that n (~43 GB).
func TestOpenJobSourceBounds(t *testing.T) {
	for _, spec := range []string{"gnm:4294967298:0:1", "gnm:2147483649:0:1"} {
		if _, _, err := OpenJobSource(spec); !errors.Is(err, store.ErrLimit) {
			t.Errorf("%s: err = %v, want store.ErrLimit", spec, err)
		}
	}
	if _, _, err := OpenJobSource("gnm:10:46:1"); err == nil || errors.Is(err, store.ErrLimit) {
		t.Errorf("gnm:10:46:1: err = %v, want out of range", err)
	}
	if src, _, err := OpenJobSource("gnm:10:45:1"); err != nil || src.N() != 10 {
		t.Errorf("gnm:10:45:1: err = %v", err)
	}
}

// TestSpecKBeyondN: a spec whose k exceeds the graph's vertex count is
// refused with resident.ErrBadConfig before anything is sized by k. At
// k=1024 on a 2-vertex graph a worker used to build the k-machine cluster
// and its k×k link state first (1.4 GB allocated, four seconds) and only
// then fail.
func TestSpecKBeyondN(t *testing.T) {
	addr := startWorkers(t, 1)[0]
	j := &Job{ClusterID: 7, Source: "gnm:2:0:1", Config: core.Config{K: 1024, Seed: 1},
		Workers: []WorkerSpec{{Addr: addr, Lo: 0, Hi: 1024}}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(tcp.AppendFrame(nil, tcp.FrameJob, AppendJob(nil, j))); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var buf []byte
	ft, body, err := tcp.ReadFrame(conn, &buf)
	conn.Close()
	runtime.ReadMemStats(&after)
	if err != nil || ft != tcp.FrameError {
		t.Fatalf("spec with k > n: frame %v, err %v; want an error frame", ft, err)
	}
	if ef, err := decodeErrorFrame(body); err != nil || !strings.Contains(ef.msg, resident.ErrBadConfig.Error()) {
		t.Errorf("spec with k > n: error frame %+v (%v), want ErrBadConfig", ef, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
		t.Errorf("spec with k > n: the refusal allocated %d MB, want < 64", alloc>>20)
	}
}
