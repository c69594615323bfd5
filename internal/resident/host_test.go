package resident

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/transport"
	"kmgraph/internal/transport/chaos"
	"kmgraph/internal/transport/local"
	"kmgraph/internal/verify"
	"kmgraph/internal/wire"
)

// zeroPlanChaos carries a residency's rounds through the fault-injection
// wrapper with nothing to inject.
func zeroPlanChaos(p transport.Params, met *transport.Metrics) (transport.Transport, error) {
	return chaos.New(local.New(p, met), chaos.Plan{}), nil
}

// TestResidencyOnZeroPlanChaos is the zero-plan chaos cell of the resident
// path: a residency does not care what carries its rounds, so the two
// resident goldens of the root package — TestGoldenDynamicMetrics' churn
// stream and TestGoldenClusterResidentMetrics' three queries + MST —
// replayed on chaos.New(local, Plan{}) give the traces pinned there and
// session Metrics equal, counter for counter, to the local engine's.
func TestResidencyOnZeroPlanChaos(t *testing.T) {
	ctx := context.Background()
	dynamic := func(mk kmachine.TransportMaker) (string, *kmachine.Metrics) {
		stream := graph.RandomChurnStream(128, 384, 6, 12, 0.4, 7)
		e, err := newOn(stream.Initial.Source(), Config{Config: core.Config{K: 4, Seed: 7}}, mk)
		if err != nil {
			t.Fatal(err)
		}
		var trace string
		for i, batch := range stream.Batches {
			br, err := e.ApplyBatch(ctx, batch)
			if err != nil {
				t.Fatal(err)
			}
			q, err := e.Query(ctx)
			if err != nil {
				t.Fatal(err)
			}
			trace += fmt.Sprintf("[%d:%d/%d/%d]", i, br.Applied, q.Components, q.Rounds)
		}
		met, err := e.Close()
		if err != nil {
			t.Fatal(err)
		}
		return trace, met
	}
	static := func(mk kmachine.TransportMaker) (string, *kmachine.Metrics) {
		e, err := newOn(graph.GNM(192, 576, 9).Source(), Config{Config: core.Config{K: 4, Seed: 21}}, mk)
		if err != nil {
			t.Fatal(err)
		}
		var trace string
		for j := 0; j < 3; j++ {
			q, err := e.Query(ctx)
			if err != nil {
				t.Fatal(err)
			}
			trace += fmt.Sprintf("[%d:%d/%d]", j, q.Components, q.Rounds)
		}
		mst, err := e.MST(ctx, false)
		if err != nil {
			t.Fatal(err)
		}
		trace += fmt.Sprintf("[mst:%d]", len(mst.Edges))
		met, err := e.Close()
		if err != nil {
			t.Fatal(err)
		}
		return trace, met
	}
	for _, c := range []struct {
		name string
		run  func(kmachine.TransportMaker) (string, *kmachine.Metrics)
		want string
	}{
		// Copies of the root goldens' traces, re-pinned with them when sums
		// began to ride on count frames (declared-algorithmic: queries
		// 136/71/50/45/66/24 → 97/55/39/35/51/19 and 187/24/23 → 140/19/18
		// rounds, on the same path), and again when an exchange began to
		// send one frame per link and Collapse's sum to ride on its next
		// query exchange (declared-algorithmic: 97/55/39 → 84/54/38 and
		// 140/19 → 121/18 rounds, on the same path).
		{"dynamic", dynamic, "[0:12/1/84][1:12/1/54][2:12/1/38][3:12/1/35][4:12/1/51][5:12/1/19]"},
		{"static", static, "[0:1/121][1:1/18][2:1/18][mst:191]"},
	} {
		localTrace, localMet := c.run(nil)
		chaosTrace, chaosMet := c.run(zeroPlanChaos)
		if localTrace != c.want || chaosTrace != c.want {
			t.Errorf("%s trace:\n local: %s\n chaos: %s\n want:  %s", c.name, localTrace, chaosTrace, c.want)
		}
		if localMet.DroppedMessages != 0 || !reflect.DeepEqual(localMet, chaosMet) {
			t.Errorf("%s session metrics differ by transport:\n local: %v\n chaos: %v", c.name, localMet, chaosMet)
		}
	}
}

// crash is a job whose command panics on every machine — a derived run
// without its spec — so the run ends with machine 0's error.
func (e *Engine) crash(ctx context.Context) error {
	t, err := e.begin(ctx, "crash")
	if err != nil {
		return err
	}
	_, _, err = e.run(t, &command{kind: cmdDerived})
	t.end(err)
	return err
}

// TestEngineDeath: a run that fails — a machine program that panics, a
// session past MaxRounds — fails that job with the run's error and ends
// the residency: every later job returns the same error at once, Metrics
// stays readable, Close returns it, and no goroutine is left behind.
func TestEngineDeath(t *testing.T) {
	ctx := context.Background()
	g := graph.GNM(200, 600, 5)
	probe := mustEngine(t, g, Config{Config: core.Config{K: 4, Seed: 5}})
	loadRounds := probe.Metrics().LoadRounds
	probe.Close()

	for _, c := range []struct {
		name string
		cfg  Config
		kill func(e *Engine) error
		is   func(err error) bool
	}{
		{"panic", Config{Config: core.Config{K: 4, Seed: 5}},
			func(e *Engine) error { return e.crash(ctx) },
			func(err error) bool { return strings.Contains(err.Error(), "machine 0 panicked") }},
		{"max-rounds", Config{Config: core.Config{K: 4, Seed: 5, MaxRounds: loadRounds + 20}},
			func(e *Engine) error { _, err := e.Query(ctx); return err },
			func(err error) bool { return errors.Is(err, kmachine.ErrMaxRounds) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e, err := New(g, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			cause := c.kill(e)
			if cause == nil || !c.is(cause) {
				t.Fatalf("killing job returned %v", cause)
			}
			_, qerr := e.Query(ctx)
			_, berr := e.ApplyBatch(ctx, []graph.EdgeOp{{U: 0, V: 1}})
			_, merr := e.MST(ctx, false)
			for _, err := range []error{qerr, berr, merr} {
				if err != cause {
					t.Errorf("job on a dead engine returned %v, want the run's error %v", err, cause)
				}
			}
			if met := e.Metrics(); met.LoadRounds != loadRounds || met.RunningJobs != 0 || met.QueuedJobs != 0 {
				t.Errorf("Metrics on a dead engine: %+v", met)
			}
			if _, err := e.Close(); err != cause {
				t.Errorf("Close = %v, want %v", err, cause)
			}
			if _, err := e.Query(ctx); err != ErrClosed {
				t.Errorf("job after Close = %v, want ErrClosed", err)
			}
			waitForGoroutines(t, base)
		})
	}
}

// loopback is a Remote whose machines live in this process but are reached
// only through the wire forms — a fleet without sockets. lose, when set,
// makes the next command of that kind end the residency the way a lost
// worker does.
type loopback struct {
	src   graph.EdgeSource
	cfg   Config
	h     *Machines
	opens int
	lose  int
}

func (l *loopback) Run(ctx context.Context, cmd []byte, _ core.PhaseFunc) (*kmachine.Result, []transport.WorkerSpans, error) {
	if c, err := readCommand(cmd, l.src.N()); err != nil || c.kind == l.lose {
		l.lose = 0
		l.Close()
		return nil, nil, &transport.LinkDownError{Peer: 1, Reason: transport.ReasonCrash, Err: errors.New("worker lost")}
	}
	if l.h == nil {
		part, err := Load(l.src, l.cfg, 0, l.cfg.K)
		if err != nil {
			return nil, nil, err
		}
		if l.h, err = NewMachines(part, l.cfg, nil); err != nil {
			return nil, nil, err
		}
		l.opens++
	}
	res, err := l.h.Run(ctx, cmd, func() bool { return false }, nil)
	if err != nil {
		return nil, nil, err
	}
	for i, o := range res.Outputs {
		b, err := AppendOutput(nil, o)
		if err != nil {
			return nil, nil, err
		}
		if res.Outputs[i], err = ReadOutput(wire.NewReader(b)); err != nil {
			return nil, nil, err
		}
	}
	return res, nil, nil
}

func (l *loopback) Retry(_ context.Context, attempt int, cause error) error {
	if attempt >= 3 || !errors.Is(cause, transport.ErrLinkDown) {
		return cause
	}
	return nil
}

func (l *loopback) Close() error {
	if l.h != nil {
		l.h.Close()
		l.h = nil
	}
	return nil
}

// TestRemoteEngine drives an engine whose machines are reached only
// through commands and outputs in wire form. It answers as the engine
// over its own machines does, at the same cost; it opens its residency on
// the first job; a worker lost while the epoch is 0 costs a reopen from the
// source within the job's retries; after an applied batch the loss ends the
// residency, every later job failing with it.
func TestRemoteEngine(t *testing.T) {
	ctx := context.Background()
	g := graph.WithDistinctWeights(graph.GNM(300, 900, 4), 5)
	cfg := Config{Config: core.Config{K: 4, Seed: 9}}
	local := mustEngine(t, g, cfg)
	lb := &loopback{src: g.Source(), cfg: cfg}
	e, err := NewRemote(cfg, 0, lb)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if lb.opens != 0 || e.N() != 0 {
		t.Fatalf("before the first job: %d opens, n=%d", lb.opens, e.N())
	}
	same := func(job string, run func(e *Engine) (any, error)) {
		t.Helper()
		rv, rerr := run(e)
		lv, lerr := run(local)
		if rerr != nil || lerr != nil || !reflect.DeepEqual(rv, lv) {
			t.Fatalf("%s: remote %+v (%v), local %+v (%v)", job, rv, rerr, lv, lerr)
		}
		if rt, lt := e.Metrics().Total, local.Metrics().Total; !reflect.DeepEqual(rt, lt) {
			t.Fatalf("%s: remote Metrics %v, local %v", job, rt, lt)
		}
	}
	same("connectivity", func(e *Engine) (any, error) { return e.Query(ctx) })
	same("mst", func(e *Engine) (any, error) { return e.MST(ctx, true) })
	same("mincut", func(e *Engine) (any, error) { return e.MinCut(ctx, 0, 6) })
	same("verify", func(e *Engine) (any, error) { return e.Verify(ctx, verify.STConnectivity, VerifyArgs{S: 0, T: 299}) })
	if lb.opens != 1 || e.N() != g.N() {
		t.Fatalf("after four jobs: %d opens, n=%d; want one, %d", lb.opens, e.N(), g.N())
	}

	// Lost at epoch 0: the query reopens from the source and answers as a
	// fresh residency's first query.
	fresh := mustEngine(t, g, cfg)
	want, err := fresh.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lb.lose = cmdQuery
	q, err := e.Query(ctx)
	if err != nil || lb.opens != 2 || q.Rounds != want.Rounds || !reflect.DeepEqual(q.Labels, want.Labels) {
		t.Fatalf("query through a lost worker at epoch 0: %v, %d opens; want a reopen and the fresh residency's answer", err, lb.opens)
	}
	if got := e.Metrics().LoadRounds; got != fresh.Metrics().LoadRounds {
		t.Errorf("after the reopen: load %d rounds, want %d", got, fresh.Metrics().LoadRounds)
	}

	// Lost after a batch: the residency is gone, with the batch.
	if _, err := e.ApplyBatch(ctx, []graph.EdgeOp{{U: 0, V: 299, W: 1}}); err != nil || e.Epoch() != 1 {
		t.Fatalf("batch: %v, epoch %d", err, e.Epoch())
	}
	lb.lose = cmdQuery
	_, cause := e.Query(ctx)
	if !errors.Is(cause, transport.ErrLinkDown) {
		t.Fatalf("query through a lost worker at epoch 1: %v, want ErrLinkDown", cause)
	}
	if _, err := e.MST(ctx, false); err != cause || lb.opens != 2 {
		t.Errorf("job after the loss: %v, %d opens; want the latched %v and no reopen", err, lb.opens, cause)
	}
	if _, err := e.Close(); err != cause {
		t.Errorf("Close = %v, want %v", err, cause)
	}
}

// TestMalformedCommandRefused: a command no engine sends — an op that is
// not a canonical edge of the graph, a probe outside it, an unknown view
// kind — is refused before it runs, and the machines answer the next
// command as if it had never arrived.
func TestMalformedCommandRefused(t *testing.T) {
	ctx := context.Background()
	g := graph.GNM(200, 600, 3)
	cfg := Config{Config: core.Config{K: 4, Seed: 5}}
	part, err := Load(g.Source(), cfg, 0, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewMachines(part, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	run := func(c *command) (*kmachine.Result, error) {
		return h.Run(ctx, appendCommand(nil, c), func() bool { return false }, nil)
	}
	if _, err := run(&command{kind: cmdLoad}); err != nil {
		t.Fatal(err)
	}
	probe := newRunSpec(viewFull)
	probe.probeU, probe.probeV = 500, 3
	for _, tc := range []struct {
		name string
		c    *command
	}{
		{"self-loop", &command{kind: cmdApply, ops: []graph.EdgeOp{{U: 7, V: 7}}}},
		{"reversed", &command{kind: cmdApply, ops: []graph.EdgeOp{{U: 9, V: 2}}}},
		{"out of range", &command{kind: cmdApply, ops: []graph.EdgeOp{{U: 2, V: 205}}}},
		{"probe", &command{kind: cmdDerived, spec: probe}},
		{"half probe", &command{kind: cmdDerived, spec: &runSpec{kind: viewFull, probeU: -1, probeV: 4}}},
		{"view kind", &command{kind: cmdDerived, spec: newRunSpec(viewCover + 1)}},
	} {
		if res, err := run(tc.c); err == nil {
			t.Fatalf("%s: command ran (%d rounds), want refused", tc.name, res.Metrics.Rounds)
		}
	}
	res, err := run(&command{kind: cmdQuery})
	if err != nil {
		t.Fatalf("query after the refusals: %v", err)
	}
	outs := make([]any, len(res.Outputs))
	for i, o := range res.Outputs {
		outs[i] = o.(*output).machine
	}
	cr, err := core.Assemble(g.N(), outs)
	if err != nil {
		t.Fatalf("query after the refusals: %v", err)
	}
	if got, want := cr.Components, graph.ComponentCount(g); got != want {
		t.Fatalf("query after the refusals: %d components, oracle %d", got, want)
	}
}

// FuzzReadCommand: the decoder of a fleet's command bytes never panics,
// allocates in proportion to its input, and accepts only a command that
// obeys readCommand's rules for the given n and re-encodes to an equal one.
func FuzzReadCommand(f *testing.F) {
	const n = 200
	keep := newRunSpec(viewKeep)
	keep.edges = map[uint64]bool{graph.EdgeID(1, 2, n): true, graph.EdgeID(3, 190, n): true}
	keep.probeU, keep.probeV = 1, 2
	seeds := []*command{
		{kind: cmdLoad},
		{kind: cmdApply, ops: []graph.EdgeOp{{U: 1, V: 2, W: 5}, {U: 0, V: 199, Del: true}}},
		{kind: cmdQuery},
		{kind: cmdMST},
		{kind: cmdMST, strong: true},
	}
	for kind := viewFull; kind <= viewCover; kind++ {
		s := newRunSpec(kind)
		s.edges = keep.edges
		s.probeU, s.probeV = 3, 190
		s.tseed, s.threshold = 11, 1<<62
		seeds = append(seeds, &command{kind: cmdDerived, spec: s})
	}
	for _, c := range seeds {
		f.Add(appendCommand(nil, c), n)
	}
	f.Add([]byte{2, 0, 0xfe, 0xff, 0xff, 0x7f}, n) // 2^27-1 ops, no bytes
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c, err := readCommand(data, n)
		runtime.ReadMemStats(&m1)
		if grew, budget := m1.TotalAlloc-m0.TotalAlloc, uint64(1<<16+512*len(data)); grew > budget {
			t.Fatalf("decoding %d bytes allocated %d (budget %d)", len(data), grew, budget)
		}
		if err != nil {
			return
		}
		for _, op := range c.ops {
			if op.U < 0 || op.U >= op.V || op.V >= n {
				t.Fatalf("accepted op %+v of %d vertices", op, n)
			}
		}
		if s := c.spec; s != nil {
			if s.kind < viewFull || s.kind > viewCover {
				t.Fatalf("accepted view kind %d", s.kind)
			}
			if absent := s.probeU == -1 && s.probeV == -1; !absent &&
				(s.probeU < 0 || s.probeU >= n || s.probeV < 0 || s.probeV >= n) {
				t.Fatalf("accepted probe (%d,%d) of %d vertices", s.probeU, s.probeV, n)
			}
		}
		again, err := readCommand(appendCommand(nil, c), n)
		if err != nil || !reflect.DeepEqual(again, c) {
			t.Fatalf("re-encoded command drifted (err %v):\n got  %+v\n want %+v", err, again, c)
		}
	})
}
