package resident

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/transport"
	"kmgraph/internal/transport/chaos"
	"kmgraph/internal/transport/local"
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
		e, err := newOn(stream.Initial.Source(), Config{K: 4, Seed: 7}, mk)
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
		e, err := newOn(graph.GNM(192, 576, 9).Source(), Config{K: 4, Seed: 21}, mk)
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
		{"dynamic", dynamic, "[0:12/1/264][1:12/1/71][2:12/1/50][3:12/1/45][4:12/1/66][5:12/1/24]"},
		{"static", static, "[0:1/338][1:1/24][2:1/23][mst:191]"},
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

// crash is a job whose program panics on machine 0 (the others return at
// once, so the run ends with that machine's error).
func (e *Engine) crash(ctx context.Context) error {
	t, err := e.begin(ctx, "crash")
	if err != nil {
		return err
	}
	_, _, err = e.command(func(m *rmachine) any {
		if m.ctx.ID() == 0 {
			panic("boom")
		}
		return nil
	})
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
	probe := mustEngine(t, g, Config{K: 4, Seed: 5})
	loadRounds := probe.Metrics().LoadRounds
	probe.Close()

	for _, c := range []struct {
		name string
		cfg  Config
		kill func(e *Engine) error
		is   func(err error) bool
	}{
		{"panic", Config{K: 4, Seed: 5},
			func(e *Engine) error { return e.crash(ctx) },
			func(err error) bool { return strings.Contains(err.Error(), "machine 0 panicked: boom") }},
		{"max-rounds", Config{K: 4, Seed: 5, MaxRounds: loadRounds + 20},
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
