package resident

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
)

// TestObserverPanicIsRecovered is the hardening regression test: a
// panicking observer callback must not take the engine down. The job it
// tripped on fails with ErrObserverPanic, the panic is counted, and the
// engine keeps serving subsequent jobs.
func TestObserverPanicIsRecovered(t *testing.T) {
	ctx := context.Background()
	g := graph.GNM(200, 500, 5)
	var calls atomic.Int64
	cfg := Config{Config: core.Config{K: 3, Seed: 11}, PhaseMetrics: true}
	cfg.Observer = func(ev Event) {
		if calls.Add(1) > 2 {
			panic("observer bug")
		}
	}
	e := mustEngine(t, g, cfg)

	if _, err := e.Query(ctx); !errors.Is(err, ErrObserverPanic) {
		t.Fatalf("query with panicking observer: err = %v, want ErrObserverPanic", err)
	}
	if n := e.Metrics().ObserverPanics; n == 0 {
		t.Fatal("observer panics not counted")
	}

	// The engine is still serviceable: silence the observer and the next
	// job succeeds with a correct answer.
	calls.Store(-1 << 40)
	q, err := e.Query(ctx)
	if err != nil {
		t.Fatalf("query after recovered panic: %v", err)
	}
	_, oracle := graph.Components(g)
	if q.Components != oracle {
		t.Fatalf("components after recovered panic: %d, want %d", q.Components, oracle)
	}
}

// TestObserverPanicInDoneEvent covers the trailing edge: a panic raised
// while delivering the job's own done event is recovered and counted,
// but cannot retroactively fail the job (its result is already final) —
// and the *next* job is unaffected, because the tripped flag resets at
// each job start.
func TestObserverPanicInDoneEvent(t *testing.T) {
	ctx := context.Background()
	g := graph.GNM(150, 400, 6)
	var armed atomic.Bool
	cfg := Config{Config: core.Config{K: 3, Seed: 13}}
	cfg.Observer = func(ev Event) {
		if armed.Load() && ev.Done {
			panic("done-event bug")
		}
	}
	e := mustEngine(t, g, cfg)

	armed.Store(true)
	before := e.Metrics().ObserverPanics
	if _, err := e.Query(ctx); err != nil {
		t.Fatalf("done-event panic must not fail the finished job: %v", err)
	}
	if e.Metrics().ObserverPanics <= before {
		t.Fatal("done-event panic not counted")
	}

	armed.Store(false)
	if _, err := e.Query(ctx); err != nil {
		t.Fatalf("next job failed: %v", err)
	}
}
