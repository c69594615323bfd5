package kmachine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count drops back to at most
// base (goleak-style: counts, with a deadline, instead of dumping stacks).
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

// TestRunContextCancelReleasesSteppingMachines: cancelling the context of
// a run whose machines are stepping forever must return ctx.Err() and
// leave no machine goroutine behind.
func TestRunContextCancelReleasesSteppingMachines(t *testing.T) {
	base := runtime.NumGoroutine()
	cl, err := New(Config{K: 4, BandwidthBits: 1024, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err = cl.RunContext(ctx, func(c *Ctx) error {
		for {
			c.Broadcast([]byte("spin"))
			c.Step()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, base)
}

// TestRunContextDeadline: a deadline behaves like a cancel.
func TestRunContextDeadline(t *testing.T) {
	cl, err := New(Config{K: 2, BandwidthBits: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = cl.RunContext(ctx, func(c *Ctx) error {
		for {
			c.Broadcast(make([]byte, 64))
			c.Step()
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestFailedMachineAbortsPeers: a machine that fails aborts the run as a
// cancel does — its peers, stepping forever, are released within a few
// rounds instead of at MaxRounds — and the run returns that machine's error.
func TestFailedMachineAbortsPeers(t *testing.T) {
	base := runtime.NumGoroutine()
	cl, err := New(Config{K: 3, BandwidthBits: 64, Seed: 5, MaxRounds: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	failed := errors.New("machine 1 failed")
	res, err := cl.Run(func(c *Ctx) error {
		if c.ID() == 1 {
			return failed
		}
		for {
			c.Broadcast([]byte("spin"))
			c.Step()
		}
	})
	if !errors.Is(err, failed) {
		t.Fatalf("err = %v, want the failed machine's", err)
	}
	if res.Metrics.Rounds >= 10 {
		t.Fatalf("peers stepped %d rounds after the failure, want < 10", res.Metrics.Rounds)
	}
	waitGoroutines(t, base)
}

// TestSnapshotDuringRun: Snapshot observes monotone round counts while the
// cluster runs, is consistent (deep-copied), and reports false once the
// run ends.
func TestSnapshotDuringRun(t *testing.T) {
	cl, err := New(Config{K: 2, BandwidthBits: 1024, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cl.Snapshot(); ok {
		t.Fatal("Snapshot before Run reported a live run")
	}
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	var res *Result
	go func() {
		res, _ = cl.Run(func(c *Ctx) error {
			for i := 0; i < 50; i++ {
				c.Send(1-c.ID(), []byte("x"))
				c.Step()
			}
			if c.ID() == 0 {
				close(started)
				<-release
			}
			return nil
		})
		close(done)
	}()
	<-started
	m1, ok := cl.Snapshot()
	if !ok {
		t.Fatal("Snapshot during run failed")
	}
	if m1.Rounds < 50 || m1.Messages == 0 {
		t.Fatalf("mid-run snapshot: %+v", m1)
	}
	close(release)
	<-done
	if m1.Rounds > res.Metrics.Rounds {
		t.Fatalf("snapshot rounds %d exceed final %d", m1.Rounds, res.Metrics.Rounds)
	}
	if _, ok := cl.Snapshot(); ok {
		t.Fatal("Snapshot after run reported a live run")
	}
}
