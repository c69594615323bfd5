package chaos

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/transport"
	"kmgraph/internal/transport/local"
)

// metricsFingerprint folds every field of a Metrics so any behavioral
// drift introduced by the chaos wrapper shows up as a mismatch.
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

// runConnectivity runs the connectivity algorithm over a chaos-wrapped
// local transport and returns the assembled result, the fault journal,
// and the run error.
func runConnectivity(n, m int, gs int64, cfg core.Config, plan Plan) (*core.Result, []Fault, error) {
	part, err := kmachine.LoadShards(graph.StreamGNM(n, m, gs), cfg.K, kmachine.RVPSeed(cfg.Seed))
	if err != nil {
		return nil, nil, err
	}
	cfg = cfg.WithDefaults(part.N())
	var ct *Transport
	cluster, err := kmachine.NewWithTransport(cfg.MachineConfig(), func(p transport.Params, met *transport.Metrics) (transport.Transport, error) {
		ct = New(local.New(p, met), plan)
		return ct, nil
	})
	if err != nil {
		return nil, nil, err
	}
	kres, err := cluster.Run(core.ConnectivityHandler(part.Shard, cfg))
	var journal []Fault
	if ct != nil {
		journal = append(journal, ct.journal...)
	}
	if err != nil {
		return nil, journal, err
	}
	res, err := core.Assemble(part.N(), kres.Outputs)
	if err != nil {
		return nil, journal, err
	}
	res.Metrics = kres.Metrics
	return res, journal, nil
}

// TestNoFaultGolden pins zero behavioral drift from the wrapper: a
// zero-Plan chaos transport produces results and Metrics bit-identical
// to the bare local backend.
func TestNoFaultGolden(t *testing.T) {
	const (
		n, m = 600, 1800
		gs   = int64(7)
	)
	cfg := core.Config{K: 6, Seed: 11}

	bare, err := core.RunSource(graph.StreamGNM(n, m, gs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, journal, err := runConnectivity(n, m, gs, cfg, Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if len(journal) != 0 {
		t.Fatalf("zero plan journaled faults: %v", journal)
	}
	if wrapped.Components != bare.Components {
		t.Errorf("components: chaos %d, bare %d", wrapped.Components, bare.Components)
	}
	for v := range bare.Labels {
		if wrapped.Labels[v] != bare.Labels[v] {
			t.Fatalf("label of vertex %d drifted", v)
		}
	}
	if wf, bf := metricsFingerprint(&wrapped.Metrics), metricsFingerprint(&bare.Metrics); wf != bf {
		t.Errorf("metrics fingerprint drifted: chaos %d, bare %d", wf, bf)
	}
	if bare.Metrics.Rounds == 0 || bare.Metrics.Messages == 0 {
		t.Fatalf("degenerate bare run: %+v", bare.Metrics)
	}
}

// TestReplayDeterminism pins the core chaos property: the same seeded
// plan over the same workload applies the identical fault sequence and
// produces the identical outcome, run after run.
func TestReplayDeterminism(t *testing.T) {
	const (
		n, m = 300, 900
		gs   = int64(5)
	)
	// MaxRounds small: dropped collective frames stall machines until
	// the shared abort, which must itself replay identically.
	cfg := core.Config{K: 4, Seed: 3, MaxRounds: 1500}
	plan := Plan{Seed: 99, DropProb: 0.01, DelayProb: 0.02, MaxDelayRounds: 3}

	type outcome struct {
		errStr      string
		components  int
		fingerprint uint64
		journal     []Fault
	}
	run := func() outcome {
		res, journal, err := runConnectivity(n, m, gs, cfg, plan)
		o := outcome{journal: journal}
		if err != nil {
			o.errStr = err.Error()
			return o
		}
		o.components = res.Components
		o.fingerprint = metricsFingerprint(&res.Metrics)
		return o
	}
	a, b := run(), run()
	if a.errStr != b.errStr {
		t.Fatalf("error drifted across replays:\n a: %q\n b: %q", a.errStr, b.errStr)
	}
	if a.components != b.components || a.fingerprint != b.fingerprint {
		t.Fatalf("result drifted across replays: %+v vs %+v", a, b)
	}
	if len(a.journal) == 0 {
		t.Fatal("plan with nonzero probabilities applied no faults; pick a busier workload")
	}
	if len(a.journal) != len(b.journal) {
		t.Fatalf("journal length drifted: %d vs %d", len(a.journal), len(b.journal))
	}
	for i := range a.journal {
		if a.journal[i] != b.journal[i] {
			t.Fatalf("journal[%d] drifted: %v vs %v", i, a.journal[i], b.journal[i])
		}
	}
}

// TestCrashAtRound: a scheduled crash surfaces as a structured
// LinkDownError wrapping ErrLinkDown, the engine drains its machines
// instead of hanging, and no goroutines leak.
func TestCrashAtRound(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := core.Config{K: 4, Seed: 1}
	_, _, err := runConnectivity(400, 1200, 9, cfg, Plan{CrashAtRound: 5})
	if err == nil {
		t.Fatal("run survived a scheduled crash")
	}
	if !errors.Is(err, transport.ErrLinkDown) {
		t.Fatalf("err = %v, want wrapping transport.ErrLinkDown", err)
	}
	var ld *transport.LinkDownError
	if !errors.As(err, &ld) {
		t.Fatalf("err = %v, want *transport.LinkDownError", err)
	}
	if ld.Reason != transport.ReasonChaos || ld.Round != 4 {
		t.Fatalf("LinkDownError = %+v, want reason=chaos round=4", ld)
	}
	waitGoroutines(t, base)
}

// TestSeverLink: traffic staged on a severed link kills the run with a
// link-down error, like a dead TCP peer would.
func TestSeverLink(t *testing.T) {
	cfg := core.Config{K: 4, Seed: 2}
	plan := Plan{Links: []LinkFault{{Src: -1, Dst: 1, FromRound: 3, Action: ActSever}}}
	_, journal, err := runConnectivity(400, 1200, 9, cfg, plan)
	if !errors.Is(err, transport.ErrLinkDown) {
		t.Fatalf("err = %v, want wrapping transport.ErrLinkDown", err)
	}
	if len(journal) == 0 || journal[len(journal)-1].Action != ActSever {
		t.Fatalf("journal = %v, want trailing sever", journal)
	}
}

// TestLinkDownErrorIdentity pins the structured error's contract:
// errors.Is through fmt wrapping, errors.As extraction, and the
// underlying cause staying reachable.
func TestLinkDownErrorIdentity(t *testing.T) {
	cause := errors.New("connection reset")
	var err error = &transport.LinkDownError{
		Peer: 2, Addr: "10.0.0.7:9601", Round: 41,
		Reason: transport.ReasonCrash, Err: cause,
	}
	err = fmt.Errorf("dist: worker 2: %w", err)
	if !errors.Is(err, transport.ErrLinkDown) {
		t.Fatal("errors.Is(err, ErrLinkDown) = false")
	}
	if !errors.Is(err, cause) {
		t.Fatal("underlying cause unreachable")
	}
	var ld *transport.LinkDownError
	if !errors.As(err, &ld) || ld.Peer != 2 || ld.Round != 41 || ld.Reason != transport.ReasonCrash {
		t.Fatalf("errors.As = %+v", ld)
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
