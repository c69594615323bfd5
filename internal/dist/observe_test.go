package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/resident"
	"kmgraph/internal/store"
	"kmgraph/internal/telemetry"
	"kmgraph/internal/transport"
	"kmgraph/internal/transport/chaos"
)

// sumSpanRounds totals the engine rounds one worker's spans cover.
func sumSpanRounds(spans []transport.PhaseSpan) int {
	total := 0
	for _, sp := range spans {
		total += sp.Rounds()
	}
	return total
}

// fleetObserver is what a test keeps of a fleet engine's observer stream:
// a JobTracer rendering it, the phase events, and the done event.
type fleetObserver struct {
	tracer *telemetry.JobTracer
	mu     sync.Mutex
	phases []resident.Event
	done   resident.Event
}

// openTracedFleet opens a fleet engine over addrs whose observer feeds a
// fleetObserver.
func openTracedFleet(t *testing.T, addrs []string, source string, k int, seed int64, coord CoordOptions) (*resident.Engine, *fleetObserver) {
	t.Helper()
	o := &fleetObserver{tracer: telemetry.NewJobTracer()}
	f, err := OpenFleet(FleetSpec{Source: source, Addrs: addrs, Coord: coord}, resident.Config{
		Config: core.Config{K: k, Seed: seed}, PhaseMetrics: true,
		Observer: func(ev resident.Event) {
			o.tracer.Observer()(ev)
			o.mu.Lock()
			defer o.mu.Unlock()
			switch {
			case ev.Done:
				o.done = ev
			case ev.Phase >= 0:
				o.phases = append(o.phases, ev)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, o
}

// checkTelescopes asserts the tentpole accounting of a traced fleet job of
// the given rounds and phases: one span stream per worker on the done
// event, each telescoping to the job's rounds; one phase event per phase,
// round counter strictly increasing; and in the rendered trace one pid per
// worker plus the engine's own, every pid's phase spans summing to the
// same rounds.
func checkTelescopes(t *testing.T, o *fleetObserver, workers, rounds, phases int) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.done.Err != "" || o.done.Delta == nil || o.done.Delta.Rounds != rounds {
		t.Fatalf("done event = %+v, want a clean one with Delta.Rounds %d", o.done, rounds)
	}
	if len(o.done.Workers) != workers {
		t.Fatalf("done event carries %d span streams, want %d", len(o.done.Workers), workers)
	}
	for _, w := range o.done.Workers {
		if got := sumSpanRounds(w.Spans); got != rounds {
			t.Errorf("worker %d span rounds sum to %d, want the merged Metrics.Rounds %d", w.Index, got, rounds)
		}
	}
	if len(o.phases) != phases {
		t.Errorf("%d phase events, want one per phase (%d)", len(o.phases), phases)
	}
	for i := 1; i < len(o.phases); i++ {
		if o.phases[i].Round <= o.phases[i-1].Round {
			t.Errorf("phase event %d at round %d follows round %d: the stream ran backwards",
				i, o.phases[i].Round, o.phases[i-1].Round)
		}
	}
	perPid := make(map[int]int)
	for _, ev := range o.tracer.Snapshot().TraceEvents {
		if ev.Cat == "phase" {
			perPid[ev.Pid] += ev.Args["rounds"].(int)
		}
	}
	if len(perPid) != workers+1 {
		t.Fatalf("trace has phase spans on pids %v, want the engine's and one per worker", perPid)
	}
	for i := 0; i < workers; i++ {
		if perPid[telemetry.WorkerPid(i)] == 0 {
			t.Errorf("trace has no phase spans on worker %d's pid", i)
		}
	}
	for pid, sum := range perPid {
		if sum != rounds {
			t.Errorf("pid %d phase rounds sum to %d, want %d", pid, sum, rounds)
		}
	}
}

// TestDistTraceTelescopesConnectivity is the tentpole acceptance for
// cross-process tracing: a connectivity job on a fleet engine reports one
// span stream per worker whose round totals each telescope exactly to
// the job's rounds (themselves the resident engine's on the same graph),
// and the one trace assembler renders them one pid per worker.
func TestDistTraceTelescopesConnectivity(t *testing.T) {
	const (
		n, m = 600, 1800
		gs   = int64(7)
	)
	local, err := resident.NewFromSource(graph.StreamGNM(n, m, gs), resident.Config{Config: core.Config{K: 6, Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	golden, err := local.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	f, o := openTracedFleet(t, startWorkers(t, 3), fmt.Sprintf("gnm:%d:%d:%d", n, m, gs), 6, 11, CoordOptions{})
	res, err := f.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != golden.Rounds || res.Components != golden.Components {
		t.Fatalf("fleet query = %d components / %d rounds, resident engine's %d / %d",
			res.Components, res.Rounds, golden.Components, golden.Rounds)
	}
	checkTelescopes(t, o, 3, res.Rounds, res.Phases)
}

// TestDistTraceTelescopesMST is the same telescoping acceptance for an
// MST job served from a kmgs store.
func TestDistTraceTelescopesMST(t *testing.T) {
	const n, m = 400, 1200
	g := graph.WithDistinctWeights(graph.GNM(n, m, 5), 6)
	path := filepath.Join(t.TempDir(), "g.kmgs")
	if err := store.WriteFile(path, g.Source()); err != nil {
		t.Fatal(err)
	}
	f, o := openTracedFleet(t, startWorkers(t, 2), "store:"+path, 4, 3, CoordOptions{})
	res, err := f.MST(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	checkTelescopes(t, o, 2, res.Metrics.Rounds, res.Phases)
}

// TestRetryTracesSuccessfulAttempt pins that a job that recovers via
// retry reports the clean replay's spans: the per-worker round sums
// still telescope to the recovered (bit-identical) Metrics.Rounds, not
// to the aborted first attempt's partial progress, and the phase events
// the aborted attempt already reported are not reported again.
func TestRetryTracesSuccessfulAttempt(t *testing.T) {
	const (
		n, m = 8000, 24000
		gs   = int64(3)
	)
	_, a0 := startWorker(t)
	victim, a1 := startWorker(t)
	go func() {
		waitJobRunning(t, victim)
		victim.Close()
	}()

	respawned := 0
	f, o := openTracedFleet(t, []string{a0, a1}, fmt.Sprintf("gnm:%d:%d:%d", n, m, gs), 6, 5, CoordOptions{
		Retry: RetryPolicy{Attempts: 3, Respawn: respawnDead(t, &respawned)},
	})
	res, err := f.Query(context.Background())
	if err != nil {
		t.Fatalf("job did not recover: %v", err)
	}
	if respawned == 0 {
		t.Fatal("job succeeded without respawning the killed worker; the kill missed the run")
	}
	checkTelescopes(t, o, 2, res.Rounds, res.Phases)
}

// stubTransport is a minimal inner backend for driving the chaos layer
// directly: every Round advances with no peers and no deliveries.
type stubTransport struct{ rounds int }

func (s *stubTransport) Hosted() (int, int) { return 0, 1 }
func (s *stubTransport) Round(in *transport.RoundIn, out *transport.RoundOut) error {
	s.rounds++
	out.Advanced = true
	out.Running = 1
	return nil
}
func (s *stubTransport) Remnants() (int, int64) { return 0, 0 }
func (s *stubTransport) Close() error           { return nil }

// TestChaosCrashFlightSurvivesErrorFrame is the post-mortem acceptance:
// a chaos-injected crash-at-round attaches the flight recorder's
// snapshot of the preceding rounds to the LinkDownError, and that
// snapshot survives the control-link error frame encode/decode — so a
// coordinator sees the final rounds of traffic a crashed worker staged.
func TestChaosCrashFlightSurvivesErrorFrame(t *testing.T) {
	const crashAt = 5
	tr := chaos.New(&stubTransport{}, chaos.Plan{CrashAtRound: crashAt})
	var out transport.RoundOut
	var roundErr error
	for i := 0; i < crashAt; i++ {
		in := transport.RoundIn{Msgs: []transport.Message{
			{Src: 0, Dst: 0, Data: make([]byte, 16+i)},
		}}
		if roundErr = tr.Round(&in, &out); roundErr != nil {
			break
		}
	}
	if roundErr == nil {
		t.Fatal("chaos plan never crashed")
	}
	var ld *transport.LinkDownError
	if !errors.As(roundErr, &ld) || ld.Reason != transport.ReasonChaos {
		t.Fatalf("err = %v, want chaos-classified LinkDownError", roundErr)
	}
	if len(ld.Flight) != crashAt {
		t.Fatalf("flight snapshot has %d rounds, want %d (the staged rounds plus the crash)", len(ld.Flight), crashAt)
	}
	// The first crashAt-1 entries are staged traffic; the last is the
	// crash itself.
	for i, rf := range ld.Flight[:crashAt-1] {
		if len(rf.Links) != 1 || rf.Links[0].FramesSent != 1 || rf.Links[0].BytesSent != int64(16+i) {
			t.Fatalf("flight round %d = %+v, want 1 frame of %d bytes", i, rf, 16+i)
		}
	}
	if ld.Flight[crashAt-1].Err == "" {
		t.Fatal("terminal flight entry carries no error")
	}

	// The snapshot must cross the wire: encode as a worker error frame,
	// decode as the coordinator would.
	ef, err := decodeErrorFrame(appendErrorFrame(nil, fmt.Errorf("dist: running job: %w", roundErr)))
	if err != nil {
		t.Fatal(err)
	}
	if !ef.linkDown {
		t.Fatal("chaos crash not classified link-down on the wire")
	}
	var rld *transport.LinkDownError
	if !errors.As(ef.err(), &rld) {
		t.Fatal("decoded error lost the LinkDownError type")
	}
	if len(rld.Flight) != len(ld.Flight) {
		t.Fatalf("decoded flight has %d rounds, want %d", len(rld.Flight), len(ld.Flight))
	}
	for i := range ld.Flight {
		want, got := ld.Flight[i], rld.Flight[i]
		if got.Seq != want.Seq || got.WaitNs != want.WaitNs || got.Err != want.Err ||
			len(got.Links) != len(want.Links) {
			t.Fatalf("flight round %d drifted across the wire: %+v vs %+v", i, got, want)
		}
		for j := range want.Links {
			if got.Links[j] != want.Links[j] {
				t.Fatalf("flight round %d link %d drifted: %+v vs %+v", i, j, got.Links[j], want.Links[j])
			}
		}
	}
}

// TestFlightLogDumpSchema pins the -flight-dump JSON schema: one file
// per populated side, each parsing back into FlightDump with the
// expected side tags and round payloads.
func TestFlightLogDumpSchema(t *testing.T) {
	fl := &FlightLog{}
	fl.reset()
	rec := fl.recorder(0)
	rec.Record(transport.RoundFlight{Seq: 1, Links: []transport.LinkFlight{{Peer: 0, FramesRecv: 1, BytesRecv: 64}}})
	rec.Record(transport.RoundFlight{Seq: 2, Links: []transport.LinkFlight{{Peer: 0, FramesRecv: 1, BytesRecv: 32}}})
	fl.setRemote(1, []transport.RoundFlight{
		{Seq: 40, WaitNs: 1000, Links: []transport.LinkFlight{{Peer: 0, FramesSent: 2, BytesSent: 99}}},
		{Seq: 41, Err: "boom"},
	})

	dir := t.TempDir()
	if err := fl.Dump(dir); err != nil {
		t.Fatal(err)
	}
	check := func(name, side string, worker, rounds int) {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var d FlightDump
		if err := json.Unmarshal(b, &d); err != nil {
			t.Fatalf("%s does not parse: %v", name, err)
		}
		if d.Side != side || d.Worker != worker || len(d.Rounds) != rounds {
			t.Fatalf("%s = side %q worker %d rounds %d, want %q/%d/%d",
				name, d.Side, d.Worker, len(d.Rounds), side, worker, rounds)
		}
	}
	check("coordinator-worker-0.json", "coordinator", 0, 2)
	check("remote-worker-1.json", "worker", 1, 2)
}
