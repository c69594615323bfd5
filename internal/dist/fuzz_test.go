package dist

import (
	"bytes"
	"context"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/resident"
	"kmgraph/internal/transport/tcp"
	"kmgraph/internal/wire"
)

// frameTap is a TCP forwarder in front of one worker that records every
// byte stream crossing it, in both directions, one buffer per direction
// per connection.
type frameTap struct {
	ln      net.Listener
	mu      sync.Mutex
	streams []*bytes.Buffer
}

func startTap(t testing.TB, backend string) *frameTap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &frameTap{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", backend)
			if err != nil {
				client.Close()
				continue
			}
			go tap.pipe(server, client)
			go tap.pipe(client, server)
		}
	}()
	return tap
}

func (tap *frameTap) pipe(dst, src net.Conn) {
	rec := &bytes.Buffer{}
	tap.mu.Lock()
	tap.streams = append(tap.streams, rec)
	tap.mu.Unlock()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			tap.mu.Lock()
			rec.Write(buf[:n])
			tap.mu.Unlock()
			dst.Write(buf[:n])
		}
		if err != nil {
			dst.Close()
			return
		}
	}
}

// frames parses every recorded stream and returns the bodies of the
// control-link frames, by type.
func (tap *frameTap) frames() map[tcp.FrameType][][]byte {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	out := make(map[tcp.FrameType][][]byte)
	for _, s := range tap.streams {
		r := bytes.NewReader(s.Bytes())
		var buf []byte
		for {
			ft, body, err := tcp.ReadFrame(r, &buf)
			if err != nil {
				break
			}
			switch ft {
			case tcp.FrameJob, tcp.FrameResult, tcp.FrameError, tcp.FrameHeartbeat:
				out[ft] = append(out[ft], append([]byte(nil), body...))
			}
		}
	}
	return out
}

// realControlFrames runs two traced 2-worker jobs, one that fails at the
// workers and a residency through taps and returns the control frames
// that crossed.
func realControlFrames(t testing.TB) map[tcp.FrameType][][]byte {
	t.Helper()
	taps := make([]*frameTap, 2)
	addrs := make([]string, 2)
	for i := range taps {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// Beat fast enough that a sub-second job still emits heartbeats
		// carrying span batches, many of them distinct.
		w := NewWorker(ln, WorkerOptions{MeshTimeout: 30 * time.Second, HeartbeatInterval: 250 * time.Microsecond})
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		taps[i] = startTap(t, w.Addr())
		addrs[i] = taps[i].ln.Addr().String()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// An observer makes the residencies traced ones.
	cfg := resident.Config{Config: core.Config{K: 4, Seed: 9}, Observer: func(resident.Event) {}}
	// n=1600: long enough for heartbeats that carry MST phase spans.
	if _, err := fleetMST(ctx, FleetSpec{Source: "gnm:1600:4800:3", Addrs: addrs}, cfg, true); err != nil {
		t.Fatal(err)
	}
	// A connectivity job too: its result frames carry the other output
	// kind, and at n=120000 it runs long enough to give the corpus most of
	// its distinct heartbeats.
	if _, err := fleetStatic(ctx, FleetSpec{Source: "gnm:120000:360000:5", Addrs: addrs}, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := RunConnectivity(ctx, addrs, "store:/nonexistent.kmgs", core.Config{K: 4, Seed: 9}); err == nil {
		t.Fatal("job on a missing store succeeded")
	}
	// A residency too: its command frames follow the spec, and its result
	// frames carry the resident outputs, a batch's and a query's extras
	// included.
	e, err := OpenFleet(FleetSpec{Source: "gnm:600:1800:5", Addrs: addrs}, resident.Config{Config: core.Config{K: 4, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.ApplyBatch(ctx, []graph.EdgeOp{{U: 1, V: 2, W: 3}, {U: 4, V: 5, Del: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(ctx); err != nil {
		t.Fatal(err)
	}
	e.Close()
	all := make(map[tcp.FrameType][][]byte)
	for _, tap := range taps {
		for ft, bodies := range tap.frames() {
			all[ft] = append(all[ft], bodies...)
		}
	}
	return all
}

// The fuzz target's first argument selects the decoder.
const (
	fuzzJob = iota
	fuzzResult
	fuzzError
	fuzzHeartbeat
	fuzzSpans
	fuzzDecoders
)

// The corpus takes a fixed number of seeds of each kind, whatever the
// jobs' wall time: a seed is named by its index (seed#N), so a count that
// followed the clock would drop names whenever the engine got faster. The
// job, result and error counts are what the commands send; on a loaded box
// the failing job's second worker can be closed before its job or error
// frame crosses (23 job and 1 error frames were seen), so those are fixed
// too. The total, 6,041 seeds with the one hand-made frame, exceeds the
// most the unfixed corpus gave on a 2-core x86-64 box (5,890 with the
// package alone, 5,301 in a full `go test ./...`).
var fuzzSeeds = map[tcp.FrameType]int{
	tcp.FrameJob:       24,
	tcp.FrameResult:    14,
	tcp.FrameError:     2,
	tcp.FrameHeartbeat: 4500,
}

const fuzzSpanSeeds = 1500 // span batches taken from the heartbeats

// firstN returns the first n bodies, repeated in order when there are
// fewer.
func firstN(bodies [][]byte, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = bodies[i%len(bodies)]
	}
	return out
}

// FuzzControlFrames: every decoder of the coordinator–worker control link
// survives arbitrary bytes — no panic, no hang on a huge count field —
// and what it accepts survives a re-encode. Seeded from the frames of
// real traced 2-worker jobs: the first fuzzSeeds[kind] frames of each kind
// and fuzzSpanSeeds span batches.
func FuzzControlFrames(f *testing.F) {
	real := realControlFrames(f)
	for kind, ft := range []tcp.FrameType{
		fuzzJob: tcp.FrameJob, fuzzResult: tcp.FrameResult, fuzzError: tcp.FrameError, fuzzHeartbeat: tcp.FrameHeartbeat,
	} {
		bodies := real[ft]
		if len(bodies) == 0 {
			f.Fatalf("the real jobs produced no frame of type %d", ft)
		}
		for _, body := range firstN(bodies, fuzzSeeds[ft]) {
			f.Add(byte(kind), body)
		}
	}
	var spans [][]byte
	for _, body := range real[tcp.FrameHeartbeat] {
		if _, _, sp, err := decodeHeartbeat(body); err == nil && len(sp) > 0 {
			spans = append(spans, appendSpans(nil, sp))
		}
	}
	if len(spans) == 0 {
		f.Fatal("no heartbeat of the traced job carried spans")
	}
	for _, body := range firstN(spans, fuzzSpanSeeds) {
		f.Add(byte(fuzzSpans), body)
	}
	f.Add(byte(fuzzResult), []byte{0, 4, 0xff, 0xff, 0x03}) // metrics for k=65535, no bytes

	f.Fuzz(func(t *testing.T, kind byte, body []byte) {
		switch kind % fuzzDecoders {
		case fuzzJob:
			j, err := DecodeJob(body)
			if err != nil {
				return
			}
			j2, err := DecodeJob(AppendJob(nil, j))
			if err != nil || !reflect.DeepEqual(j, j2) {
				t.Fatalf("job drifted through a re-encode (err %v):\n got  %+v\n want %+v", err, j2, j)
			}
		case fuzzResult:
			rf, err := decodeResultFrame(body)
			if err != nil {
				return
			}
			if len(rf.outputs) != rf.hi-rf.lo {
				t.Fatalf("result for [%d,%d) carries %d outputs", rf.lo, rf.hi, len(rf.outputs))
			}
		case fuzzError:
			ef, err := decodeErrorFrame(body)
			if err != nil {
				return
			}
			if ef.err() == nil {
				t.Fatal("error frame reconstructed to a nil error")
			}
		case fuzzHeartbeat:
			id, rounds, sp, err := decodeHeartbeat(body)
			if err != nil {
				return
			}
			id2, rounds2, sp2, err := decodeHeartbeat(appendHeartbeat(nil, id, rounds, sp))
			if err != nil || id2 != id || rounds2 != rounds || !reflect.DeepEqual(sp, sp2) {
				t.Fatalf("heartbeat drifted through a re-encode: %v", err)
			}
		case fuzzSpans:
			sp, err := readSpans(wire.NewReader(body))
			if err != nil {
				return
			}
			sp2, err := readSpans(wire.NewReader(appendSpans(nil, sp)))
			if err != nil || !reflect.DeepEqual(sp, sp2) {
				t.Fatalf("spans drifted through a re-encode: %v", err)
			}
		}
	})
}
