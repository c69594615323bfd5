package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"kmgraph"
	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/proxy"
	"kmgraph/internal/sketch"
	"kmgraph/internal/store"
	"kmgraph/internal/telemetry"
	"kmgraph/internal/transport"
	"kmgraph/internal/transport/tcp"
	"kmgraph/internal/wire"
)

// Layer probes: each calls one layer's exported functions on inputs derived
// from the workload's graph and times the call from outside. They run in
// the traced run only, after the traced ops, each inside a span.

const (
	probeLane        = 9    // the probes' row in the trace
	probeBatches     = 256  // churn batches the probed fixture carries
	probeCycles      = 200  // ApplyBatch + Connectivity cycles of the resident probe
	probeRounds      = 2000 // rounds of the kmachine and switch probes
	probeSketches    = 2000 // vertex sketches encoded, summed and sampled
	probeWireMsgs    = 50000
	probeTCPBodies   = 2000
	probeExchanges   = 5
	probeRequests    = 1000 // HTTP requests of the server probe
	probeHandlerHits = 2000
	probePayload     = 64 // bytes per message in the kmachine and switch probes
)

// prober carries what the probes share.
type prober struct {
	ctx     context.Context
	fx      *fixture
	tr      *tracer
	out     map[string]float64
	checked int      // oracle comparisons made
	failed  int      // and how many of them failed
	notes   []string // what failed
}

func (p *prober) failf(format string, args ...any) {
	p.failed++
	p.notes = append(p.notes, fmt.Sprintf(format, args...))
}

// check counts one oracle comparison.
func (p *prober) check(what string, got, want int64) {
	p.checked++
	if got != want {
		p.failf("%s: got %d, oracle %d", what, got, want)
	}
}

// span times fn inside a probe span, in seconds.
func (p *prober) span(layer, name string, fn func() error) (float64, error) {
	var err error
	d := p.tr.timed(layer, "probe."+name, 0, 0, probeLane, func() { err = fn() })
	return d.Seconds(), err
}

// medianSpan is the median of n spans of fn.
func (p *prober) medianSpan(n int, layer, name string, fn func() error) (float64, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := p.span(layer, name, fn)
		if err != nil {
			return 0, err
		}
		ds = append(ds, d)
	}
	return median(ds), nil
}

// runProbes runs every layer probe on the fixture's graph and returns the
// per-layer metrics they produce.
func runProbes(ctx context.Context, fx *fixture, tr *tracer) (*prober, error) {
	p := &prober{ctx: ctx, fx: fx, tr: tr, out: map[string]float64{}}
	for _, probe := range []struct {
		name string
		run  func() error
	}{
		{"store", p.store}, {"kmachine", p.kmachine}, {"sketch+wire+tcp-frames", p.sketchWire},
		{"switch", p.transportSwitch}, {"core", p.core}, {"resident", p.resident},
		{"dist", p.dist}, {"server", p.server},
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := probe.run(); err != nil {
			return nil, fmt.Errorf("%s probe: %w", probe.name, err)
		}
	}
	return p, nil
}

func (p *prober) store() error {
	d, err := p.medianSpan(3, "store", "store.decode", func() error {
		r, err := store.Open(p.fx.path)
		if err != nil {
			return err
		}
		defer r.Close()
		src := r.Source()
		if err := src.Reset(); err != nil {
			return err
		}
		edges := 0
		for {
			if _, err := src.Next(); err == io.EOF {
				break
			} else if err != nil {
				return err
			}
			edges++
		}
		if edges != p.fx.g.M() {
			p.failf("store: decoded %d edges, graph has %d", edges, p.fx.g.M())
		}
		return nil
	})
	if err != nil {
		return err
	}
	st, err := os.Stat(p.fx.path)
	if err != nil {
		return err
	}
	p.out["store.decode_s"] = d
	p.out["store.bytes_per_edge"] = float64(st.Size()) / float64(p.fx.g.M())
	return nil
}

func (p *prober) kmachine() error {
	k, n := p.fx.sc.K, p.fx.sc.N
	d, err := p.medianSpan(3, "kmachine", "kmachine.LoadShards", func() error {
		r, err := store.Open(p.fx.path)
		if err != nil {
			return err
		}
		defer r.Close()
		// The partition seed the one-shot drivers derive from a job's seed.
		_, err = kmachine.LoadShards(r.Source(), k, uint64(p.fx.seed)^0x9e37)
		return err
	})
	if err != nil {
		return err
	}
	p.out["kmachine.shardload_s"] = d

	// The round engine alone: every machine sends one small message on
	// every link every round, so a round is k(k-1) messages through the
	// coordinator, the switch and the barrier, and nothing else.
	cluster, err := kmachine.New(kmachine.Config{K: k, BandwidthBits: kmachine.Bandwidth(n),
		MessageOverheadBits: 64, Seed: p.fx.seed})
	if err != nil {
		return err
	}
	payload := make([]byte, probePayload)
	var res *kmachine.Result
	d, err = p.span("kmachine", "kmachine.rounds", func() error {
		var err error
		res, err = cluster.RunContext(p.ctx, func(m *kmachine.Ctx) error {
			for r := 0; r < probeRounds; r++ {
				m.Broadcast(payload)
				m.Step()
			}
			return nil
		})
		return err
	})
	if err != nil {
		return err
	}
	p.out["kmachine.round_us"] = d * 1e6 / float64(res.Metrics.Rounds)
	return nil
}

// sketchWire probes the sketch layer over every vertex of the graph, then
// the wire and TCP-frame codecs on one encoded sketch (a typical payload).
func (p *prober) sketchWire() error {
	g, n := p.fx.g, p.fx.sc.N
	params := sketch.DefaultParams(n)
	pool := sketch.NewPool(params)
	defer pool.Release()
	seed := uint64(p.fx.seed)*0x9e3779b97f4a7c15 + 1

	d, _ := p.span("sketch", "sketch.AddVertex", func() error {
		for v := 0; v < n; v++ {
			s := pool.Get(seed)
			s.AddVertex(v, g.Adj(v), nil)
			pool.Put(s)
		}
		return nil
	})
	p.out["sketch.addvertex_ns_per_edge"] = d * 1e9 / float64(2*g.M())

	// The first probeSketches non-isolated vertices, as the sketches phase
	// 0 ships: one per vertex.
	var sketches []*sketch.Sketch
	for v := 0; v < n && len(sketches) < probeSketches; v++ {
		if g.Degree(v) == 0 {
			continue
		}
		s := pool.Get(seed)
		s.AddVertex(v, g.Adj(v), nil)
		sketches = append(sketches, s)
	}
	if len(sketches) == 0 {
		return fmt.Errorf("graph has no edges")
	}
	encoded := make([][]byte, len(sketches))
	var bytes int
	d, _ = p.span("sketch", "sketch.EncodeTo", func() error {
		for i, s := range sketches {
			encoded[i] = s.EncodeTo(nil)
		}
		return nil
	})
	msg := encoded[0]
	for _, e := range encoded {
		bytes += len(e)
		if len(e) > len(msg) {
			msg = e
		}
	}
	p.out["sketch.encode_ns"] = d * 1e9 / float64(len(sketches))
	p.out["sketch.encoded_bytes"] = float64(bytes) / float64(len(sketches))

	sum := pool.Get(seed)
	d, err := p.span("sketch", "sketch.AddEncoded", func() error {
		for _, e := range encoded {
			if err := sum.AddEncoded(e); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["sketch.addencoded_ns"] = d * 1e9 / float64(len(encoded))

	sampled := 0
	d, _ = p.span("sketch", "sketch.Sample", func() error {
		for _, s := range sketches {
			if _, _, st := s.Sample(); st == sketch.Sampled {
				sampled++
			}
		}
		return nil
	})
	p.out["sketch.sample_ns"] = d * 1e9 / float64(len(sketches))
	if sampled == 0 {
		p.failf("sketch: no vertex sketch of %d sampled an edge", len(sketches))
	}
	pool.Put(sum)
	pool.Put(sketches...)

	// wire: frame the payload the way a machine does, then read it back.
	arena := wire.NewArena(0)
	framed := make([][]byte, probeWireMsgs)
	d, _ = p.span("wire", "wire.append", func() error {
		for i := range framed {
			b := arena.Grab(len(msg) + 32)
			b = wire.AppendUvarint(b, uint64(i))
			b = wire.AppendUvarint(b, uint64(len(framed)))
			b = wire.AppendUvarint(b, seed)
			b = wire.AppendBytes(b, msg)
			framed[i] = arena.Commit(b)
		}
		return nil
	})
	p.out["wire.append_ns_per_msg"] = d * 1e9 / float64(len(framed))
	d, err = p.span("wire", "wire.read", func() error {
		for _, b := range framed {
			r := wire.NewReader(b)
			r.Uvarint()
			r.Uvarint()
			r.Uvarint()
			r.Bytes()
			if err := r.Done(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["wire.read_ns_per_msg"] = d * 1e9 / float64(len(framed))

	// transport/tcp frames: one barrier's round body between two workers,
	// a message per (source, destination) pair across the split.
	k := p.fx.sc.K
	var msgs []transport.Message
	for s := 0; s < k/2; s++ {
		for dst := k / 2; dst < k; dst++ {
			msgs = append(msgs, transport.Message{Src: s, Dst: dst, Data: msg})
		}
	}
	var body []byte
	d, _ = p.span("transport", "tcp.AppendRoundBody", func() error {
		for i := 0; i < probeTCPBodies; i++ {
			body = tcp.AppendRoundBody(body[:0], uint64(i), 0, msgs)
		}
		return nil
	})
	p.out["transport.tcp.encode_ns_per_msg"] = d * 1e9 / float64(probeTCPBodies*len(msgs))
	var frame tcp.RoundFrame
	d, err = p.span("transport", "tcp.DecodeRound", func() error {
		for i := 0; i < probeTCPBodies; i++ {
			if err := tcp.DecodeRound(body, k, arena, &frame); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["transport.tcp.decode_ns_per_msg"] = d * 1e9 / float64(probeTCPBodies*len(msgs))

	return p.proxy(msg)
}

// proxy probes the collective layer: every machine sends n/k sketch-sized
// payloads to the proxies their labels hash to, as a phase does.
func (p *prober) proxy(msg []byte) error {
	k, n := p.fx.sc.K, p.fx.sc.N
	cluster, err := kmachine.New(kmachine.Config{K: k, BandwidthBits: kmachine.Bandwidth(n),
		MessageOverheadBits: 64, Seed: p.fx.seed})
	if err != nil {
		return err
	}
	shared := proxy.NewSharedFromSeed(uint64(p.fx.seed))
	var res *kmachine.Result
	d, err := p.span("proxy", "proxy.Exchange", func() error {
		var err error
		res, err = cluster.RunContext(p.ctx, func(m *kmachine.Ctx) error {
			comm := proxy.NewComm(m)
			out := make([]proxy.Out, n/k)
			for e := 0; e < probeExchanges; e++ {
				for i := range out {
					label := uint64(m.ID()*(n/k) + i)
					out[i] = proxy.Out{Dst: shared.ProxyOf(e, 0, label, k), Data: msg}
				}
				comm.Exchange(out)
			}
			return nil
		})
		return err
	})
	if err != nil {
		return err
	}
	p.out["proxy.exchange_us_per_round"] = d * 1e6 / float64(res.Metrics.Rounds)
	p.out["proxy.rounds_per_exchange"] = float64(res.Metrics.Rounds) / probeExchanges
	return nil
}

func (p *prober) transportSwitch() error {
	k, n := p.fx.sc.K, p.fx.sc.N
	met := transport.NewMetrics(k)
	sw := transport.NewSwitch(transport.Params{K: k, BandwidthBits: kmachine.Bandwidth(n), MessageOverheadBits: 64},
		0, k, met, 1)
	defer sw.Stop()
	payload := make([]byte, probePayload)
	d, _ := p.span("transport", "transport.Switch", func() error {
		for r := 0; r < probeRounds; r++ {
			for s := 0; s < k; s++ {
				for dst := 0; dst < k; dst++ {
					if s != dst {
						sw.Enqueue(transport.Message{Src: s, Dst: dst, Data: payload})
					}
				}
			}
			sw.TransmitRound()
		}
		for sw.Active() {
			sw.TransmitRound()
		}
		return nil
	})
	if want := int64(probeRounds * k * (k - 1)); met.Messages != want {
		p.failf("switch: delivered %d of %d messages", met.Messages, want)
	}
	p.out["transport.switch_ns_per_msg"] = d * 1e9 / float64(met.Messages)
	return nil
}

// core runs the one-shot drivers on the same graph over transport/local:
// the plain single-process baseline of the same problems.
func (p *prober) core() error {
	cfg := core.Config{K: p.fx.sc.K, Seed: p.fx.seed}
	_, comps := graph.Components(p.fx.g)
	var res *core.Result
	d, err := p.medianSpan(3, "core", "core.RunSource", func() error {
		r, err := store.Open(p.fx.path)
		if err != nil {
			return err
		}
		defer r.Close()
		res, err = core.RunSourceContext(p.ctx, r.Source(), cfg)
		return err
	})
	if err != nil {
		return err
	}
	p.check("core.RunSource components", int64(res.Components), int64(comps))
	p.out["core.oneshot_s"] = d
	p.out["core.phases"] = float64(res.Phases)

	_, weight := graph.KruskalMST(p.fx.g)
	var mst *core.MSTResult
	d, err = p.span("core", "core.RunMST", func() error {
		var err error
		mst, err = core.RunMSTContext(p.ctx, p.fx.g, core.MSTConfig{Config: cfg})
		return err
	})
	if err != nil {
		return err
	}
	p.check("core.RunMST weight", mst.TotalWeight, weight)
	p.out["core.mst_oneshot_s"] = d
	return nil
}

// resident walks one residency through its life: load, first and second
// query, MST, a run of churn cycles, close.
func (p *prober) resident() error {
	ctx, fx := p.ctx, p.fx
	const op = -1 // the probe residency's op id in the trace
	ps := &phaseSpans{tr: p.tr, op: op, lane: probeLane}
	var c *kmgraph.Cluster
	d, err := p.span("resident", "resident.OpenCluster", func() error {
		var err error
		c, err = kmgraph.OpenCluster(fx.path, kmgraph.WithK(fx.sc.K), kmgraph.WithSeed(fx.seed),
			kmgraph.WithObserver(ps.observe), kmgraph.WithPhaseMetrics())
		return err
	})
	if err != nil {
		return err
	}
	defer c.Close()
	p.out["resident.load_s"] = d
	p.out["resident.heap_after_load_mb"] = liveHeapMB()

	_, comps := graph.Components(fx.g)
	query := func(name string) (float64, *kmgraph.QueryResult, error) {
		var q *kmgraph.QueryResult
		id := p.tr.begin("resident", "probe."+name, 0, op, probeLane)
		ps.setParent(id)
		q, err := c.Connectivity(ctx)
		ps.setParent(0)
		return p.tr.end(id).Seconds(), q, err
	}
	first, q, err := query("resident.first_query")
	if err != nil {
		return err
	}
	p.check("resident first query components", int64(q.Components), int64(comps))
	p.out["resident.first_query_s"] = first
	if phase0 := p.tr.seconds("connectivity.phase0"); len(phase0) > 0 {
		p.out["resident.phase0_share"] = phase0[len(phase0)-1] / first
	}
	p.out["resident.heap_after_query_mb"] = liveHeapMB()

	again, q, err := query("resident.requery")
	if err != nil {
		return err
	}
	p.check("resident requery components", int64(q.Components), int64(comps))
	p.out["resident.requery_ms"] = again * 1e3

	_, weight := graph.KruskalMST(fx.g)
	d, err = p.span("resident", "resident.MST", func() error {
		r, err := c.MST(ctx)
		if err == nil {
			p.check("resident MST weight", r.TotalWeight, weight)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.out["resident.mst_s"] = d

	// The serve_churn stream without HTTP: what a miss costs underneath.
	oracle := newEdgeOracle(fx.g)
	var batchS, queryS []float64
	var rounds float64
	cycles := min(probeCycles, len(fx.stream.Batches))
	for i := 0; i < cycles; i++ {
		batch := fx.stream.Batches[i]
		d, err := p.span("resident", "resident.ApplyBatch", func() error {
			br, err := c.ApplyBatch(ctx, batch)
			if err == nil && br.Applied != len(batch) {
				p.failf("resident batch %d: applied %d of %d", i, br.Applied, len(batch))
			}
			return err
		})
		if err != nil {
			return err
		}
		batchS = append(batchS, d)
		d, q, err := query("resident.incr_query")
		if err != nil {
			return err
		}
		queryS = append(queryS, d)
		rounds += float64(q.Rounds)
		oracle.apply(batch)
		if oracle.epoch%oracleEvery == 0 || i == cycles-1 {
			p.check(fmt.Sprintf("resident cycle %d components", i), int64(q.Components), int64(oracle.components()))
		}
	}
	p.out["resident.batch_ms"] = median(batchS) * 1e3
	p.out["resident.incr_query_ms"] = median(queryS) * 1e3
	p.out["resident.incr_rounds"] = rounds / float64(cycles)

	d, err = p.span("resident", "resident.Close", c.Close)
	p.out["resident.close_ms"] = d * 1e3
	return err
}

// dist runs the graph as a distributed job over two loopback workers, with
// the transport's telemetry directed into a registry of the probe's own.
func (p *prober) dist() error {
	const jobs = 3
	s := &jobSession{}
	defer s.close()
	if err := s.startWorkers(2); err != nil {
		return err
	}
	if _, err := s.tcpConn(p.ctx, nil, 0, p.fx); err != nil { // untimed: listeners and page cache warm
		return err
	}
	reg := telemetry.NewRegistry()
	tcp.RegisterTelemetry(reg)
	_, comps := graph.Components(p.fx.g)
	var times []float64
	var out jobOutcome
	for i := 0; i < jobs; i++ {
		d, err := p.span("dist", "dist.RunConnectivity", func() error {
			var err error
			out, err = s.tcpConn(p.ctx, nil, 0, p.fx)
			return err
		})
		if err != nil {
			return err
		}
		p.check("dist components", out.answer, int64(comps))
		times = append(times, d)
	}
	p.out["dist.job_s"] = median(times)
	p.out["dist.over_oneshot"] = median(times) / p.out["core.oneshot_s"]

	wireBytes := promValue(reg, "kmgraph_transport_bytes_sent_total")
	p.out["transport.tcp.wire_mb_per_op"] = wireBytes / jobs / 1e6
	p.out["transport.tcp.frames_per_op"] = promValue(reg, "kmgraph_transport_frames_sent_total") / jobs
	if out.payloadBytes > 0 {
		p.out["transport.tcp.wire_over_model"] = wireBytes / jobs / float64(out.payloadBytes)
	}
	// Bounds are fixed by the transport at first registration; this fetches
	// the series it filled.
	wait := reg.HistogramWith(nil, "kmgraph_transport_barrier_wait_seconds", "")
	p.out["transport.tcp.barrier_wait_p50_us"] = wait.Quantile(0.50) * 1e6
	p.out["transport.tcp.barrier_wait_p99_us"] = wait.Quantile(0.99) * 1e6
	var busy float64
	for _, t := range times {
		busy += t * float64(len(s.workers))
	}
	p.out["transport.tcp.barrier_wait_share"] = wait.Sum() / busy
	return nil
}

// server puts the graph behind the HTTP front end and runs a short
// serve_churn session against it, then times the handler without a socket.
func (p *prober) server() error {
	s, err := newServeSession(p.ctx, p.fx, "probe.")
	if err != nil {
		return err
	}
	defer s.close()
	w, err := s.measure(p.ctx, limit{seconds: 60, maxOps: probeRequests}, p.tr)
	if err != nil {
		return err
	}
	p.checked += w.attempted
	p.failed += w.failed
	p.notes = append(p.notes, w.notes...)
	p.out["server.http_hit_us"] = median(p.tr.seconds("probe."+famConnectivity+".hit")) * 1e6
	p.out["server.miss_ms"] = median(p.tr.seconds("probe."+famConnectivity+".miss")) * 1e3
	p.out["server.metrics_us"] = median(p.tr.seconds("probe."+famMetrics)) * 1e6
	p.out["server.batch_ms"] = median(p.tr.seconds("probe."+famBatch)) * 1e3
	p.out["server.resp_bytes"] = median(w.hitBytes)
	reg := s.srv.Registry()
	hits, misses := promValue(reg, "kmserve_cache_hits_total"), promValue(reg, "kmserve_cache_misses_total")
	if hits+misses > 0 {
		p.out["server.hit_share"] = hits / (hits + misses)
	}
	p.out["server.shed_share"] = promValue(reg, "kmserve_shed_total") / float64(w.attempted)

	var direct []float64
	p.tr.timed("server", "probe.server.ServeHTTP", 0, 0, probeLane, func() { direct = s.handlerHits(probeHandlerHits) })
	if len(direct) != probeHandlerHits {
		p.failf("server: %d of %d direct handler calls answered 200", len(direct), probeHandlerHits)
	}
	p.out["server.handler_hit_us"] = median(direct) * 1e6
	return nil
}
