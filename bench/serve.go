package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"kmgraph"
	"kmgraph/internal/graph"
	"kmgraph/internal/server"
	"kmgraph/internal/telemetry"
)

const (
	serveGraph   = "g"
	serveClients = 2 // = nproc on the box the benchmark was sized on
	// serveBatches is the length of the generated update stream: nine times
	// what the writer consumes in a 20 s window today. Once it is used up
	// the writer reads instead, and the report says so.
	serveBatches = 8192
	// oracleEvery is the stride of epochs checked against the oracle after
	// the window (the last epoch is always checked).
	oracleEvery = 16
	// blockSeconds is the length of the blocks a window is cut into: long
	// enough that a block's 99th percentile has ten requests beyond it.
	blockSeconds = 1
)

// Request families of the serve_churn mix.
const (
	famConnectivity = "connectivity"
	famMetrics      = "metrics"
	famBatch        = "batch"
)

// serveSession is one residency behind the HTTP front end, with two
// closed-loop clients.
type serveSession struct {
	fx  *fixture
	c   *kmgraph.Cluster
	srv *server.Server
	ts  *httptest.Server

	clients [serveClients]*http.Client
	rngs    [serveClients]*rand.Rand
	decks   [serveClients][]string // what is left of each client's current deal
	opBase  int

	// spanPrefix tells the spans of a probe's session from the workload's.
	spanPrefix string

	// The writer's progress and the oracle's replay of it.
	nextBatch int            // next unsent batch of the stream
	oracle    *edgeOracle    // at epoch = batches replayed
	compsAt   map[uint64]int // oracle component count by checked epoch
	exhausted bool           // the stream ran out during a window
}

// edgeOracle is the sequential reference for a graph under churn: the live
// edge set, and a union-find from scratch when asked for components
// (deletions rule out an incremental one).
type edgeOracle struct {
	n     int
	live  map[uint64]struct{}
	epoch uint64 // batches applied
}

func newEdgeOracle(g *graph.Graph) *edgeOracle {
	o := &edgeOracle{n: g.N(), live: make(map[uint64]struct{}, g.M())}
	for _, e := range g.Edges() {
		o.live[graph.EdgeID(e.U, e.V, o.n)] = struct{}{}
	}
	return o
}

func (o *edgeOracle) apply(batch []graph.EdgeOp) {
	for _, op := range batch {
		id := graph.EdgeID(op.U, op.V, o.n)
		if op.Del {
			delete(o.live, id)
		} else {
			o.live[id] = struct{}{}
		}
	}
	o.epoch++
}

func (o *edgeOracle) components() int {
	uf := graph.NewUnionFind(o.n)
	for id := range o.live {
		u, v := graph.DecodeEdgeID(id, o.n)
		uf.Union(u, v)
	}
	return uf.Count()
}

func (s *serveSession) fixture() *fixture { return s.fx }

func setupServe(ctx context.Context, sc scale, seed int64, dir string) (session, error) {
	fx, err := newFixture(wlServeChurn, sc, seed, dir, serveBatches)
	if err != nil {
		return nil, err
	}
	return newServeSession(ctx, fx, "")
}

// newServeSession loads the fixture's graph onto a fresh residency, pays
// the cold query, and puts the HTTP front end and its clients up.
func newServeSession(ctx context.Context, fx *fixture, spanPrefix string) (*serveSession, error) {
	sc, seed := fx.sc, fx.seed
	c, err := kmgraph.NewCluster(fx.g, kmgraph.WithK(sc.K), kmgraph.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	s := &serveSession{fx: fx, c: c, spanPrefix: spanPrefix, oracle: newEdgeOracle(fx.g), compsAt: map[uint64]int{}}
	s.compsAt[0] = s.oracle.components()
	// The cold query is paid here, in set-up: serve_churn measures a warm
	// residency under churn, cold_conn measures the cold query.
	q, err := c.Connectivity(ctx)
	if err == nil && q.Components != s.compsAt[0] {
		err = fmt.Errorf("cold query: %d components, oracle %d", q.Components, s.compsAt[0])
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	s.srv = server.New(server.Config{})
	if err := s.srv.Register(serveGraph, c); err != nil {
		c.Close()
		return nil, err
	}
	s.ts = httptest.NewServer(s.srv)
	for i := range s.clients {
		s.clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		s.rngs[i] = rand.New(rand.NewSource(seed<<8 + int64(i)))
		// The untimed warm-up ops: the connection is up and the result
		// cache holds the current epoch's answer.
		for _, fam := range []string{famConnectivity, famMetrics} {
			if r := s.request(ctx, i, fam, nil); r.err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up %s: %w", fam, r.err)
			}
		}
	}
	return s, nil
}

func (s *serveSession) close() error {
	s.ts.Close()
	err := s.srv.Close() // closes the cluster too
	for _, c := range s.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	return err
}

// response is what the bench keeps of one HTTP exchange.
type response struct {
	err   error
	bytes int
	hit   bool
	body  struct {
		Epoch          uint64 `json:"epoch"`
		Components     int    `json:"components"`
		SketchFailures int64  `json:"sketch_failures"`
		Applied        int    `json:"applied"`
	}
}

type jsonOp struct {
	U   int  `json:"u"`
	V   int  `json:"v"`
	Del bool `json:"del,omitempty"`
}

// request sends one request of the family from the client and reads the
// whole response.
func (s *serveSession) request(ctx context.Context, client int, fam string, ops []graph.EdgeOp) response {
	var r response
	method, url, body := http.MethodGet, s.ts.URL+"/graphs/"+serveGraph+"/"+fam, io.Reader(nil)
	if fam == famBatch {
		req := struct {
			Ops []jsonOp `json:"ops"`
		}{Ops: make([]jsonOp, len(ops))}
		for i, op := range ops {
			req.Ops[i] = jsonOp{U: op.U, V: op.V, Del: op.Del}
		}
		data, err := json.Marshal(req)
		if err != nil {
			r.err = err
			return r
		}
		method, body = http.MethodPost, bytes.NewReader(data)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		r.err = err
		return r
	}
	resp, err := s.clients[client].Do(hreq)
	if err != nil {
		r.err = err
		return r
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.bytes = len(data)
	r.hit = resp.Header.Get("X-Kmserve-Cache") == "hit"
	switch {
	case err != nil:
		r.err = err
	case resp.StatusCode != http.StatusOK:
		// A refusal (429) counts as a failure like any other non-2xx.
		r.err = fmt.Errorf("%s: HTTP %d: %s", fam, resp.StatusCode, strings.TrimSpace(string(data)))
	default:
		r.err = json.Unmarshal(data, &r.body)
	}
	return r
}

// observation is one connectivity answer: what the server said the graph
// looked like at an epoch.
type observation struct {
	epoch uint64
	comps int
}

// clientLog is what one client goroutine records; the logs are merged when
// both clients have stopped.
type clientLog struct {
	latencies      []float64
	attempted      int
	failures       []string
	seen           []observation
	sketchFailures int64
	hitBytes       []float64 // sizes of cache-hit connectivity responses (traced only)
}

// mixDeck is one round of the request mix: connectivity 8 : metrics 2 :
// batch 1.
var mixDeck = [11]string{
	famConnectivity, famConnectivity, famConnectivity, famConnectivity,
	famConnectivity, famConnectivity, famConnectivity, famConnectivity,
	famMetrics, famMetrics, famBatch,
}

// draw picks the next request family of a client by dealing from a deck of
// the mix that the client's seeded generator reshuffles each time it runs
// out: the order is drawn from the seed, while the shares are exact over
// every eleven requests (independent draws would add a binomial spread of
// several percent to the miss count of a window). Only client 0 writes; the
// others read instead, so batches apply in stream order and the edge count
// stays stationary.
func (s *serveSession) draw(client int) string {
	deck := &s.decks[client]
	if len(*deck) == 0 {
		*deck = append(*deck, mixDeck[:]...)
		s.rngs[client].Shuffle(len(*deck), func(i, j int) { (*deck)[i], (*deck)[j] = (*deck)[j], (*deck)[i] })
	}
	fam := (*deck)[len(*deck)-1]
	*deck = (*deck)[:len(*deck)-1]
	if fam != famBatch {
		return fam
	}
	if client != 0 {
		return famConnectivity
	}
	if s.nextBatch >= len(s.fx.stream.Batches) {
		s.exhausted = true
		return famConnectivity
	}
	return famBatch
}

func (s *serveSession) clientLoop(ctx context.Context, client int, lim limit, tr *tracer, start time.Time, log *clientLog) {
	for ctx.Err() == nil && time.Since(start).Seconds() < lim.seconds &&
		(lim.maxOps == 0 || log.attempted < lim.maxOps/serveClients) {
		fam := s.draw(client)
		var ops []graph.EdgeOp
		if fam == famBatch {
			ops = s.fx.stream.Batches[s.nextBatch]
		}
		log.attempted++
		t0 := time.Now()
		r := s.request(ctx, client, fam, ops)
		t1 := time.Now()
		name := s.spanPrefix + fam
		if fam == famConnectivity {
			if r.hit {
				name += ".hit"
			} else {
				name += ".miss"
			}
		}
		tr.record("server", name, 0, s.opBase+client+serveClients*log.attempted, client+1, t0, t1)
		if fam == famBatch {
			// Sent or not, the batch is spent: a lost batch shows as wrong
			// epochs from here on, which is what it is.
			s.nextBatch++
			if r.err == nil && (r.body.Epoch != uint64(s.nextBatch) || r.body.Applied != len(ops)) {
				r.err = fmt.Errorf("batch %d: epoch %d applied %d/%d", s.nextBatch, r.body.Epoch, r.body.Applied, len(ops))
			}
		}
		if r.err != nil {
			log.failures = append(log.failures, r.err.Error())
			continue
		}
		log.latencies = append(log.latencies, t1.Sub(t0).Seconds())
		if fam == famConnectivity {
			log.seen = append(log.seen, observation{r.body.Epoch, r.body.Components})
			if !r.hit {
				log.sketchFailures += r.body.SketchFailures
			}
			if tr != nil && r.hit {
				log.hitBytes = append(log.hitBytes, float64(r.bytes))
			}
		}
	}
}

func (s *serveSession) measure(ctx context.Context, lim limit, tr *tracer) (*window, error) {
	w := &window{}
	firstBatch := s.nextBatch
	var poller *heapPoller
	if tr != nil {
		poller = startHeapPoller()
	}
	before := s.c.Metrics().Total
	w.before = readProc()
	start := time.Now()
	// The window is whole blocks: in each, both clients run their closed
	// loop for blockSeconds, and the block in flight finishes.
	block := limit{seconds: min(blockSeconds, lim.seconds)}
	var blocks []blockStat
	var seen []observation
	for w.elapsed < lim.seconds && (lim.maxOps == 0 || w.attempted < lim.maxOps) && ctx.Err() == nil {
		if lim.maxOps > 0 {
			block.maxOps = lim.maxOps - w.attempted
		}
		logs := make([]clientLog, serveClients)
		attempted := w.attempted
		user := userCPU()
		opened := time.Now()
		var wg sync.WaitGroup
		for i := range logs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s.clientLoop(ctx, i, block, tr, opened, &logs[i])
			}(i)
		}
		wg.Wait()
		took := time.Since(opened).Seconds()
		user = userCPU() - user
		var lat []float64
		for i := range logs {
			s.opBase += serveClients * (logs[i].attempted + 1)
			w.attempted += logs[i].attempted
			lat = append(lat, logs[i].latencies...)
			w.sketchFailures += float64(logs[i].sketchFailures)
			w.hitBytes = append(w.hitBytes, logs[i].hitBytes...)
			seen = append(seen, logs[i].seen...)
			for _, f := range logs[i].failures {
				w.fail("client %d: %s", i, f)
			}
		}
		w.latencies = append(w.latencies, lat...)
		if len(lat) > 0 {
			blocks = append(blocks, blockStat{p50: median(lat), p99: percentile(lat, 99),
				rate: float64(len(lat)) / took, cpu: user / float64(len(lat))})
		}
		w.elapsed = time.Since(start).Seconds()
		if w.attempted == attempted {
			break // what is left of maxOps is less than one request a client
		}
	}
	w.after = readProc()
	after := s.c.Metrics().Total
	if poller != nil {
		w.heapPeakMB = poller.stopMB()
	}
	w.rounds = float64(after.Rounds - before.Rounds)
	w.messages = float64(after.Messages - before.Messages)
	w.payloadBytes = float64(after.PayloadBytes - before.PayloadBytes)
	w.linkSkew = linkSkew(&after)
	s.verify(w, firstBatch, seen)
	w.timings = blockTimings(blocks)
	return w, ctx.Err()
}

// blockStat is what one block of a window measured: the median and the
// 99th-percentile latency of its requests, their rate, and the user CPU per
// request.
type blockStat struct{ p50, p99, rate, cpu float64 }

// blockTimings reports each timing as its best block had it: requests
// cannot be repeated as jobs can, but the blocks can, and a disturbance that
// only ever adds time leaves the best of them as the box would have it
// undisturbed.
func blockTimings(blocks []blockStat) timings {
	if len(blocks) == 0 {
		return timings{}
	}
	t := timings{p50: blocks[0].p50, p99: blocks[0].p99, opsPerS: blocks[0].rate, cpuPerOp: blocks[0].cpu}
	for _, b := range blocks[1:] {
		t.p50 = min(t.p50, b.p50)
		t.p99 = min(t.p99, b.p99)
		t.opsPerS = max(t.opsPerS, b.rate)
		t.cpuPerOp = min(t.cpuPerOp, b.cpu)
	}
	return t
}

// verify replays the window's batches on the oracle, counts components at
// every oracleEvery-th epoch and the last, and checks every connectivity
// answer of a checked epoch. Answers of one epoch must also agree with each
// other, whether checked or not.
func (s *serveSession) verify(w *window, firstBatch int, seen []observation) {
	for i := firstBatch; i < s.nextBatch; i++ {
		s.oracle.apply(s.fx.stream.Batches[i])
		if s.oracle.epoch%oracleEvery == 0 || i == s.nextBatch-1 {
			s.compsAt[s.oracle.epoch] = s.oracle.components()
		}
	}
	said := map[uint64]int{}
	for _, o := range seen {
		want, checked := s.compsAt[o.epoch]
		if prev, ok := said[o.epoch]; ok && prev != o.comps {
			w.fail("epoch %d answered %d and %d components", o.epoch, prev, o.comps)
		} else if checked && o.comps != want {
			w.fail("epoch %d: %d components, oracle %d", o.epoch, o.comps, want)
		}
		said[o.epoch] = o.comps
	}
}

// handlerHits times n cache-hit connectivity requests served by calling
// Server.ServeHTTP directly: the handler without a socket.
func (s *serveSession) handlerHits(n int) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		req := httptest.NewRequest(http.MethodGet, "/graphs/"+serveGraph+"/"+famConnectivity, nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		s.srv.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.Code == http.StatusOK {
			out = append(out, d.Seconds())
		}
	}
	return out
}

// promValue sums the samples of one metric family in a registry's
// Prometheus exposition (scrape-time series have no other read path).
func promValue(reg *telemetry.Registry, family string) float64 {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return 0
	}
	var sum float64
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(rest[strings.LastIndexByte(rest, ' ')+1:], &v); err == nil {
			sum += v
		}
	}
	return sum
}
