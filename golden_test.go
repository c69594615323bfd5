package kmgraph

// Golden-metrics regression tests for the round engine.
//
// The engine rewrite (allocation-free, link-indexed, parallel transmit) must
// be bit-exact: same seeds => same Metrics, same outputs. These tests pin
// the full cost accounting of representative runs — connectivity, MST, and
// a dynamic churn session — to values captured from the pre-rewrite engine.
// Any drift in Rounds, Messages, PayloadBytes, per-link bit counts, or
// per-machine send/receive counts is a correctness bug in the engine, not a
// tuning knob.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"kmgraph/internal/kmachine"
)

// metricsFingerprint folds every field of a Metrics — including the full
// LinkBits matrix and the per-machine message counts — into one hash, so a
// single comparison covers the engine's entire accounting surface.
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
	add(m.DroppedBytes)
	for _, row := range m.LinkBits {
		for _, b := range row {
			add(b)
		}
	}
	for _, s := range m.SentMsgs {
		add(s)
	}
	for _, r := range m.RecvMsgs {
		add(r)
	}
	return h.Sum64()
}

type goldenMetrics struct {
	rounds      int
	messages    int64
	payload     int64
	maxLink     int64
	totalBits   int64
	fingerprint uint64
}

func checkGolden(t *testing.T, name string, m *kmachine.Metrics, want goldenMetrics) {
	t.Helper()
	got := goldenMetrics{
		rounds:      m.Rounds,
		messages:    m.Messages,
		payload:     m.PayloadBytes,
		maxLink:     m.MaxLinkBits,
		totalBits:   m.TotalBits(),
		fingerprint: metricsFingerprint(m),
	}
	if m.DroppedMessages != 0 || m.DroppedBytes != 0 {
		t.Errorf("%s: dropped %d msgs / %d bytes, want 0", name, m.DroppedMessages, m.DroppedBytes)
	}
	if got != want {
		t.Errorf("%s: metrics drifted from golden values\n got:  %+v\n want: %+v", name, got, want)
	}
}

// checkPath pins the algorithm's path — phases, sketch failures, collapse or
// elimination iterations — apart from its cost: a change to what a message
// costs moves the metrics, never the path.
func checkPath(t *testing.T, name, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s: path drifted:\n got:  %s\n want: %s", name, got, want)
	}
}

func TestGoldenConnectivityMetrics(t *testing.T) {
	g := GNM(256, 768, 3)
	res, err := Connectivity(g, Config{K: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 1 {
		t.Fatalf("components = %d, want 1", res.Components)
	}
	checkPath(t, "connectivity", fmt.Sprintf("phases=%d failures=%d collapse=%d", res.Phases, res.SketchFailures, res.CollapseIters), "phases=8 failures=0 collapse=15")
	// Re-pinned three times, declared-algorithmic: a light part (fewer than
	// Cells() local half-edges) ships its adjacency rows instead of its
	// sketch, and the proxy adds them in by AddVertex to the same cells —
	// 318 rounds became 186 and 387,298 payload bytes 75,418, with the
	// messages and the path above unchanged; then sums ride on count frames
	// (proxy.Comm.ExchangeSum: an AllSum is one exchange, PhaseSync rides
	// on the relabel exchange) — 186 rounds became 139 and 7,162 messages
	// 5,943, on the same path. Then, declared-algorithmic once more, an
	// exchange sends one frame per link with its payloads inside, and
	// Collapse's changed-sum rides on its next query exchange — 139 rounds
	// became 116 and 5,943 messages 1,787, on the same path.
	checkGolden(t, "connectivity", &res.Metrics, goldenMetrics{
		rounds: 116, messages: 1787, payload: 65518,
		maxLink: 34016, totalBits: 539640, fingerprint: 7746819361692233280,
	})
}

func TestGoldenConnectivityEdgeCheckMetrics(t *testing.T) {
	g := GNM(200, 520, 5)
	res, err := Connectivity(g, Config{K: 4, Seed: 17, EdgeCheckSelection: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 1 {
		t.Fatalf("components = %d, want 1", res.Components)
	}
	// Re-pinned twice, declared-algorithmic: sums ride on count frames
	// (proxy.Comm.ExchangeSum), so 132 rounds became 90 and 4,319 messages
	// 3,619; then one frame per link per exchange, and Collapse's sum on
	// its next query exchange, so 90 rounds became 75 and 3,619 messages
	// 1,041; the answer is unchanged.
	checkGolden(t, "edgecheck", &res.Metrics, goldenMetrics{
		rounds: 75, messages: 1041, payload: 34690,
		maxLink: 25104, totalBits: 279752, fingerprint: 4426880746189167181,
	})
}

func TestGoldenMSTMetrics(t *testing.T) {
	g := WithDistinctWeights(GNM(128, 384, 2), 2)
	res, err := MST(g, MSTConfig{Config: Config{K: 4, Seed: 13}})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range res.Edges {
		total += e.W
	}
	if len(res.Edges) != 127 {
		t.Fatalf("MST edges = %d, want 127", len(res.Edges))
	}
	if total != 9531 {
		t.Fatalf("MST weight = %d, want 9531", total)
	}
	checkPath(t, "mst", fmt.Sprintf("phases=%d failures=%d elim=%d", res.Phases, res.SketchFailures, res.ElimIters), "phases=7 failures=0 elim=11")
	// Re-pinned four times, declared-algorithmic: elimination takes every slot a
	// sum verified (core.MWOE) where §3.1 draws one — 37 iterations became
	// 11 and 828 rounds 445, in the same 7 phases; then a light part ships
	// its rows (lighter than the threshold) instead of its sketch — 445
	// rounds became 246 and 269,727 payload bytes 57,829, with the messages
	// and the path unchanged; then sums ride on count frames
	// (proxy.Comm.ExchangeSum: collapse's and elimination's sums are one
	// exchange each, PhaseSync rides on the relabel exchange) — 246 rounds
	// became 189 and 7,781 messages 6,796, on the same path; then an
	// exchange sends one frame per link, and Collapse's sum rides on its
	// next query exchange — 189 rounds became 151 and 6,796 messages 1,737,
	// on the same path. The forest above is the same throughout.
	checkGolden(t, "mst", &res.Metrics, goldenMetrics{
		rounds: 151, messages: 1737, payload: 46280,
		maxLink: 47728, totalBits: 386944, fingerprint: 6186411045927247367,
	})
}

func TestGoldenDynamicMetrics(t *testing.T) {
	stream := RandomChurnStream(128, 384, 6, 12, 0.4, 7)
	sess, err := NewCluster(stream.Initial, WithK(4), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	var trace, path string
	for i, batch := range stream.Batches {
		br, err := sess.ApplyBatch(t.Context(), batch)
		if err != nil {
			t.Fatal(err)
		}
		q, err := sess.Connectivity(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		trace += fmt.Sprintf("[%d:%d/%d/%d]", i, br.Applied, q.Components, q.Rounds)
		path += fmt.Sprintf("[%d:%d/%d/%d]", i, q.Phases, q.SketchFailures, q.CollapseIters)
	}
	checkPath(t, "dynamic", path, "[0:7/0/11][1:3/0/4][2:2/0/3][3:2/0/2][4:3/0/3][5:1/0/1]")
	// The session-wide Metrics are what the resident engine's Close
	// returns; Cluster.Close drops them, so pin them at the engine.
	met, err := sess.e.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Re-pinned four times, declared-algorithmic: light parts ship their rows, so
	// the cold first query fell from 264 to 136 rounds and the session from
	// 534 to 406 (payload 239,202 to 70,483 bytes); the incremental queries,
	// the messages and the path are unchanged. Then sums ride on count
	// frames (proxy.Comm.ExchangeSum), so the queries fell from
	// 136/71/50/45/66/24 to 97/55/39/35/51/19 rounds and the session from
	// 406 to 310, on the same path. Then one frame per link per exchange,
	// and Collapse's sum on its next query exchange: the first three
	// queries fell from 97/55/39 to 84/54/38 rounds and the session from
	// 310 to 295 (4,158 messages to 2,219), on the same path. Then a warm
	// query's final sync ships one rename per changed class, not one label
	// per changed vertex: payload fell from 58,439 to 57,739 bytes and the
	// total bits from 481,272 to 477,208, with the rounds, the messages,
	// the trace and the path unchanged.
	const wantTrace = "[0:12/1/84][1:12/1/54][2:12/1/38][3:12/1/35][4:12/1/51][5:12/1/19]"
	if trace != wantTrace {
		t.Errorf("dynamic trace drifted:\n got:  %s\n want: %s", trace, wantTrace)
	}
	checkGolden(t, "dynamic", met, goldenMetrics{
		rounds: 295, messages: 2219, payload: 57739,
		maxLink: 77432, totalBits: 477208, fingerprint: 13019412740647941012,
	})
}

func TestGoldenClusterResidentMetrics(t *testing.T) {
	g := GNM(192, 576, 9)
	c, err := NewCluster(g, WithK(4), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var trace, path string
	for j := 0; j < 3; j++ {
		q, err := c.Connectivity(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		trace += fmt.Sprintf("[%d:%d/%d]", j, q.Components, q.Rounds)
		path += fmt.Sprintf("[%d:%d/%d/%d]", j, q.Phases, q.SketchFailures, q.CollapseIters)
	}
	mst, err := c.MST(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	trace += fmt.Sprintf("[mst:%d]", len(mst.Edges))
	path += fmt.Sprintf("[mst:%d/%d/%d]", mst.Phases, mst.SketchFailures, mst.ElimIters)
	checkPath(t, "resident", path, "[0:8/0/14][1:1/0/1][2:1/0/1][mst:9/0/15]")
	// Re-pinned three times, declared-algorithmic: light parts ship their rows, so
	// the cold query fell from 338 to 187 rounds on the same path; then sums
	// ride on count frames (proxy.Comm.ExchangeSum), so the queries fell
	// from 187/24/23 to 140/19/18 rounds, on the same path. Then one frame
	// per link per exchange, and Collapse's sum on its next query exchange:
	// 140/19/18 became 121/18/18, on the same path.
	const wantTrace = "[0:1/121][1:1/18][2:1/18][mst:191]"
	if trace != wantTrace {
		t.Errorf("resident trace drifted:\n got:  %s\n want: %s", trace, wantTrace)
	}
}
