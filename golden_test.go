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

func TestGoldenConnectivityMetrics(t *testing.T) {
	g := GNM(256, 768, 3)
	res, err := Connectivity(g, Config{K: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 1 {
		t.Fatalf("components = %d, want 1", res.Components)
	}
	checkGolden(t, "connectivity", &res.Metrics, goldenMetrics{
		rounds: 318, messages: 7162, payload: 387298,
		maxLink: 173168, totalBits: 2882200, fingerprint: 2744927441185012788,
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
	checkGolden(t, "edgecheck", &res.Metrics, goldenMetrics{
		rounds: 132, messages: 4319, payload: 40582,
		maxLink: 45968, totalBits: 509152, fingerprint: 3973943383982545545,
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
	// Re-pinned once, declared-algorithmic: elimination takes every slot a
	// sum verified (core.MWOE) where §3.1 draws one — 37 iterations became
	// 11 and 828 rounds 445, in the same 7 phases; the forest above is the
	// same.
	checkGolden(t, "mst", &res.Metrics, goldenMetrics{
		rounds: 445, messages: 7781, payload: 269727,
		maxLink: 233896, totalBits: 2077568, fingerprint: 940796583189211731,
	})
}

func TestGoldenDynamicMetrics(t *testing.T) {
	stream := RandomChurnStream(128, 384, 6, 12, 0.4, 7)
	sess, err := NewCluster(stream.Initial, WithK(4), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	var trace string
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
	}
	// The session-wide Metrics are what the resident engine's Close
	// returns; Cluster.Close drops them, so pin them at the engine.
	met, err := sess.e.Close()
	if err != nil {
		t.Fatal(err)
	}
	const wantTrace = "[0:12/1/264][1:12/1/71][2:12/1/50][3:12/1/45][4:12/1/66][5:12/1/24]"
	if trace != wantTrace {
		t.Errorf("dynamic trace drifted:\n got:  %s\n want: %s", trace, wantTrace)
	}
	checkGolden(t, "dynamic", met, goldenMetrics{
		rounds: 534, messages: 5730, payload: 239202,
		maxLink: 175936, totalBits: 1816896, fingerprint: 17654665923677721495,
	})
}

func TestGoldenClusterResidentMetrics(t *testing.T) {
	g := GNM(192, 576, 9)
	c, err := NewCluster(g, WithK(4), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var trace string
	for j := 0; j < 3; j++ {
		q, err := c.Connectivity(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		trace += fmt.Sprintf("[%d:%d/%d]", j, q.Components, q.Rounds)
	}
	mst, err := c.MST(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	trace += fmt.Sprintf("[mst:%d]", len(mst.Edges))
	const wantTrace = "[0:1/338][1:1/24][2:1/23][mst:191]"
	if trace != wantTrace {
		t.Errorf("resident trace drifted:\n got:  %s\n want: %s", trace, wantTrace)
	}
}
