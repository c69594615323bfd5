package proxy

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"kmgraph/internal/kmachine"
	"kmgraph/internal/wire"
)

func newCluster(t *testing.T, k, bw int) *kmachine.Cluster {
	t.Helper()
	c, err := kmachine.New(kmachine.Config{K: k, BandwidthBits: bw, MessageOverheadBits: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestExchangeAllToAll(t *testing.T) {
	k := 5
	c := newCluster(t, k, 4096)
	res, err := c.Run(func(ctx *kmachine.Ctx) error {
		comm := NewComm(ctx)
		var out []Out
		for d := 0; d < k; d++ {
			out = append(out, Out{Dst: d, Data: []byte{byte(ctx.ID()), byte(d)}})
		}
		recv := comm.Exchange(out)
		if len(recv) != k {
			return fmt.Errorf("machine %d: got %d messages", ctx.ID(), len(recv))
		}
		for i, m := range recv {
			if m.Src != i {
				return fmt.Errorf("machine %d: recv[%d].Src = %d", ctx.ID(), i, m.Src)
			}
			if m.Data[0] != byte(i) || m.Data[1] != byte(ctx.ID()) {
				return fmt.Errorf("machine %d: bad payload %v", ctx.ID(), m.Data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.DroppedMessages != 0 {
		t.Errorf("dropped = %d", res.Metrics.DroppedMessages)
	}
}

func TestExchangeUnevenAndEmpty(t *testing.T) {
	k := 4
	c := newCluster(t, k, 2048)
	_, err := c.Run(func(ctx *kmachine.Ctx) error {
		comm := NewComm(ctx)
		// Machine 0 sends 3 messages to machine 2; others send nothing.
		var out []Out
		if ctx.ID() == 0 {
			for i := 0; i < 3; i++ {
				out = append(out, Out{Dst: 2, Data: []byte{byte(i)}})
			}
		}
		recv := comm.Exchange(out)
		want := 0
		if ctx.ID() == 2 {
			want = 3
		}
		if len(recv) != want {
			return fmt.Errorf("machine %d: got %d, want %d", ctx.ID(), len(recv), want)
		}
		// FIFO order from same source.
		if ctx.ID() == 2 {
			for i, m := range recv {
				if int(m.Data[0]) != i {
					return fmt.Errorf("out of order: %v", recv)
				}
			}
		}
		// A second, completely empty exchange must also terminate.
		if got := comm.Exchange(nil); len(got) != 0 {
			return fmt.Errorf("empty exchange returned %d", len(got))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangePipelining(t *testing.T) {
	// Back-to-back exchanges with large payloads: frames of exchange i+1
	// queue behind exchange i and must be buffered by seq, not lost.
	k := 3
	c := newCluster(t, k, 256) // tight bandwidth forces overlap
	_, err := c.Run(func(ctx *kmachine.Ctx) error {
		comm := NewComm(ctx)
		for round := 0; round < 4; round++ {
			var out []Out
			payload := bytes.Repeat([]byte{byte(round)}, 200)
			out = append(out, Out{Dst: (ctx.ID() + 1) % k, Data: payload})
			recv := comm.Exchange(out)
			if len(recv) != 1 {
				return fmt.Errorf("round %d: %d messages", round, len(recv))
			}
			if recv[0].Data[0] != byte(round) || len(recv[0].Data) != 200 {
				return fmt.Errorf("round %d: bad payload", round)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeSelfDelivery(t *testing.T) {
	c := newCluster(t, 3, 1024)
	_, err := c.Run(func(ctx *kmachine.Ctx) error {
		comm := NewComm(ctx)
		recv := comm.Exchange([]Out{{Dst: ctx.ID(), Data: []byte("me")}})
		if len(recv) != 1 || string(recv[0].Data) != "me" {
			return fmt.Errorf("self delivery broken: %v", recv)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherBroadcast(t *testing.T) {
	k := 6
	c := newCluster(t, k, 2048)
	_, err := c.Run(func(ctx *kmachine.Ctx) error {
		comm := NewComm(ctx)
		blobs := comm.GatherTo(2, []byte{byte(ctx.ID() * 3)})
		if ctx.ID() == 2 {
			for i := 0; i < k; i++ {
				if blobs[i] == nil || blobs[i][0] != byte(i*3) {
					return fmt.Errorf("gather blob %d = %v", i, blobs[i])
				}
			}
		} else if blobs != nil {
			return fmt.Errorf("non-root got blobs")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRelayBroadcastCorrectAndFaster(t *testing.T) {
	k := 8
	payload := make([]byte, 8000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	runWith := func(relay bool) int {
		c := newCluster(t, k, 512)
		res, err := c.Run(func(ctx *kmachine.Ctx) error {
			comm := NewComm(ctx)
			var data []byte
			if ctx.ID() == 0 {
				data = payload
			}
			var got []byte
			if relay {
				got = comm.RelayBroadcast(0, data)
			} else {
				// Direct: root's links each carry the whole payload.
				var out []Out
				if ctx.ID() == 0 {
					for d := 1; d < k; d++ {
						out = append(out, Out{Dst: d, Data: data})
					}
				}
				got = data
				if recv := comm.Exchange(out); ctx.ID() != 0 && len(recv) == 1 {
					got = recv[0].Data
				}
			}
			if !bytes.Equal(got, payload) {
				return fmt.Errorf("machine %d: payload mismatch (len %d)", ctx.ID(), len(got))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.Rounds
	}
	direct := runWith(false)
	relayed := runWith(true)
	if relayed >= direct {
		t.Errorf("relay (%d rounds) not faster than direct (%d rounds)", relayed, direct)
	}
	// Relay should approach a (k-1)/2 speedup for large payloads.
	if float64(direct)/float64(relayed) < 2 {
		t.Errorf("relay speedup only %.1fx (direct=%d relay=%d)", float64(direct)/float64(relayed), direct, relayed)
	}
}

func TestRelayBroadcastSmallAndK1(t *testing.T) {
	// Tiny payloads and k=2 edge cases.
	for _, k := range []int{2, 3} {
		c := newCluster(t, k, 1024)
		_, err := c.Run(func(ctx *kmachine.Ctx) error {
			comm := NewComm(ctx)
			var data []byte
			if ctx.ID() == 0 {
				data = []byte{42}
			}
			got := comm.RelayBroadcast(0, data)
			if len(got) != 1 || got[0] != 42 {
				return fmt.Errorf("k=%d machine %d: %v", k, ctx.ID(), got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllReduce(t *testing.T) {
	k := 7
	c := newCluster(t, k, 2048)
	res, err := c.Run(func(ctx *kmachine.Ctx) error {
		comm := NewComm(ctx)
		if sum := comm.AllSum(uint64(ctx.ID())); sum != 21 {
			return fmt.Errorf("sum = %d", sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// One exchange of count frames alone: one round, one frame per link.
	if res.Metrics.Rounds != 1 || res.Metrics.Messages != int64(k*(k-1)) {
		t.Errorf("AllSum cost %d rounds, %d messages; want 1, %d", res.Metrics.Rounds, res.Metrics.Messages, k*(k-1))
	}
}

// TestExchangeSum sums a 2-word vector on the count frames of an exchange
// that also carries payload messages: both arrive intact.
func TestExchangeSum(t *testing.T) {
	for _, k := range []int{1, 2, 7} {
		c := newCluster(t, k, 2048)
		_, err := c.Run(func(ctx *kmachine.Ctx) error {
			comm := NewComm(ctx)
			id := ctx.ID()
			out := []Out{{Dst: (id + 1) % k, Data: []byte{byte(id), 1}}, {Dst: (id + 1) % k, Data: []byte{byte(id), 2}}}
			sum := []uint64{uint64(id + 1), 1 << (40 + id)}
			recv := comm.ExchangeSum(out, sum)
			var want1 uint64
			for i := 0; i < k; i++ {
				want1 += 1 << (40 + i)
			}
			if sum[0] != uint64(k*(k+1)/2) || sum[1] != want1 {
				return fmt.Errorf("k=%d machine %d: sum = %v, want [%d %d]", k, id, sum, k*(k+1)/2, want1)
			}
			from := (id + k - 1) % k
			if len(recv) != 2 || recv[0].Src != from || !bytes.Equal(recv[0].Data, []byte{byte(from), 1}) || !bytes.Equal(recv[1].Data, []byte{byte(from), 2}) {
				return fmt.Errorf("k=%d machine %d: payloads %v", k, id, recv)
			}
			// A plain exchange after a summed one still carries no words.
			if got := comm.Exchange(nil); len(got) != 0 {
				return fmt.Errorf("k=%d machine %d: empty exchange returned %d", k, id, len(got))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

// TestExchangeSumRefusesWordCount sends machine 1 a hand-made count frame
// whose reduce vector has the wrong number of words.
func TestExchangeSumRefusesWordCount(t *testing.T) {
	for _, words := range []int{0, 1, 3} {
		c := newCluster(t, 2, 2048)
		_, err := c.Run(func(ctx *kmachine.Ctx) error {
			if ctx.ID() == 0 {
				buf := append(wire.AppendUvarint(nil, 0), kindCount)
				buf = wire.AppendUvarint(buf, 0)
				for i := 0; i < words; i++ {
					buf = wire.AppendUvarint(buf, 5)
				}
				ctx.Send(1, buf)
				return nil
			}
			NewComm(ctx).ExchangeSum(nil, []uint64{1, 2})
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "bad count frame from 0") {
			t.Errorf("%d words for 2: err = %v, want a bad count frame", words, err)
		}
	}
}

func TestSharedSetupAgreement(t *testing.T) {
	k := 5
	c := newCluster(t, k, 2048)
	res, err := c.Run(func(ctx *kmachine.Ctx) error {
		comm := NewComm(ctx)
		sh := Setup(comm)
		ctx.SetOutput(sh.Seed())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Outputs[0].(uint64)
	for i, o := range res.Outputs {
		if o.(uint64) != first {
			t.Errorf("machine %d seed %d != %d", i, o, first)
		}
	}
}

func TestSetupBitsAgreementAndCost(t *testing.T) {
	k := 8
	nBytes := 4096
	c := newCluster(t, k, 1024)
	res, err := c.Run(func(ctx *kmachine.Ctx) error {
		comm := NewComm(ctx)
		bits := SetupBits(comm, nBytes)
		ctx.SetOutput(bits)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := res.Outputs[0].([]byte)
	if len(ref) != nBytes {
		t.Fatalf("got %d bytes", len(ref))
	}
	for i := 1; i < k; i++ {
		if !bytes.Equal(res.Outputs[i].([]byte), ref) {
			t.Fatalf("machine %d bits differ", i)
		}
	}
	// Cost sanity: relay distribution of b bits should be well under the
	// direct-broadcast cost b*8/B rounds.
	if res.Metrics.Rounds > nBytes*8/1024 {
		t.Errorf("relay distribution too slow: %d rounds", res.Metrics.Rounds)
	}
}

func TestSharedDerivedFunctions(t *testing.T) {
	sh := NewSharedFromSeed(123)
	// ProxyOf covers all machines reasonably uniformly.
	k := 10
	counts := make([]int, k)
	for label := uint64(0); label < 5000; label++ {
		p := sh.ProxyOf(3, 1, label, k)
		if p < 0 || p >= k {
			t.Fatalf("proxy out of range: %d", p)
		}
		counts[p]++
	}
	for i, ct := range counts {
		if ct < 250 || ct > 1000 {
			t.Errorf("proxy %d count %d far from uniform", i, ct)
		}
	}
	// Different phases give different assignments.
	diff := 0
	for label := uint64(0); label < 100; label++ {
		if sh.ProxyOf(1, 0, label, k) != sh.ProxyOf(2, 0, label, k) {
			diff++
		}
	}
	if diff < 50 {
		t.Error("phase should reshuffle proxies")
	}
	// Ranks distinct for distinct labels (w.h.p.).
	seen := map[uint64]bool{}
	for label := uint64(0); label < 1000; label++ {
		r := sh.Rank(1, label)
		if seen[r] {
			t.Fatal("rank collision")
		}
		seen[r] = true
	}
	// Sketch seeds differ by phase and iteration.
	if sh.SketchSeed(1, 0) == sh.SketchSeed(2, 0) || sh.SketchSeed(1, 0) == sh.SketchSeed(1, 1) {
		t.Error("sketch seeds should vary")
	}
}

func TestRelayBroadcastNonZeroRoot(t *testing.T) {
	k := 5
	payload := bytes.Repeat([]byte{0xAB}, 3000)
	c := newCluster(t, k, 512)
	_, err := c.Run(func(ctx *kmachine.Ctx) error {
		comm := NewComm(ctx)
		var data []byte
		if ctx.ID() == 3 {
			data = payload
		}
		got := comm.RelayBroadcast(3, data)
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("machine %d: mismatch (len %d)", ctx.ID(), len(got))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesSingleMachine(t *testing.T) {
	c, err := kmachine.New(kmachine.Config{K: 1, BandwidthBits: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(func(ctx *kmachine.Ctx) error {
		comm := NewComm(ctx)
		if got := comm.AllSum(7); got != 7 {
			return fmt.Errorf("AllSum = %d", got)
		}
		if got := comm.RelayBroadcast(0, []byte{9}); len(got) != 1 || got[0] != 9 {
			return fmt.Errorf("relay = %v", got)
		}
		recv := comm.Exchange([]Out{{Dst: 0, Data: []byte{1}}})
		if len(recv) != 1 {
			return fmt.Errorf("self exchange = %d", len(recv))
		}
		sh := Setup(comm)
		if sh == nil {
			return fmt.Errorf("nil shared")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEmptyRelayBroadcast(t *testing.T) {
	c := newCluster(t, 4, 1024)
	_, err := c.Run(func(ctx *kmachine.Ctx) error {
		comm := NewComm(ctx)
		got := comm.RelayBroadcast(0, nil)
		if len(got) != 0 {
			return fmt.Errorf("want empty, got %d bytes", len(got))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeDeterministicRounds(t *testing.T) {
	run := func() int {
		c := newCluster(t, 4, 512)
		res, err := c.Run(func(ctx *kmachine.Ctx) error {
			comm := NewComm(ctx)
			for i := 0; i < 3; i++ {
				var out []Out
				for d := 0; d < 4; d++ {
					out = append(out, Out{Dst: d, Data: wire.AppendU64(nil, uint64(ctx.ID()*100+i))})
				}
				comm.Exchange(out)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.Rounds
	}
	if a, b := run(), run(); a != b {
		t.Errorf("rounds differ: %d vs %d", a, b)
	}
}

// TestExchangeOrderAcrossRounds pins what Exchange returns when one
// collective spans several rounds: arrivals interleave sources round by
// round (and, for frames a faster machine sent early, come out of the
// pending buffer first), and the result is their stable sort by source —
// (source, send order). The slice a call returned may be overwritten by
// later calls; the Data bytes it pointed at may not.
func TestExchangeOrderAcrossRounds(t *testing.T) {
	const k, hub = 4, 1
	// sends[c][src] messages go from src to the hub in collective c (the
	// hub's own are self-sends). Machine 3 has nothing to wait for in
	// collective 0, so its collective-1 frames reach the hub early.
	sends := [][k]int{{6, 2, 2, 0}, {2, 1, 3, 4}, {1, 1, 0, 1}}
	payload := func(c, src, idx int) []byte {
		return append([]byte{byte(c), byte(src), byte(idx)}, bytes.Repeat([]byte{0xa5}, 37)...)
	}
	c := newCluster(t, k, 512) // one 40-byte message per link per round
	_, err := c.Run(func(ctx *kmachine.Ctx) error {
		comm := NewComm(ctx)
		var kept [][]byte // every Data slice the hub was ever handed
		sawPending, sawUnsorted := false, false
		for col := range sends {
			var out []Out
			for i := 0; i < sends[col][ctx.ID()]; i++ {
				out = append(out, Out{Dst: hub, Data: payload(col, ctx.ID(), i)})
			}
			start := ctx.Round()
			recv := comm.Exchange(out)
			if ctx.ID() != hub {
				if len(recv) != 0 {
					return fmt.Errorf("machine %d received %d messages", ctx.ID(), len(recv))
				}
				continue
			}
			if col == 0 && ctx.Round()-start < 3 {
				return fmt.Errorf("collective 0 took %d rounds, want >= 3", ctx.Round()-start)
			}
			sawPending = sawPending || len(comm.pending[comm.seq]) > 0
			arrival := slices.Clone(comm.recvBuf)
			sawUnsorted = sawUnsorted || !slices.IsSortedFunc(arrival, bySrc)
			slices.SortStableFunc(arrival, bySrc)
			if len(recv) != len(arrival) {
				return fmt.Errorf("collective %d: %d messages returned, %d arrived", col, len(recv), len(arrival))
			}
			i := 0
			for src := 0; src < k; src++ {
				for idx := 0; idx < sends[col][src]; idx++ {
					if i >= len(recv) || recv[i].Src != src || !bytes.Equal(recv[i].Data, payload(col, src, idx)) {
						return fmt.Errorf("collective %d: message %d is not (source %d, send %d)", col, i, src, idx)
					}
					if &recv[i].Data[0] != &arrival[i].Data[0] {
						return fmt.Errorf("collective %d: message %d is not the stable sort of arrival order", col, i)
					}
					kept = append(kept, recv[i].Data)
					i++
				}
			}
			if i != len(recv) {
				return fmt.Errorf("collective %d: %d messages, want %d", col, len(recv), i)
			}
		}
		if ctx.ID() == hub {
			if !sawPending || !sawUnsorted {
				return fmt.Errorf("schedule too tame: pending path %v, out-of-order arrival %v", sawPending, sawUnsorted)
			}
			i := 0
			for col := range sends {
				for src := 0; src < k; src++ {
					for idx := 0; idx < sends[col][src]; idx++ {
						if !bytes.Equal(kept[i], payload(col, src, idx)) {
							return fmt.Errorf("Data of collective %d (source %d, send %d) was overwritten by a later call", col, src, idx)
						}
						i++
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func bySrc(a, b kmachine.Message) int { return a.Src - b.Src }
