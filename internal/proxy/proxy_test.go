package proxy

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
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

// appendFrame encodes a frame by hand: seq, count, the words, then the
// entries, whose number need not match count.
func appendFrame(b []byte, seq, count uint64, words []uint64, entries ...[]byte) []byte {
	b = wire.AppendUvarint(wire.AppendUvarint(b, seq), count)
	for _, x := range words {
		b = wire.AppendUvarint(b, x)
	}
	for _, e := range entries {
		b = wire.AppendBytes(b, e)
	}
	return b
}

// TestExchangeSumRefusesWordCount hand-sends machine 1, which sums a
// 2-word vector, frames it must refuse: the wrong number of words, a count
// that runs past the frame's bytes, a second frame from the same peer in
// one exchange, and a frame of an exchange already done.
func TestExchangeSumRefusesWordCount(t *testing.T) {
	two := []uint64{5, 5}
	for _, tc := range []struct {
		name   string
		frames [][][]byte // what machine 0 sends, round by round
		want   string
	}{
		{"0 words", [][][]byte{{appendFrame(nil, 0, 0, nil)}}, "bad frame from 0"},
		{"1 word", [][][]byte{{appendFrame(nil, 0, 0, []uint64{5})}}, "bad frame from 0"},
		{"3 words", [][][]byte{{appendFrame(nil, 0, 0, []uint64{5, 5, 5})}}, "bad frame from 0"},
		{"count past the bytes", [][][]byte{{appendFrame(nil, 0, 3, two, []byte("x"))}}, "bad frame from 0"},
		{"second frame", [][][]byte{{appendFrame(nil, 0, 0, two), appendFrame(nil, 0, 0, two)}}, "second frame from 0"},
		{"stale seq", [][][]byte{{appendFrame(nil, 0, 0, two)}, {appendFrame(nil, 1, 0, two), appendFrame(nil, 0, 0, two)}}, "stale frame seq 0 < 1 from 0"},
	} {
		c := newCluster(t, 2, 2048)
		_, err := c.Run(func(ctx *kmachine.Ctx) error {
			if ctx.ID() == 0 {
				for i, round := range tc.frames {
					if i > 0 {
						ctx.Step()
					}
					for _, f := range round {
						ctx.Send(1, f)
					}
				}
				return nil
			}
			comm := NewComm(ctx)
			for range tc.frames {
				comm.ExchangeSum(nil, []uint64{1, 2})
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestExchangeFrameCount pins what an exchange costs in messages: one
// frame per link however many payloads ride on it, empty links included,
// plus one self frame on each machine that sends itself anything.
func TestExchangeFrameCount(t *testing.T) {
	const k = 5
	for _, per := range []int{0, 1, 7} {
		c := newCluster(t, k, 2048)
		res, err := c.Run(func(ctx *kmachine.Ctx) error {
			id := ctx.ID()
			var out []Out
			for d := 0; d < k; d++ {
				if d == id && id%2 == 1 {
					continue // odd machines send themselves nothing
				}
				for i := 0; i < per*(d+1); i++ {
					out = append(out, Out{Dst: d, Data: []byte{byte(id), byte(i)}})
				}
			}
			recv := NewComm(ctx).Exchange(out)
			want := per * (id + 1) * k
			if id%2 == 1 {
				want -= per * (id + 1)
			}
			if len(recv) != want {
				return fmt.Errorf("machine %d: %d payloads, want %d", id, len(recv), want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		selfFrames := 0
		if per > 0 {
			selfFrames = (k + 1) / 2
		}
		if want := int64(k*(k-1) + selfFrames); res.Metrics.Messages != want {
			t.Errorf("%d payloads per link: %d messages, want %d", per, res.Metrics.Messages, want)
		}
	}
}

// refFrame is an independent reading of a frame with words reduce words:
// what it carries, or false where a refusal rule applies.
func refFrame(frame []byte, words int) (seq uint64, ws []uint64, entries [][]byte, ok bool) {
	ok = true
	next := func() uint64 {
		x, n := binary.Uvarint(frame)
		if n <= 0 || n != len(binary.AppendUvarint(nil, x)) {
			ok = false
			return 0
		}
		frame = frame[n:]
		return x
	}
	seq = next()
	count := next()
	for i := 0; ok && i < words; i++ {
		ws = append(ws, next())
	}
	for ; ok && count > 0; count-- {
		if l := next(); ok && l <= uint64(len(frame)) {
			entries = append(entries, frame[:l])
			frame = frame[l:]
		} else {
			ok = false
		}
	}
	return seq, ws, entries, ok && len(frame) == 0
}

// FuzzExchangeFrame feeds the exchange's reader of peer bytes (readFrame)
// and holds it to three things: it refuses exactly what an independent
// reader refuses (words or entries short or past the end, trailing bytes, a
// uvarint not in its shortest form), its allocation is bounded by the
// frame's length, and an accepted frame re-encodes to the same bytes.
func FuzzExchangeFrame(f *testing.F) {
	f.Add(appendFrame(nil, 3, 2, []uint64{7, 1 << 40}, []byte("ab"), nil), uint8(2))
	f.Add(appendFrame(nil, 0, 1, nil, []byte("self")), uint8(0))
	f.Add(appendFrame(nil, 9, 0, []uint64{0, 0}), uint8(2))
	f.Add(appendFrame(nil, 1, 0, []uint64{5}), uint8(2))                                   // a word short
	f.Add(appendFrame(nil, 1, 0, []uint64{5, 5, 5}), uint8(2))                             // a word over
	f.Add(appendFrame(nil, 1, 3, nil, []byte("x")), uint8(0))                              // count past the end
	f.Add(appendFrame(nil, 1, 1, nil, []byte("xyz"))[:5], uint8(0))                        // entry past the end
	f.Add(append(appendFrame(nil, 1, 1, nil, []byte("x")), 0), uint8(0))                   // trailing byte
	f.Add([]byte{0x80, 0x00, 0x00}, uint8(0))                                              // padded seq
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, uint8(0)) // count overflows
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, frame []byte, nwords uint8) {
		words := int(nwords % 4)
		sum := make([]uint64, words)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		recv, err := readFrame(frame, sum, 1, 2, nil)
		runtime.ReadMemStats(&m1)
		if grew, budget := m1.TotalAlloc-m0.TotalAlloc, uint64(1<<16+128*len(frame)); grew > budget {
			t.Fatalf("reading %d bytes allocated %d, over %d", len(frame), grew, budget)
		}
		seq, ws, entries, ok := refFrame(frame, words)
		if ok != (err == nil) {
			t.Fatalf("err %v, the refusal rules say accept = %v", err, ok)
		}
		if err != nil {
			return
		}
		again := wire.AppendUvarint(wire.AppendUvarint(nil, seq), uint64(len(recv)))
		for i, x := range sum {
			if x != ws[i] {
				t.Fatalf("word %d read as %d, want %d", i, x, ws[i])
			}
			again = wire.AppendUvarint(again, x)
		}
		for i, m := range recv {
			if m.Src != 1 || m.Dst != 2 || i >= len(entries) || !bytes.Equal(m.Data, entries[i]) {
				t.Fatalf("entry %d read as %+v", i, m)
			}
			again = wire.AppendBytes(again, m.Data)
		}
		if len(recv) != len(entries) || !bytes.Equal(again, frame) {
			t.Fatalf("accepted frame re-encodes to %x, not %x", again, frame)
		}
	})
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
// collective spans several rounds: frames arrive out of source order
// (a short frame before a long one, and frames a faster machine sent for
// the next collective, kept early, before the slower machines' frames of
// that collective), and the result is (source, send order) regardless.
// The slice a call returned may be overwritten by later calls; the Data
// bytes it pointed at may not.
func TestExchangeOrderAcrossRounds(t *testing.T) {
	const k, hub = 4, 1
	// sends[c][src] messages go from src to the hub in collective c (the
	// hub's own are self-sends). Machine 3 has nothing to wait for in
	// collective 0, so its collective-1 frame reaches the hub early.
	sends := [][k]int{{6, 2, 2, 0}, {2, 1, 3, 4}, {1, 1, 0, 1}}
	payload := func(c, src, idx int) []byte {
		return append([]byte{byte(c), byte(src), byte(idx)}, bytes.Repeat([]byte{0xa5}, 37)...)
	}
	c := newCluster(t, k, 512) // one 40-byte payload per link per round
	_, err := c.Run(func(ctx *kmachine.Ctx) error {
		comm := NewComm(ctx)
		var kept [][]byte // every Data slice the hub was ever handed
		sawEarly, sawUnsorted := false, false
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
			// A next-collective frame already here from source s, while a
			// lower source's is not, arrived out of source order.
			var here [k]bool
			for _, f := range comm.early {
				here[f.Src] = true
			}
			for s := range here {
				sawEarly = sawEarly || here[s]
				for lower := 0; here[s] && lower < s; lower++ {
					sawUnsorted = sawUnsorted || (lower != hub && !here[lower])
				}
			}
			i := 0
			for src := 0; src < k; src++ {
				for idx := 0; idx < sends[col][src]; idx++ {
					if i >= len(recv) || recv[i].Src != src || !bytes.Equal(recv[i].Data, payload(col, src, idx)) {
						return fmt.Errorf("collective %d: message %d is not (source %d, send %d)", col, i, src, idx)
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
			if !sawEarly || !sawUnsorted {
				return fmt.Errorf("schedule too tame: early frames %v, out-of-order arrival %v", sawEarly, sawUnsorted)
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

// TestExchangeSumAllocationFree pins the steady state: once the arena chunk
// and the receive slice have grown, an exchange with payloads and a sum
// allocates nothing.
func TestExchangeSumAllocationFree(t *testing.T) {
	const k = 3
	c := newCluster(t, k, 2048)
	_, err := c.Run(func(ctx *kmachine.Ctx) error {
		comm := NewComm(ctx)
		var out []Out
		for d := 0; d < k; d++ {
			for i := 0; i < 3; i++ {
				out = append(out, Out{Dst: d, Data: []byte{byte(i), 1, 2, 3}})
			}
		}
		sum := make([]uint64, 2)
		for i := 0; i < 10; i++ {
			comm.ExchangeSum(out, sum)
		}
		if n := testing.AllocsPerRun(100, func() { comm.ExchangeSum(out, sum) }); n != 0 {
			return fmt.Errorf("machine %d: %v allocations per exchange", ctx.ID(), n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
