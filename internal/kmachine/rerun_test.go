package kmachine

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
	"time"
)

// chatterHandler is a deterministic traffic generator: every machine sends
// a pseudo-random assortment of messages (sizes from tiny to multi-round)
// to pseudo-random destinations for a fixed number of rounds, checking
// that deliveries arrive sorted by source.
func chatterHandler(rounds int) Handler {
	return func(ctx *Ctx) error {
		k := ctx.K()
		for r := 0; r < rounds; r++ {
			nmsg := ctx.Rand().Intn(2 * k)
			for i := 0; i < nmsg; i++ {
				dst := ctx.Rand().Intn(k)
				size := ctx.Rand().Intn(200)
				if ctx.Rand().Intn(8) == 0 {
					size = 400 + ctx.Rand().Intn(800) // multi-round messages
				}
				data := make([]byte, size)
				for j := range data {
					data[j] = byte(ctx.ID() + r + j)
				}
				ctx.Send(dst, data)
			}
			msgs := ctx.Step()
			last := -1
			for _, m := range msgs {
				if m.Src < last {
					return fmt.Errorf("machine %d round %d: deliveries out of source order", ctx.ID(), r)
				}
				last = m.Src
			}
		}
		// Drain whatever is still in flight so nothing is dropped.
		for i := 0; i < 3*rounds; i++ {
			ctx.Step()
		}
		ctx.SetOutput(ctx.Round())
		return nil
	}
}

func fingerprint(m Metrics) uint64 {
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

// TestRerunRepeatable: a cluster run three times is as deterministic as
// three clusters run once — every run's running-total Metrics repeat
// exactly on a second cluster of the same Config — and what a machine
// keeps really is kept: the same Ctx, a round counter and an RNG stream
// that continue, Result.Metrics that accumulate.
func TestRerunRepeatable(t *testing.T) {
	session := func() (prints []uint64, rounds []int) {
		c, err := New(Config{K: 6, BandwidthBits: 2048, MessageOverheadBits: 32, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var first *Ctx
		for run := 0; run < 3; run++ {
			res, err := c.Run(func(ctx *Ctx) error {
				if ctx.ID() == 0 {
					if first == nil {
						first = ctx
					} else if first != ctx {
						return fmt.Errorf("run %d: machine 0 got a new Ctx", run)
					}
				}
				return chatterHandler(15)(ctx)
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.DroppedMessages != 0 {
				t.Fatalf("run %d dropped %d messages", run, res.Metrics.DroppedMessages)
			}
			// chatter's output is the machine's own round counter at return.
			if got := res.Outputs[0].(int); got != res.Metrics.Rounds {
				t.Fatalf("run %d: machine 0 at round %d, cluster at %d", run, got, res.Metrics.Rounds)
			}
			prints = append(prints, fingerprint(res.Metrics))
			rounds = append(rounds, res.Metrics.Rounds)
		}
		return prints, rounds
	}
	p1, r1 := session()
	p2, _ := session()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("run %d: fingerprint %x != %x on a second cluster", i, p1[i], p2[i])
		}
	}
	// 15 chatter rounds + 45 drain rounds per run, on one running total.
	if r1[0] != 60 || r1[1] != 120 || r1[2] != 180 {
		t.Fatalf("Result.Metrics.Rounds = %v, want the running total 60, 120, 180", r1)
	}
	if p1[0] == p1[1] {
		t.Fatal("second run repeated the first: the RNG stream restarted")
	}
}

// TestReturnFlushesQueuedSends: a machine that Sends and then returns
// without a final Step still gets its messages delivered (the return
// submits the outbox, exactly like a Step would) — a collective whose
// frames all pre-arrived ends that way.
func TestReturnFlushesQueuedSends(t *testing.T) {
	cl, err := New(Config{K: 2, BandwidthBits: 1024, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got string
	res, err := cl.Run(func(ctx *Ctx) error {
		if ctx.ID() == 1 {
			ctx.Send(0, []byte("parting-send"))
			return nil
		}
		// Machine 1 has returned; rounds must advance without it.
		for i := 0; i < 100 && got == ""; i++ {
			for _, m := range ctx.Step() {
				got = string(m.Data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != "parting-send" {
		t.Fatalf("message queued before return: got %q", got)
	}
	if res.Metrics.DroppedMessages != 0 {
		t.Fatalf("dropped %d messages", res.Metrics.DroppedMessages)
	}
}

// TestLinkQueuesOutliveRun: bits still in flight when a run's last machine
// returns are reported in that run's Result as dropped, but the link
// queues are kept — the next run's first Steps receive them, in order, and
// the running total never charges them.
func TestLinkQueuesOutliveRun(t *testing.T) {
	cl, err := New(Config{K: 2, BandwidthBits: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(func(ctx *Ctx) error {
		if ctx.ID() == 0 {
			for _, p := range []string{"a", "b", "c"} {
				ctx.Send(1, []byte(p)) // 8 bits each: one per round
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.DroppedMessages != 3 || res.Metrics.Rounds != 0 {
		t.Fatalf("first run: %d dropped, %d rounds; want 3 still queued, 0", res.Metrics.DroppedMessages, res.Metrics.Rounds)
	}
	var received []string
	res, err = cl.Run(func(ctx *Ctx) error {
		for ctx.ID() == 1 && len(received) < 3 {
			for _, m := range ctx.Step() {
				received = append(received, string(m.Data))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(received) != "[a b c]" {
		t.Fatalf("received %v", received)
	}
	if res.Metrics.DroppedMessages != 0 || res.Metrics.Messages != 3 || res.Metrics.Rounds != 3 {
		t.Fatalf("second run: %+v", res.Metrics)
	}
}

// TestIdleClusterBurnsNoRounds: between runs no rounds pass and no
// goroutine is held, however long the cluster sits.
func TestIdleClusterBurnsNoRounds(t *testing.T) {
	base := runtime.NumGoroutine()
	cl, err := New(Config{K: 2, BandwidthBits: 1024, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	step := func(ctx *Ctx) error { ctx.Step(); return nil }
	if _, err := cl.Run(step); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
	time.Sleep(20 * time.Millisecond)
	res, err := cl.Run(step)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Rounds != 2 {
		t.Fatalf("rounds = %d; the idle window should not burn rounds", res.Metrics.Rounds)
	}
	waitGoroutines(t, base)
}
