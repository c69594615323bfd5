package kmachine

import (
	"errors"
	"fmt"
	"testing"

	"kmgraph/internal/graph"
)

func cfg(k, bw int) Config {
	return Config{K: k, BandwidthBits: bw, MessageOverheadBits: 0, Seed: 1}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{K: 0, BandwidthBits: 8}); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := New(Config{K: 2, BandwidthBits: 0}); err == nil {
		t.Error("B=0 should fail")
	}
	if _, err := New(Config{K: 2, BandwidthBits: 8, MessageOverheadBits: -1}); err == nil {
		t.Error("negative overhead should fail")
	}
}

func TestPingPong(t *testing.T) {
	c, _ := New(cfg(2, 1024))
	res, err := c.Run(func(ctx *Ctx) error {
		if ctx.ID() == 0 {
			ctx.Send(1, []byte("ping"))
			msgs := ctx.Step() // round 1: ping in flight
			if len(msgs) != 0 {
				return fmt.Errorf("unexpected early delivery")
			}
			msgs = ctx.Step() // round 2: pong arrives
			if len(msgs) != 1 || string(msgs[0].Data) != "pong" {
				return fmt.Errorf("got %v", msgs)
			}
			return nil
		}
		msgs := ctx.Step() // round 1: receive ping
		if len(msgs) != 1 || string(msgs[0].Data) != "ping" || msgs[0].Src != 0 {
			return fmt.Errorf("got %v", msgs)
		}
		ctx.Send(0, []byte("pong"))
		ctx.Step()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", res.Metrics.Rounds)
	}
	if res.Metrics.Messages != 2 {
		t.Errorf("messages = %d", res.Metrics.Messages)
	}
	if res.Metrics.DroppedMessages != 0 {
		t.Errorf("dropped = %d", res.Metrics.DroppedMessages)
	}
}

func TestBandwidthFragmentation(t *testing.T) {
	// A 100-byte message over an 80-bit (10-byte) link takes 10 rounds.
	c, _ := New(cfg(2, 80))
	res, err := c.Run(func(ctx *Ctx) error {
		if ctx.ID() == 0 {
			ctx.Send(1, make([]byte, 100))
			for i := 0; i < 12; i++ {
				ctx.Step()
			}
			return nil
		}
		got := -1
		for i := 0; i < 12; i++ {
			if msgs := ctx.Step(); len(msgs) > 0 && got == -1 {
				got = ctx.Round()
			}
		}
		if got != 10 {
			return fmt.Errorf("delivered at round %d, want 10", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.LinkBits[0][1] != 800 {
		t.Errorf("link bits = %d, want 800", res.Metrics.LinkBits[0][1])
	}
}

func TestOverheadCharged(t *testing.T) {
	c, _ := New(Config{K: 2, BandwidthBits: 64, MessageOverheadBits: 32, Seed: 1})
	_, err := c.Run(func(ctx *Ctx) error {
		if ctx.ID() == 0 {
			ctx.Send(1, []byte{1, 2, 3, 4}) // 32 payload + 32 overhead = 64 bits
			ctx.Step()
			return nil
		}
		if msgs := ctx.Step(); len(msgs) != 1 {
			return fmt.Errorf("want delivery in 1 round, got %d msgs", len(msgs))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerLinkAndSortedDelivery(t *testing.T) {
	c, _ := New(cfg(3, 4096))
	_, err := c.Run(func(ctx *Ctx) error {
		if ctx.ID() != 2 {
			for i := 0; i < 5; i++ {
				ctx.Send(2, []byte{byte(ctx.ID()), byte(i)})
			}
			ctx.Step()
			return nil
		}
		msgs := ctx.Step()
		if len(msgs) != 10 {
			return fmt.Errorf("got %d msgs", len(msgs))
		}
		// Sorted by src, FIFO within src.
		for i, m := range msgs {
			wantSrc := 0
			if i >= 5 {
				wantSrc = 1
			}
			if m.Src != wantSrc || int(m.Data[1]) != i%5 {
				return fmt.Errorf("msg %d out of order: %v", i, m)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSendFree(t *testing.T) {
	c, _ := New(cfg(2, 8))
	res, err := c.Run(func(ctx *Ctx) error {
		if ctx.ID() == 0 {
			ctx.Send(0, make([]byte, 1000)) // huge, but local
		}
		msgs := ctx.Step()
		if ctx.ID() == 0 && len(msgs) != 1 {
			return fmt.Errorf("self message not delivered next round")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.LinkBits[0][0] != 0 {
		t.Error("self link should not be charged")
	}
	if res.Metrics.Rounds != 1 {
		t.Errorf("rounds = %d", res.Metrics.Rounds)
	}
}

func TestBroadcast(t *testing.T) {
	c, _ := New(cfg(4, 4096))
	_, err := c.Run(func(ctx *Ctx) error {
		if ctx.ID() == 0 {
			ctx.Broadcast([]byte("hi"))
		}
		msgs := ctx.Step()
		if ctx.ID() != 0 && (len(msgs) != 1 || string(msgs[0].Data) != "hi") {
			return fmt.Errorf("machine %d: %v", ctx.ID(), msgs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	c, _ := New(cfg(3, 1024))
	want := errors.New("boom")
	_, err := c.Run(func(ctx *Ctx) error {
		if ctx.ID() == 1 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Errorf("err = %v", err)
	}
}

func TestPanicConverted(t *testing.T) {
	c, _ := New(cfg(2, 1024))
	_, err := c.Run(func(ctx *Ctx) error {
		if ctx.ID() == 0 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error from panic")
	}
}

func TestMaxRoundsAbort(t *testing.T) {
	c, _ := New(Config{K: 2, BandwidthBits: 8, Seed: 1, MaxRounds: 50})
	_, err := c.Run(func(ctx *Ctx) error {
		for { // spin forever
			ctx.Step()
		}
	})
	if !errors.Is(err, ErrMaxRounds) {
		t.Errorf("err = %v, want ErrMaxRounds", err)
	}
}

func TestDroppedAccounting(t *testing.T) {
	c, _ := New(cfg(2, 8)) // 1 byte/round: message still queued at end
	res, err := c.Run(func(ctx *Ctx) error {
		if ctx.ID() == 0 {
			ctx.Send(1, make([]byte, 100))
			ctx.Step()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.DroppedMessages == 0 {
		t.Error("expected dropped message accounting")
	}
}

func TestOutputs(t *testing.T) {
	c, _ := New(cfg(3, 1024))
	res, err := c.Run(func(ctx *Ctx) error {
		ctx.SetOutput(ctx.ID() * 10)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outputs {
		if o.(int) != i*10 {
			t.Errorf("output[%d] = %v", i, o)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (string, int64) {
		c, _ := New(Config{K: 4, BandwidthBits: 128, Seed: 42})
		var trace string
		res, err := c.Run(func(ctx *Ctx) error {
			// Random gossip: each machine sends random bytes to a random
			// peer for 5 rounds.
			for r := 0; r < 5; r++ {
				dst := ctx.Rand().Intn(ctx.K())
				ctx.Send(dst, []byte{byte(ctx.Rand().Intn(256))})
				msgs := ctx.Step()
				if ctx.ID() == 0 {
					for _, m := range msgs {
						trace += fmt.Sprintf("%d:%d;", m.Src, m.Data[0])
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return trace, res.Metrics.TotalBits()
	}
	t1, b1 := run()
	t2, b2 := run()
	if t1 != t2 || b1 != b2 {
		t.Errorf("nondeterministic: %q/%d vs %q/%d", t1, b1, t2, b2)
	}
}

func TestCutBits(t *testing.T) {
	c, _ := New(cfg(4, 4096))
	res, err := c.Run(func(ctx *Ctx) error {
		// 0,1 = side A; 2,3 = side B. Each sends 10 bytes to its "mirror".
		ctx.Send((ctx.ID()+2)%4, make([]byte, 10))
		ctx.Step()
		ctx.Step()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	inA := []bool{true, true, false, false}
	if got := res.Metrics.CutBits(inA); got != 4*80 {
		t.Errorf("cut bits = %d, want 320", got)
	}
	// A cut isolating machine 0 sees only its two flows.
	inA0 := []bool{true, false, false, false}
	if got := res.Metrics.CutBits(inA0); got != 2*80 {
		t.Errorf("cut bits = %d, want 160", got)
	}
}

func TestBandwidthHelper(t *testing.T) {
	if Bandwidth(2) <= 0 {
		t.Error("bandwidth must be positive")
	}
	if Bandwidth(1<<20) <= Bandwidth(16) {
		t.Error("bandwidth should grow with n")
	}
}

func TestRVPBalanceAndLocality(t *testing.T) {
	g := graph.GNM(1000, 3000, 3)
	p, err := LoadShards(g.Source(), 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	total, maxLoad := 0, 0
	for i := 0; i < 8; i++ {
		s := p.Shard(i)
		total += len(s.Owned())
		maxLoad = max(maxLoad, len(s.Owned()))
		for _, v := range s.Owned() {
			if s.Home(v) != i {
				t.Fatalf("vertex %d owned by %d but homed at %d", v, i, s.Home(v))
			}
		}
	}
	if total != 1000 {
		t.Errorf("owned total = %d", total)
	}
	// Balance: max load within 3x of mean for n/k = 125.
	if maxLoad > 3*1000/8 {
		t.Errorf("max load %d too imbalanced", maxLoad)
	}
	// Locality enforcement.
	v := p.Shard(0)
	if len(v.Owned()) > 0 {
		_ = v.Adj(v.Owned()[0]) // fine
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-local access")
		}
	}()
	other := p.Shard(1).Owned()[0]
	_ = v.Adj(other)
}

func TestREPBalance(t *testing.T) {
	g := graph.GNM(500, 4000, 4)
	p := NewREP(g, 10, 7)
	total, maxLoad := 0, 0
	for i := 0; i < 10; i++ {
		total += len(p.OwnedEdges(i))
		maxLoad = max(maxLoad, len(p.OwnedEdges(i)))
	}
	if total != 4000 {
		t.Errorf("edges total = %d", total)
	}
	if maxLoad > 3*4000/10 {
		t.Errorf("max edge load %d too imbalanced", maxLoad)
	}
}

func BenchmarkBarrier(b *testing.B) {
	c, _ := New(Config{K: 8, BandwidthBits: 4096, Seed: 1, MaxRounds: 1 << 30})
	b.ResetTimer()
	_, err := c.Run(func(ctx *Ctx) error {
		for i := 0; i < b.N; i++ {
			ctx.Step()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
