package kmachine

import (
	"testing"
	"testing/quick"

	"kmgraph/internal/graph"
)

// Property-based tests on engine invariants (testing/quick).

// TestQuickMessageConservation: every sent message is either delivered or
// counted as dropped; payload byte totals agree.
func TestQuickMessageConservation(t *testing.T) {
	f := func(plan []uint16, bw uint8) bool {
		k := 4
		bandwidth := int(bw)%2048 + 8
		c, err := New(Config{K: k, BandwidthBits: bandwidth, Seed: 3, MaxRounds: 100000})
		if err != nil {
			return false
		}
		if len(plan) > 80 {
			plan = plan[:80]
		}
		var sentMsgs int64
		var sentBytes int64
		res, err := c.Run(func(ctx *Ctx) error {
			// Each machine sends a deterministic slice of the plan, then
			// steps enough rounds for everything to drain.
			for i, p := range plan {
				if i%k != ctx.ID() {
					continue
				}
				dst := int(p) % k
				size := int(p)%97 + 1
				ctx.Send(dst, make([]byte, size))
			}
			// Worst case: all bytes on one link.
			total := 0
			for _, p := range plan {
				total += int(p)%97 + 1
			}
			rounds := (total*8+64*len(plan))/bandwidth + 2
			for r := 0; r < rounds; r++ {
				ctx.Step()
			}
			return nil
		})
		if err != nil {
			return false
		}
		for _, p := range plan {
			sentMsgs++
			sentBytes += int64(int(p)%97 + 1)
		}
		gotMsgs := res.Metrics.Messages + int64(res.Metrics.DroppedMessages)
		gotBytes := res.Metrics.PayloadBytes + res.Metrics.DroppedBytes
		return gotMsgs == sentMsgs && gotBytes == sentBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickLinkBitsMatchTraffic: total link bits equal payload bits plus
// per-message overhead for messages that crossed real links.
func TestQuickLinkBitsMatchTraffic(t *testing.T) {
	const overhead = 32
	f := func(sizes []uint8) bool {
		k := 3
		c, err := New(Config{K: k, BandwidthBits: 4096, MessageOverheadBits: overhead, Seed: 5})
		if err != nil {
			return false
		}
		if len(sizes) > 40 {
			sizes = sizes[:40]
		}
		res, err := c.Run(func(ctx *Ctx) error {
			if ctx.ID() == 0 {
				for _, s := range sizes {
					ctx.Send(1, make([]byte, int(s)+1))
				}
			}
			for r := 0; r < len(sizes)+4; r++ {
				ctx.Step()
			}
			return nil
		})
		if err != nil {
			return false
		}
		var want int64
		for _, s := range sizes {
			want += int64((int(s)+1)*8 + overhead)
		}
		return res.Metrics.LinkBits[0][1] == want && res.Metrics.TotalBits() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickRVPDeterministicAndTotal: the partition is a function of the
// seed and covers every vertex exactly once.
func TestQuickRVPTotal(t *testing.T) {
	f := func(n16 uint16, k8 uint8, seed uint64) bool {
		n := int(n16)%500 + 1
		k := int(k8)%16 + 1
		g := graph.NewBuilder(n).Build()
		p1, err1 := LoadShards(g.Source(), k, seed)
		p2, err2 := LoadShards(g.Source(), k, seed)
		if err1 != nil || err2 != nil {
			return false
		}
		total := 0
		for i := 0; i < k; i++ {
			total += len(p1.Shard(i).Owned())
			if len(p1.Shard(i).Owned()) != len(p2.Shard(i).Owned()) {
				return false
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
