package kmgraph

import (
	"context"
	"testing"

	"kmgraph/internal/core"
	"kmgraph/internal/kmachine"
)

// poolPeaks runs the one-shot hosts' program — Setup, job, ReleasePools —
// on every machine of a fresh cluster over g and returns each machine's
// sketch-pool high-water: the most dense sketches it held at once.
func poolPeaks(t *testing.T, g *Graph, cfg core.Config, job func(m *core.Merger)) []int {
	t.Helper()
	cfg = cfg.WithDefaults(g.N())
	part, err := kmachine.LoadShards(g.Source(), cfg.K, kmachine.RVPSeed(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := kmachine.New(cfg.MachineConfig())
	if err != nil {
		t.Fatal(err)
	}
	peaks := make([]int, cfg.K)
	_, err = cluster.Run(func(mctx *kmachine.Ctx) error {
		m := core.NewMerger(mctx, part.Shard(mctx.ID()), cfg)
		defer m.ReleasePools()
		if err := m.Setup(); err != nil {
			return err
		}
		job(m)
		peaks[mctx.ID()] = m.Pool().Peak()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return peaks
}

// TestDenseSketchBudget keeps the proxy side of a selection step at O(1)
// dense sketches per machine on every host: one part scratch and one sum
// scratch, whatever the number of components a machine is proxy for. One
// pooled sum per component (n/k + 1 = 251 per machine on this input) is
// what made the million-vertex cold query need 86 GB.
func TestDenseSketchBudget(t *testing.T) {
	const k, perMachine = 8, 2
	g := GNM(2000, 6000, 5)
	check := func(t *testing.T, peaks []int) {
		t.Helper()
		for id, p := range peaks {
			if p < 1 || p > perMachine {
				t.Errorf("machine %d held %d dense sketches at once, want 1..%d", id, p, perMachine)
			}
		}
	}

	t.Run("connectivity", func(t *testing.T) {
		check(t, poolPeaks(t, g, core.Config{K: k, Seed: 21}, func(m *core.Merger) {
			if out, _ := m.ConnectivityJob(0, nil); !out.Converged {
				t.Error("connectivity job did not converge")
			}
		}))
	})

	t.Run("mst", func(t *testing.T) {
		wg := WithDistinctWeights(g, 9)
		check(t, poolPeaks(t, wg, core.Config{K: k, Seed: 21}, func(m *core.Merger) {
			if out, _ := m.MSTJob(0, false, nil); !out.Converged {
				t.Error("MST job did not converge")
			}
		}))
	})

	// A residency also keeps bank sums in its pool, each smaller than the
	// adjacency it summarizes; beyond those, a cold query gets the same two.
	t.Run("resident", func(t *testing.T) {
		c, err := NewCluster(g, WithK(k), WithSeed(21))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Connectivity(context.Background()); err != nil {
			t.Fatal(err)
		}
		b := c.Metrics().Banks
		t.Logf("pool peak %d over %d machines, kept-sum peak %d", b.PoolPeak, k, b.KeptPeak)
		if b.PoolPeak < k || b.PoolPeak > perMachine*k+b.KeptPeak {
			t.Fatalf("machines held %d dense sketches at their peaks, want %d..%d (2 per machine + %d kept sums)",
				b.PoolPeak, k, perMachine*k+b.KeptPeak, b.KeptPeak)
		}
	})
}
