package experiments

import (
	"context"
	"fmt"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/resident"
	"kmgraph/internal/stats"
)

// E13 measures the dynamic subsystem: for batched churn streams, the
// incremental per-batch cost (apply + query rounds) against a fresh
// static Connectivity run on the same snapshot, across machine counts and
// workloads. The quantity of interest is the speedup unlocked by linear
// sketches being *updatable*: the certificate keeps clean components
// merged, so only the dirty region pays merge phases. Every query is
// validated against the sequential oracle.
func E13() Experiment {
	return Experiment{
		ID:       "E13",
		Title:    "Dynamic batched connectivity: incremental vs static rounds",
		PaperRef: "§2.3 linearity under updates (cf. Gilbert–Li dynamic MST motivation)",
		Run:      runDynamic,
	}
}

type dynWorkload struct {
	name   string
	stream func(n, m, batches, batchSize int, seed int64) *graph.Stream
}

func runDynamic(p Params) ([]*stats.Table, error) {
	n, m := 4096, 12288
	batches, batchSize := 5, 123 // ~1% churn
	ks := []int{4, 8, 16}
	if p.Quick {
		n, m = 512, 1536
		batches, batchSize = 3, 15
		ks = []int{4, 8}
	}
	workloads := []dynWorkload{
		{"churn", func(n, m, b, bs int, seed int64) *graph.Stream {
			return graph.RandomChurnStream(n, m, b, bs, 0.5, seed)
		}},
		{"splitmerge", func(n, m, b, bs int, seed int64) *graph.Stream {
			return graph.SplitMergeStream(n, 8, b, seed)
		}},
	}

	tb := stats.NewTable(
		fmt.Sprintf("E13: incremental vs static rounds per batch (n=%d, m0=%d, %d batches)", n, m, batches),
		"workload", "k", "buildup", "apply/batch", "query/batch", "static/batch", "speedup", "phases", "dirty")
	for _, wl := range workloads {
		for _, k := range ks {
			row, err := runDynamicConfig(wl, n, m, batches, batchSize, k, p.Seed)
			if err != nil {
				return nil, err
			}
			tb.AddRow(row...)
		}
	}
	tb.AddNote("speedup = static rounds / (apply+query) rounds, averaged over batches")
	tb.AddNote("every query validated against the sequential oracle")
	return []*stats.Table{tb}, nil
}

func runDynamicConfig(wl dynWorkload, n, m, batches, batchSize, k int, seed int64) ([]string, error) {
	s := wl.stream(n, m, batches, batchSize, seed)
	ctx := context.Background()
	sess, err := resident.New(s.Initial, resident.Config{Config: core.Config{K: k, Seed: seed}})
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	buildup, err := sess.Query(ctx)
	if err != nil {
		return nil, err
	}
	snap := s.Initial
	var apply, query, static, phases, dirty float64
	for i, ops := range s.Batches {
		br, err := sess.ApplyBatch(ctx, ops)
		if err != nil {
			return nil, err
		}
		snap = graph.ApplyOps(snap, ops)
		q, err := sess.Query(ctx)
		if err != nil {
			return nil, err
		}
		if _, count := graph.Components(snap); q.Components != count {
			return nil, fmt.Errorf("E13: %s k=%d batch %d: %d components, oracle %d",
				wl.name, k, i, q.Components, count)
		}
		st, err := core.Run(snap, core.Config{K: k, Seed: seed})
		if err != nil {
			return nil, err
		}
		apply += float64(br.Rounds)
		query += float64(q.Rounds)
		static += float64(st.Metrics.Rounds)
		phases += float64(q.Phases)
		dirty += float64(q.RelabeledVertices)
	}
	b := float64(batches)
	return []string{
		wl.name, stats.I(k), stats.I(buildup.Rounds),
		stats.F(apply / b), stats.F(query / b), stats.F(static / b),
		stats.F(static / (apply + query)), stats.F(phases / b), stats.F(dirty / b),
	}, nil
}
