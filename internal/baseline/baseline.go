// Package baseline implements the comparison algorithms the paper discusses
// when motivating the Õ(n/k²) bound (§1.2 and the §2 warm-up):
//
//   - Flooding: every vertex repeatedly floods the lowest label it has seen
//     to its neighbors. The paper notes this takes Θ(n/k + D) rounds in the
//     k-machine model (via the Conversion Theorem), where D is the graph
//     diameter — the per-vertex-home congestion is the n/k term.
//   - Referee: collect the entire graph at one machine and solve locally.
//     The referee's k-1 links bound the rate, giving Ω(m/k) rounds.
//
// A third baseline — GHS-style Boruvka that checks edge status explicitly
// instead of sketching — is core.Config.EdgeCheckSelection, since it shares
// the merge machinery with the main algorithm.
package baseline

import (
	"fmt"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/proxy"
	"kmgraph/internal/wire"
)

// Result is a baseline connectivity outcome.
type Result struct {
	Labels     []uint64
	Components int
	Metrics    kmachine.Metrics
}

// load loads g's shards under the random vertex partition and brings up
// cfg's cluster for them. A baseline reads K, Seed and the link budget of
// cfg; it has no phases, sketches or ablations.
func load(g *graph.Graph, cfg core.Config) (*kmachine.Cluster, *kmachine.ShardPartition, error) {
	part, err := kmachine.LoadShards(g.Source(), cfg.K, kmachine.RVPSeed(cfg.Seed))
	if err != nil {
		return nil, nil, err
	}
	cluster, err := kmachine.New(cfg.WithDefaults(g.N()).MachineConfig())
	return cluster, part, err
}

// assemble combines the machines' outputs — each a core.MachineOutput of
// its final labels — through core.Assemble, the one connectivity assembler.
func assemble(n int, res *kmachine.Result) (*Result, error) {
	cr, err := core.Assemble(n, res.Outputs)
	if err != nil {
		return nil, err
	}
	return &Result{Labels: cr.Labels, Components: cr.Components, Metrics: res.Metrics}, nil
}

// Flooding computes connected components by min-label flooding: each
// super-round, every vertex whose label improved sends the new label to
// all neighbors (batched per destination machine). Terminates when no
// label changes anywhere.
func Flooding(g *graph.Graph, cfg core.Config) (*Result, error) {
	cluster, part, err := load(g, cfg)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	res, err := cluster.Run(func(ctx *kmachine.Ctx) error {
		view := part.Shard(ctx.ID())
		comm := proxy.NewComm(ctx)
		owned := view.Owned()
		labels := make([]uint64, len(owned)) // parallel to owned
		changed := make([]bool, len(owned))
		for i, v := range owned {
			labels[i] = uint64(v)
			changed[i] = true
		}
		for {
			// Batch (neighbor, label) updates per destination machine,
			// changed vertices in ascending order.
			batches := make([][]byte, ctx.K())
			for i := range owned {
				if !changed[i] {
					continue
				}
				for _, h := range view.Row(i) {
					dst := view.Home(h.To)
					batches[dst] = wire.AppendUvarint(wire.AppendUvarint(batches[dst], uint64(h.To)), labels[i])
				}
			}
			var out []proxy.Out
			for dst, b := range batches {
				if len(b) > 0 {
					out = append(out, proxy.Out{Dst: dst, Data: b})
				}
			}
			recv := comm.Exchange(out)
			clear(changed)
			nchanged := uint64(0)
			for _, msg := range recv {
				r := wire.NewReader(msg.Data)
				for r.Len() > 0 {
					v := int(r.Uvarint())
					l := r.Uvarint()
					if r.Err() != nil {
						return fmt.Errorf("baseline: bad flood batch")
					}
					if i := view.Ordinal(v); l < labels[i] {
						labels[i] = l
						if !changed[i] {
							changed[i] = true
							nchanged++
						}
					}
				}
			}
			if comm.AllSum(nchanged) == 0 {
				break
			}
		}
		ctx.SetOutput(&core.MachineOutput{Owned: owned, Labels: labels, Converged: true, ProtocolCount: -1})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return assemble(g.N(), res)
}

// Referee collects every edge at machine 0 (each edge sent once, by the
// home of its smaller endpoint), solves connectivity locally with
// union-find, and scatters each machine its own vertices' labels.
func Referee(g *graph.Graph, cfg core.Config) (*Result, error) {
	cluster, part, err := load(g, cfg)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	res, err := cluster.Run(func(ctx *kmachine.Ctx) error {
		view := part.Shard(ctx.ID())
		comm := proxy.NewComm(ctx)

		// Ship local edges to the referee.
		var buf []byte
		for _, v := range view.Owned() {
			for _, h := range view.Adj(v) {
				if v < h.To {
					buf = wire.AppendUvarint(buf, uint64(v))
					buf = wire.AppendUvarint(buf, uint64(h.To))
				}
			}
		}
		blobs := comm.GatherTo(0, buf)

		// Referee solves and scatters per-machine label assignments.
		var out []proxy.Out
		if ctx.ID() == 0 {
			uf := graph.NewUnionFind(view.N())
			for _, b := range blobs {
				r := wire.NewReader(b)
				for r.Len() > 0 {
					u := int(r.Uvarint())
					v := int(r.Uvarint())
					if r.Err() != nil {
						return fmt.Errorf("baseline: bad referee batch")
					}
					uf.Union(u, v)
				}
			}
			// Canonical label: min vertex of each set.
			minOf := make(map[int]int)
			for v := 0; v < view.N(); v++ {
				r := uf.Find(v)
				if mv, ok := minOf[r]; !ok || v < mv {
					minOf[r] = v
				}
			}
			perDst := make([][]byte, ctx.K())
			for v := 0; v < view.N(); v++ {
				dst := view.Home(v)
				perDst[dst] = wire.AppendUvarint(perDst[dst], uint64(v))
				perDst[dst] = wire.AppendUvarint(perDst[dst], uint64(minOf[uf.Find(v)]))
			}
			for dst := 0; dst < ctx.K(); dst++ {
				if len(perDst[dst]) > 0 {
					out = append(out, proxy.Out{Dst: dst, Data: perDst[dst]})
				}
			}
		}
		recv := comm.Exchange(out)
		labels := make([]uint64, len(view.Owned())) // parallel to the owned vertices
		for _, msg := range recv {
			r := wire.NewReader(msg.Data)
			for r.Len() > 0 {
				v := int(r.Uvarint())
				l := r.Uvarint()
				if r.Err() != nil {
					return fmt.Errorf("baseline: bad label batch")
				}
				labels[view.Ordinal(v)] = l
			}
		}
		ctx.SetOutput(&core.MachineOutput{Owned: view.Owned(), Labels: labels, Converged: true, ProtocolCount: -1})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return assemble(g.N(), res)
}
