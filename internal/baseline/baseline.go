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
	"sort"

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

func assemble(n int, res *kmachine.Result) (*Result, error) {
	out := &Result{Labels: make([]uint64, n), Metrics: res.Metrics}
	seen := make(map[uint64]bool)
	assigned := 0
	for i, o := range res.Outputs {
		mo, ok := o.(map[int]uint64)
		if !ok {
			return nil, fmt.Errorf("baseline: machine %d produced no output", i)
		}
		for v, l := range mo {
			out.Labels[v] = l
			seen[l] = true
			assigned++
		}
	}
	if assigned != n {
		return nil, fmt.Errorf("baseline: %d of %d vertices labeled", assigned, n)
	}
	out.Components = len(seen)
	return out, nil
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
		labels := make(map[int]uint64, len(view.Owned()))
		changed := make(map[int]bool, len(view.Owned()))
		for _, v := range view.Owned() {
			labels[v] = uint64(v)
			changed[v] = true
		}
		for {
			// Batch (neighbor, label) updates per destination machine.
			batches := make(map[int][]byte)
			vs := make([]int, 0, len(changed))
			for v := range changed {
				vs = append(vs, v)
			}
			sort.Ints(vs)
			for _, v := range vs {
				for _, h := range view.Adj(v) {
					dst := view.Home(h.To)
					b := batches[dst]
					b = wire.AppendUvarint(b, uint64(h.To))
					b = wire.AppendUvarint(b, labels[v])
					batches[dst] = b
				}
			}
			var out []proxy.Out
			for dst := 0; dst < ctx.K(); dst++ {
				if b, ok := batches[dst]; ok {
					out = append(out, proxy.Out{Dst: dst, Data: b})
				}
			}
			recv := comm.Exchange(out)
			changed = make(map[int]bool)
			for _, msg := range recv {
				r := wire.NewReader(msg.Data)
				for r.Len() > 0 {
					v := int(r.Uvarint())
					l := r.Uvarint()
					if r.Err() != nil {
						return fmt.Errorf("baseline: bad flood batch")
					}
					if l < labels[v] {
						labels[v] = l
						changed[v] = true
					}
				}
			}
			if comm.AllSum(uint64(len(changed))) == 0 {
				break
			}
		}
		ctx.SetOutput(labels)
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
		labels := make(map[int]uint64, len(view.Owned()))
		for _, msg := range recv {
			r := wire.NewReader(msg.Data)
			for r.Len() > 0 {
				v := int(r.Uvarint())
				l := r.Uvarint()
				if r.Err() != nil {
					return fmt.Errorf("baseline: bad label batch")
				}
				labels[v] = l
			}
		}
		// Machines with no vertices output an empty map.
		ctx.SetOutput(labels)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return assemble(g.N(), res)
}
