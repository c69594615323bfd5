// Package core implements the paper's primary contribution (§2, Theorem 1):
// a Monte Carlo connectivity algorithm for the k-machine model running in
// Õ(n/k²) rounds, improving the Õ(n/k) of Klauck et al. and matching the
// Ω̃(n/k²) lower bound — plus the MST algorithm built on it (§3.1,
// Theorem 2).
//
// The algorithm is Boruvka-style. Every vertex starts as its own component,
// labeled by its vertex ID. Each phase:
//
//  1. Every machine builds, per component *part* it holds, the sum of fresh
//     l0-sketches of its vertices' edge-incidence vectors (§2.3) and sends
//     it to the component's random proxy machine h(phase, label) (§2.2);
//     a light part, of fewer than Params.Cells() local half-edges, sends
//     its adjacency rows instead (Light, PartPayload).
//  2. The proxy sums the parts — rows by sketching them in, which gives
//     the same cells — intra-component edges cancel by linearity — and
//     samples one outgoing edge (§2.4).
//  3. The proxy learns the label of the neighboring component by querying
//     the sampled endpoint's home machine.
//  4. Distributed random ranking (§2.5): the component connects to the
//     sampled neighbor iff the neighbor's (shared-hash) rank is higher,
//     yielding a forest of O(log n)-deep trees (Lemma 6).
//  5. Each tree collapses to its root label. The default implementation is
//     pointer doubling over per-iteration re-randomized proxies (O(log
//     depth) iterations); CollapseLevelWise switches to the paper-exact
//     one-step parent chase (O(depth) iterations, Lemma 5) for the E10
//     ablation.
//  6. Root labels are broadcast to all machines holding parts, which
//     relabel their vertices. Phases repeat until no component merges and
//     no sketch sampling failed (Lemma 7: O(log n) phases w.h.p.).
//
// Steps 4–6 are the shared merge/DRR engine (Merger, merge.go), reused by
// the MST algorithm and by the dynamic subsystem's incremental queries.
//
// EdgeCheckSelection replaces step 1–3 with the GHS-style strategy the
// paper argues against (§1.2): every phase, query the current label of
// every neighbor across every edge, and pick an outgoing edge directly.
// Label queries are deduplicated per machine, so a phase moves
// Θ(min(m, nk)) label entries instead of Θ̃(n) sketch cells: Θ(m) only
// while m ≤ nk (ablation in experiment E1).
//
// All communication goes through proxy.Comm exchanges, so the engine's
// per-link bandwidth accounting prices every step exactly as Lemma 1 does.
//
// Every entry point loads its input the same way — kmachine.LoadShards over
// an edge stream — and runs over the resulting kmachine.Shard per machine
// (RunShards); a job that runs out of phases returns its partial result
// with ErrNotConverged.
//
//km:roundpure
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/proxy"
	"kmgraph/internal/sketch"
	"kmgraph/internal/wire"
)

// Config is the one algorithm parameter set: the model's k, seed and link
// budget plus the algorithm's caps and ablation switches. It parameterizes
// every algorithm — connectivity, MST, the baselines — on every host:
// one-shot, resident (resident.Config embeds it) and a fleet, whose workers
// receive it whole in AppendConfig's form.
type Config struct {
	// K is the number of machines.
	K int
	// BandwidthBits is the per-link budget; 0 selects kmachine.Bandwidth(n).
	BandwidthBits int
	// Seed drives the random vertex partition and all private coins.
	Seed int64
	// MaxPhases caps Boruvka phases per job; 0 selects 12·ceil(log2 n) + 4
	// (Lemma 7's bound plus slack).
	MaxPhases int
	// MaxElimIters caps MST elimination iterations per phase; 0 selects
	// 2·ceil(log2 n) + 8, enough for w.h.p. convergence.
	MaxElimIters int
	// Sketch overrides sketch parameters; zero value selects
	// sketch.DefaultParams(n).
	Sketch sketch.Params
	// CollapseLevelWise selects the paper-exact O(depth) tree collapse
	// instead of pointer doubling (ablation E10).
	CollapseLevelWise bool
	// CoinMerge selects the paper's footnote-9 alternative to DRR trees:
	// every component draws a shared-hash coin, and a merge happens only
	// along edges from a 0-component to a 1-component. Trees have depth 1
	// (no chains at all), at the cost of a lower per-phase merge
	// probability (1/4 vs 1/2); the paper notes the same O~(n/k²) bound.
	CoinMerge bool
	// EdgeCheckSelection selects outgoing edges by querying every
	// neighbor's label across every edge (GHS-style baseline) instead of
	// by sketching.
	EdgeCheckSelection bool
	// FaithfulRandomness additionally distributes Θ(n/k) shared random
	// bytes from machine 1 by relay broadcast and drives proxy selection
	// through the d-wise independent polynomial family built from them
	// (§2.2 faithful path; see DESIGN.md substitution #2).
	FaithfulRandomness bool
	// CountComponents additionally runs the paper's §2.6 output protocol:
	// every machine reports each label it holds to that label's proxy,
	// the proxies deduplicate and forward distinct labels to machine 0,
	// which outputs the component count — all within the model. The count
	// lands in Result.ProtocolCount.
	CountComponents bool
	// MaxRounds aborts runaway executions (0 = the engine default; a
	// residency's is 5,000,000 cumulative rounds).
	MaxRounds int
	// MessageOverheadBits models a frame's header (0 = 64); an exchange
	// sends one frame per link.
	MessageOverheadBits int
}

// WithDefaults resolves zero-valued fields for an n-vertex input. Every
// host resolves its Config through it, so they agree on every parameter.
func (c Config) WithDefaults(n int) Config {
	if c.BandwidthBits == 0 {
		c.BandwidthBits = kmachine.Bandwidth(n)
	}
	l := 0
	for s := 1; s < n; s <<= 1 {
		l++
	}
	if c.MaxPhases == 0 {
		c.MaxPhases = 12*l + 4
	}
	if c.MaxElimIters == 0 {
		c.MaxElimIters = 2*l + 8
	}
	if c.Sketch == (sketch.Params{}) {
		c.Sketch = sketch.DefaultParams(n)
	}
	if c.MessageOverheadBits == 0 {
		c.MessageOverheadBits = 64
	}
	return c
}

// AppendConfig encodes every field of c onto b in wire form.
func AppendConfig(b []byte, c Config) []byte {
	sk := c.Sketch
	b = wire.AppendInts(b, c.K, c.BandwidthBits, int(c.Seed), c.MaxPhases, c.MaxElimIters,
		sk.N, sk.Levels, sk.Buckets, sk.Reps, c.MaxRounds, c.MessageOverheadBits)
	for _, f := range []bool{c.CollapseLevelWise, c.CoinMerge, c.EdgeCheckSelection, c.FaithfulRandomness, c.CountComponents} {
		b = wire.AppendBool(b, f)
	}
	return b
}

// ReadConfig decodes a Config encoded by AppendConfig; a decoding error
// is latched in r.
func ReadConfig(r *wire.Reader) Config {
	var c Config
	var seed int
	sk := &c.Sketch
	r.Ints(&c.K, &c.BandwidthBits, &seed, &c.MaxPhases, &c.MaxElimIters,
		&sk.N, &sk.Levels, &sk.Buckets, &sk.Reps, &c.MaxRounds, &c.MessageOverheadBits)
	c.Seed = int64(seed)
	for _, f := range []*bool{&c.CollapseLevelWise, &c.CoinMerge, &c.EdgeCheckSelection, &c.FaithfulRandomness, &c.CountComponents} {
		*f = r.Bool()
	}
	return c
}

// Result is the outcome of a connectivity run.
type Result struct {
	// Labels[v] is the final component label of vertex v; two vertices
	// have equal labels iff they are in the same connected component
	// (w.h.p.). Labels are vertex IDs of component members.
	Labels []uint64
	// Components is the number of distinct labels.
	Components int
	// ProtocolCount is the component count computed *inside the model* by
	// the §2.6 output protocol (only when Config.CountComponents is set;
	// -1 otherwise). It must equal Components.
	ProtocolCount int
	// Phases is the number of Boruvka phases executed.
	Phases int
	// SketchFailures counts failed l0-sample recoveries across the run.
	SketchFailures int64
	// CollapseIters is the total number of tree-collapse iterations across
	// all phases (pointer doubling: O(log depth) per phase; level-wise:
	// O(depth) per phase — the Lemma 5 ablation quantity).
	CollapseIters int
	// PhaseRounds records the engine round count at the end of each phase
	// (as observed by machine 0), for per-phase cost analysis.
	PhaseRounds []int
	// Metrics is the engine's cost accounting.
	Metrics kmachine.Metrics
}

// MachineOutput is each machine's designated output variable o_i of a
// connectivity job. The one-shot handler sets it as the machine's output,
// resident machines reply with it (a fleet's in wire form, AppendOutput);
// Assemble combines one per machine into the global Result.
type MachineOutput struct {
	Owned         []int    // the machine's vertices, ascending (its view's Owned)
	Labels        []uint64 // Labels[i] is the component label of Owned[i]
	Failures      int64
	Phases        int
	Converged     bool // the phase driver's verdict, reached jointly by the machines
	CollapseIters int
	ProtocolCount int // §2.6 count at machine 0; -1 elsewhere/disabled
	PhaseRounds   []int
}

// ErrNotConverged is returned — with the partial result — by a job whose
// Boruvka phases hit MaxPhases before the stop rule held (persistent
// sketch failures, or an undersized phase budget), on every host.
var ErrNotConverged = errors.New("core: job did not converge within MaxPhases")

// Run executes the connectivity algorithm on g under a fresh random vertex
// partition and returns the component labeling.
func Run(g *graph.Graph, cfg Config) (*Result, error) {
	return RunContext(context.Background(), g, cfg)
}

// RunContext is Run with cancellation: when ctx is cancelled or its
// deadline passes, the underlying cluster aborts and ctx.Err() is
// returned.
func RunContext(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	return RunSourceContext(ctx, g.Source(), cfg)
}

// RunSource executes the connectivity algorithm on a streamed graph: src
// is read by the shard loader, each endpoint hashed to its home machine —
// no global graph.Graph is ever built.
func RunSource(src graph.EdgeSource, cfg Config) (*Result, error) {
	return RunSourceContext(context.Background(), src, cfg)
}

// RunSourceContext is RunSource with cancellation.
func RunSourceContext(ctx context.Context, src graph.EdgeSource, cfg Config) (*Result, error) {
	part, err := kmachine.LoadShards(src, cfg.K, kmachine.RVPSeed(cfg.Seed))
	if err != nil {
		return nil, err
	}
	return RunShards(ctx, part, cfg)
}

// RunShards executes the connectivity algorithm over a loaded partition:
// the one-shot caller under the four Run variants above, and the entry
// point of the lower-bound harness, whose placement is prescribed rather
// than hashed.
func RunShards(ctx context.Context, part *kmachine.ShardPartition, cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults(part.N())
	res, err := runOneShot(ctx, cfg, ConnectivityHandler(part.Shard, cfg))
	if err != nil {
		return nil, err
	}
	out, err := Assemble(part.N(), res.Outputs)
	if out != nil {
		out.Metrics = res.Metrics
	}
	return out, err
}

// MachineConfig is the engine configuration a (resolved) Config runs
// under — the one conversion every cluster bring-up goes through: each
// host's, the baselines', REP's and the congested-clique conversion's.
func (c Config) MachineConfig() kmachine.Config {
	return kmachine.Config{
		K:                   c.K,
		BandwidthBits:       c.BandwidthBits,
		MessageOverheadBits: c.MessageOverheadBits,
		Seed:                c.Seed,
		MaxRounds:           c.MaxRounds,
	}
}

// runOneShot is the one-shot caller: a cluster that is run once.
func runOneShot(ctx context.Context, cfg Config, h kmachine.Handler) (*kmachine.Result, error) {
	cluster, err := kmachine.New(cfg.MachineConfig())
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	return cluster.RunContext(ctx, h)
}

// placeLabels copies machine i's vertex labels (labels[j] of owned[j])
// into all, in order, refusing a vertex out of range or one already placed.
// The assemblers then refuse a run that left a vertex unplaced.
func placeLabels(all []uint64, placed []bool, i int, owned []int, labels []uint64) error {
	if len(owned) != len(labels) {
		return fmt.Errorf("core: machine %d labeled %d of its %d vertices", i, len(labels), len(owned))
	}
	for j, v := range owned {
		if v < 0 || v >= len(all) {
			return fmt.Errorf("core: machine %d labeled vertex %d of %d", i, v, len(all))
		}
		if placed[v] {
			return fmt.Errorf("core: machine %d labeled vertex %d, labeled before", i, v)
		}
		all[v], placed[v] = labels[j], true
	}
	return nil
}

// Assemble combines one MachineOutput per machine into the global
// connectivity result over n vertices (Metrics is left to the host, which
// knows what the job cost it). Every vertex must be labeled by exactly one
// machine. When the machines ran out of phases the result is partial and
// comes back together with ErrNotConverged.
func Assemble(n int, outputs []any) (*Result, error) {
	out := &Result{Labels: make([]uint64, n), ProtocolCount: -1}
	converged := true
	placed := make([]bool, n)
	for i, o := range outputs {
		mo, ok := o.(*MachineOutput)
		if !ok {
			return nil, fmt.Errorf("core: machine %d produced no output", i)
		}
		if err := placeLabels(out.Labels, placed, i, mo.Owned, mo.Labels); err != nil {
			return nil, err
		}
		out.SketchFailures += mo.Failures
		converged = converged && mo.Converged
		if mo.Phases > out.Phases {
			out.Phases = mo.Phases
		}
		if mo.CollapseIters > out.CollapseIters {
			out.CollapseIters = mo.CollapseIters
		}
		if mo.ProtocolCount >= 0 {
			out.ProtocolCount = mo.ProtocolCount
		}
		if mo.PhaseRounds != nil {
			out.PhaseRounds = mo.PhaseRounds
		}
	}
	if v := slices.Index(placed, false); v >= 0 {
		return nil, fmt.Errorf("core: no machine labeled vertex %d of %d", v, n)
	}
	seen := make(map[uint64]bool)
	for _, l := range out.Labels {
		seen[l] = true
	}
	out.Components = len(seen)
	if !converged {
		return out, ErrNotConverged
	}
	return out, nil
}

// ConnectivityHandler returns the per-machine connectivity program over
// the given shard lookup (a ShardPartition's Shard method): shared-
// randomness setup, the connectivity job, and the optional §2.6 output
// protocol, with machine 0 recording each phase's end round. cfg must
// already be resolved (WithDefaults) so every machine agrees on every
// parameter.
func ConnectivityHandler(shard func(id int) *kmachine.Shard, cfg Config) kmachine.Handler {
	return func(mctx *kmachine.Ctx) error {
		m := NewMerger(mctx, shard(mctx.ID()), cfg)
		defer m.ReleasePools()
		if err := m.Setup(); err != nil {
			return err
		}
		var rounds []int
		out, _ := m.ConnectivityJob(0, func(_, round int, _, _ uint64) {
			if mctx.ID() == 0 {
				rounds = append(rounds, round)
			}
		})
		out.PhaseRounds = rounds
		if cfg.CountComponents {
			out.ProtocolCount = m.countComponents()
		}
		mctx.SetOutput(out)
		return nil
	}
}

// ConnectivityJob is the Theorem 1 program over a ready Merger (shared
// randomness established, singleton labels): selection phases numbered
// from firstPhase until no component is active. Every host runs exactly
// this — the one-shot handler after Setup, the resident machines (a
// fleet's included) over a derived view of the residency.
func (m *Merger) ConnectivityJob(firstPhase int, after PhaseFunc) (out *MachineOutput, cancelled bool) {
	sel := m.SelectSketch
	if m.Cfg.EdgeCheckSelection {
		sel = m.selectEdgeCheck
	}
	phases, converged, cancelled := m.RunPhases(firstPhase, m.Cfg.MaxPhases, func(int) { sel() }, after)
	return &MachineOutput{
		Owned:         m.View.Owned(),
		Labels:        m.Labels,
		Failures:      m.Failures,
		Phases:        phases,
		Converged:     converged,
		CollapseIters: m.CollapseIters,
		ProtocolCount: -1,
	}, cancelled
}

// countComponents is the paper's §2.6 output protocol: every machine sends
// "YES" for each label it holds to that label's proxy (Lemma 1 pricing);
// the proxies forward the distinct labels they proxy to machine 0, which
// returns the count (and -1 is returned on all other machines).
func (m *Merger) countComponents() int {
	// Labels go out in ascending order: the send order reaches the proxies'
	// recorded streams.
	var out []proxy.Out
	for _, p := range m.Parts() {
		out = append(out, proxy.Out{Dst: m.ProxyOf(0, p.Label), Data: wire.AppendUvarint(nil, p.Label)})
	}
	distinct := distinctLabels(nil, m.Comm.Exchange(out))
	out = nil
	for _, l := range distinct {
		out = append(out, proxy.Out{Dst: 0, Data: wire.AppendUvarint(nil, l)})
	}
	recv := m.Comm.Exchange(out)
	if m.Ctx.ID() != 0 {
		return -1
	}
	return len(distinctLabels(distinct[:0], recv))
}

// distinctLabels appends the labels the messages carry to ls, then sorts
// and compacts it.
func distinctLabels(ls []uint64, recv []kmachine.Message) []uint64 {
	for _, msg := range recv {
		ls = append(ls, wire.NewReader(msg.Data).Uvarint())
	}
	slices.Sort(ls)
	return slices.Compact(ls)
}

// selectEdgeCheck is the GHS-style baseline: learn the label of every
// neighbor across every edge (Θ(min(m, nk)) label entries per phase, one
// per distinct neighbor per machine), then nominate the smallest outgoing
// edge per part directly.
func (m *Merger) selectEdgeCheck() {
	k := m.Ctx.K()
	parts := m.Parts()

	// Query each distinct neighbor's label, batched per home machine in
	// ascending order. Every local half-edge is ranked once: its (neighbour,
	// position) pair — position counting half-edges row after row, row i's
	// from off[i] — sorted, so rank[position] indexes its neighbour in nbrs,
	// and asked[h] lists the ranks asked of home h in send order.
	owned := m.View.Owned()
	off := make([]int, len(owned)+1)
	for i := range owned {
		off[i+1] = off[i] + len(m.View.Row(i))
	}
	pairs := make([]uint64, 0, off[len(owned)])
	for i := range owned {
		for x, h := range m.View.Row(i) {
			pairs = append(pairs, uint64(h.To)<<32|uint64(off[i]+x))
		}
	}
	slices.Sort(pairs)
	rank := make([]int32, len(pairs))
	var nbrs []int
	asked := make([][]int32, k)
	for _, pr := range pairs {
		if v := int(pr >> 32); len(nbrs) == 0 || nbrs[len(nbrs)-1] != v {
			nbrs = append(nbrs, v)
			h := m.View.Home(v)
			asked[h] = append(asked[h], int32(len(nbrs)-1))
		}
		rank[pr&(1<<32-1)] = int32(len(nbrs) - 1)
	}
	var out []proxy.Out
	for dst, js := range asked {
		if len(js) == 0 {
			continue
		}
		buf := wire.AppendUvarint(nil, uint64(len(js)))
		for _, j := range js {
			buf = wire.AppendUvarint(buf, uint64(nbrs[j]))
		}
		out = append(out, proxy.Out{Dst: dst, Data: buf})
	}
	recv := m.Comm.Exchange(out)

	// Answer label batches.
	out = nil
	for _, msg := range recv {
		r := wire.NewReader(msg.Data)
		cnt := int(r.Uvarint())
		rep := wire.AppendUvarint(nil, uint64(cnt))
		for i := 0; i < cnt; i++ {
			v := int(r.Uvarint())
			rep = wire.AppendUvarint(rep, uint64(v))
			rep = wire.AppendUvarint(rep, m.LabelOf(v))
		}
		out = append(out, proxy.Out{Dst: msg.Src, Data: rep})
	}
	recv = m.Comm.Exchange(out)
	// A home answers in the order it was asked.
	nbrLabel := make([]uint64, len(nbrs)) // parallel to nbrs
	for _, msg := range recv {
		r := wire.NewReader(msg.Data)
		js := asked[msg.Src]
		if int(r.Uvarint()) != len(js) {
			panic("core: label answers do not match the questions")
		}
		for _, j := range js {
			if r.Uvarint() != uint64(nbrs[j]) {
				panic("core: label answer for a vertex not asked about")
			}
			nbrLabel[j] = r.Uvarint()
		}
	}

	// Nominate the minimum outgoing edge (by edge ID) per part.
	n := m.View.N()
	out = nil
	for _, p := range parts {
		bestID := uint64(1) << 63
		var bestTarget uint64
		found := false
		for _, i := range p.Members {
			v := owned[i]
			for x, h := range m.View.Row(i) {
				j := rank[off[i]+x]
				if nbrLabel[j] == p.Label {
					continue
				}
				id := graph.EdgeID(v, h.To, n)
				if !found || id < bestID {
					bestID, bestTarget, found = id, nbrLabel[j], true
				}
			}
		}
		buf := wire.AppendUvarint(nil, p.Label)
		buf = wire.AppendBool(buf, found)
		buf = wire.AppendUvarint(buf, bestID)
		buf = wire.AppendUvarint(buf, bestTarget)
		out = append(out, proxy.Out{Dst: m.ProxyOf(0, p.Label), Data: buf})
	}
	recv = m.Comm.Exchange(out)

	// Proxy side: pick the overall minimum candidate per component, one
	// label's nominations at a time.
	m.ResetStates()
	byLabel := m.sortByLabel(recv, 0)
	for j := 0; j < len(byLabel); {
		st := m.NewState(byLabel[j].label())
		m.States = append(m.States, st)
		var bestID, target uint64
		hasCand := false
		for ; j < len(byLabel) && byLabel[j].label() == st.Label; j++ {
			msg := recv[byLabel[j].i()]
			r := wire.NewReader(msg.Data)
			r.Uvarint()
			found, id, tgt := r.Bool(), r.Uvarint(), r.Uvarint()
			st.Holders[msg.Src/8] |= 1 << uint(msg.Src%8)
			if found && (!hasCand || id < bestID) {
				bestID, target, hasCand = id, tgt, true
			}
		}
		if hasCand {
			m.PhaseActive++
			m.ApplyRank(st, target)
		}
	}
}
