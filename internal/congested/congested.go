// Package congested provides a minimal congested clique engine and the
// Conversion Theorem simulation the paper uses as its warm-up foil (§2):
// a congested clique algorithm with message complexity M, round complexity
// T, and per-node-per-round message bound Δ' can be simulated in the
// k-machine model in Õ(M/k² + Δ'T/k) rounds [Klauck et al., Theorem 4.1].
//
// The simulation maps clique nodes to machines by RVP and routes every
// clique message through a uniformly random intermediate machine (Valiant
// routing), which is what load-balances the per-link traffic. Experiment
// E12 replays a flooding-connectivity trace and compares the measured
// rounds with the theorem's two terms — and shows why conversion cannot
// beat Õ(n/k): Δ' scales with the maximum degree.
package congested

import (
	"fmt"

	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/proxy"
	"kmgraph/internal/wire"
)

// TraceMsg is one congested clique message.
type TraceMsg struct {
	Round, Src, Dst int
	Bits            int
}

// Trace is a recorded congested clique execution.
type Trace struct {
	N        int
	Rounds   int        // T
	Messages []TraceMsg // M = len(Messages)
	MaxDelta int        // Δ': max messages sent or received by a node in a round
}

// FloodingCC runs min-label flooding connectivity in the congested clique
// (messages travel only along graph edges, O(log n) bits each) and returns
// the labeling plus the recorded trace.
func FloodingCC(g *graph.Graph) ([]int, *Trace) {
	n := g.N()
	labels := make([]int, n)
	changed := make([]bool, n)
	for v := range labels {
		labels[v] = v
		changed[v] = true
	}
	tr := &Trace{N: n}
	msgBits := 16
	for b := 1; b < n; b <<= 1 {
		msgBits += 2
	}
	for {
		any := false
		type upd struct{ v, l int }
		var updates []upd
		perNode := make(map[int]int)
		for v := 0; v < n; v++ {
			if !changed[v] {
				continue
			}
			for _, h := range g.Adj(v) {
				tr.Messages = append(tr.Messages, TraceMsg{Round: tr.Rounds, Src: v, Dst: h.To, Bits: msgBits})
				perNode[v]++
				perNode[h.To]++
				updates = append(updates, upd{h.To, labels[v]})
			}
		}
		for _, d := range perNode {
			if d > tr.MaxDelta {
				tr.MaxDelta = d
			}
		}
		next := make([]bool, n)
		for _, u := range updates {
			if u.l < labels[u.v] {
				labels[u.v] = u.l
				next[u.v] = true
				any = true
			}
		}
		if len(updates) > 0 {
			tr.Rounds++
		}
		changed = next
		if !any {
			break
		}
	}
	return labels, tr
}

// ConvertResult reports the k-machine cost of simulating a trace and the
// Conversion Theorem's predicted terms.
type ConvertResult struct {
	// Rounds is the measured k-machine round count.
	Rounds int
	// TermMessages is M·b/(k²·B): the message-volume term.
	TermMessages float64
	// TermDelta is Δ'·T·b/(k·B): the per-node congestion term.
	TermDelta float64
	// Metrics is the engine accounting.
	Metrics kmachine.Metrics
}

// Predicted returns the theorem's round bound (sum of both terms, plus the
// 2T constant for the two-hop relay).
func (c *ConvertResult) Predicted() float64 {
	return c.TermMessages + c.TermDelta
}

// Config parameterizes a conversion run; links carry
// kmachine.Bandwidth(n) bits per round.
type Config struct {
	K    int
	Seed int64
}

// Convert replays a congested clique trace in the k-machine model using
// RVP node placement and random-intermediate routing, and returns the
// measured cost alongside the theorem's prediction. A trace that fails
// Validate is refused with its error.
func Convert(tr *Trace, cfg Config) (*ConvertResult, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	n := tr.N
	bw := kmachine.Bandwidth(n)
	cluster, err := kmachine.New(kmachine.Config{
		K:                   cfg.K,
		BandwidthBits:       bw,
		MessageOverheadBits: 64,
		Seed:                cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	// Node placement: the same RVP hashing the algorithms use.
	home := func(v int) int { return kmachine.HomeOf(kmachine.RVPSeed(cfg.Seed), cfg.K, v) }

	// Precompute, per machine and clique round, the messages it originates.
	perMachineRound := make([][][]TraceMsg, cfg.K)
	for i := range perMachineRound {
		perMachineRound[i] = make([][]TraceMsg, tr.Rounds)
	}
	for _, m := range tr.Messages {
		h := home(m.Src)
		perMachineRound[h][m.Round] = append(perMachineRound[h][m.Round], m)
	}
	res, err := cluster.Run(func(ctx *kmachine.Ctx) error {
		comm := proxy.NewComm(ctx)
		for r := 0; r < tr.Rounds; r++ {
			// Hop 1: to a uniformly random intermediate machine.
			var out []proxy.Out
			for _, m := range perMachineRound[ctx.ID()][r] {
				payload := make([]byte, (m.Bits+7)/8)
				buf := wire.AppendUvarint(nil, uint64(m.Dst))
				buf = wire.AppendBytes(buf, payload)
				out = append(out, proxy.Out{Dst: ctx.Rand().Intn(ctx.K()), Data: buf})
			}
			recv := comm.Exchange(out)
			// Hop 2: forward to the destination node's home machine.
			out = nil
			for _, msg := range recv {
				rd := wire.NewReader(msg.Data)
				dst := int(rd.Uvarint())
				out = append(out, proxy.Out{Dst: home(dst), Data: msg.Data})
			}
			comm.Exchange(out)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	b := 16.0 // representative message bits for prediction
	if len(tr.Messages) > 0 {
		b = float64(tr.Messages[0].Bits)
	}
	out := &ConvertResult{
		Rounds:       res.Metrics.Rounds,
		TermMessages: float64(len(tr.Messages)) * b / (float64(cfg.K*cfg.K) * float64(bw)),
		TermDelta:    float64(tr.MaxDelta) * float64(tr.Rounds) * b / (float64(cfg.K) * float64(bw)),
		Metrics:      res.Metrics,
	}
	return out, nil
}

// Validate cross-checks a trace's internal consistency (counts, rounds,
// endpoints, message sizes).
func (tr *Trace) Validate() error {
	if tr.N < 0 || tr.Rounds < 0 {
		return fmt.Errorf("congested: trace of %d nodes and %d rounds", tr.N, tr.Rounds)
	}
	for _, m := range tr.Messages {
		if m.Round < 0 || m.Round >= tr.Rounds {
			return fmt.Errorf("congested: message round %d out of [0,%d)", m.Round, tr.Rounds)
		}
		if m.Src < 0 || m.Src >= tr.N || m.Dst < 0 || m.Dst >= tr.N {
			return fmt.Errorf("congested: message endpoints out of range")
		}
		if m.Bits < 0 {
			return fmt.Errorf("congested: message of %d bits", m.Bits)
		}
	}
	return nil
}
