// The shared merge/DRR engine. Boruvka-style algorithms in this codebase —
// static connectivity, MST, and the dynamic subsystem's incremental
// queries — differ only in how each phase *selects* an outgoing edge per
// component; everything after selection (distributed random ranking,
// pointer-jumping tree collapse over re-randomized proxies, and the
// root-label broadcast) is identical. Merger packages that shared state and
// logic so all of them run the exact same §2.2–§2.5 machinery.

package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"kmgraph/internal/drr"
	"kmgraph/internal/graph"
	"kmgraph/internal/hashing"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/proxy"
	"kmgraph/internal/sketch"
	"kmgraph/internal/wire"
)

// CompState is the proxy-held state of one component during a phase.
type CompState struct {
	Label   uint64
	Cur     uint64 // current pointer (root so far); == Label for roots
	Parent  uint64 // original DRR parent (level-wise mode answers this)
	Holders []byte // bitset of machines holding parts of the component

	// MST / dynamic fields: the best outgoing edge found so far (for MST,
	// the lightest; for dynamic queries, the sampled merge edge), and
	// whether MST elimination converged.
	HasBest     bool
	BestU       int
	BestV       int
	BestW       int64
	TargetLabel uint64
	ElimDone    bool

	// Transient proxy-side selection state, never encoded: the outcome of
	// l0-sampling the sum of this component's parts (SumAndSample), a range
	// of the Merger's slots (slotsOf) — the one sample, or on an MST job
	// (Merger.allSlots) every slot the sum verified, the sample first.
	status         sketch.Status // of the stored sample
	slotLo, slotHi int32
	full           bool // the slots are the sum's whole support
	// sampled is set when SumAndSample stores a sample and cleared when a
	// step reads it: an elimination iteration reads only the states that
	// received parts.
	sampled bool
}

// Encode appends the wire encoding of the state.
//
//km:hotpath
func (st *CompState) Encode(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, st.Label)
	buf = wire.AppendUvarint(buf, st.Cur)
	buf = wire.AppendUvarint(buf, st.Parent)
	buf = wire.AppendBytes(buf, st.Holders)
	buf = wire.AppendBool(buf, st.HasBest)
	buf = wire.AppendUvarint(buf, uint64(st.BestU))
	buf = wire.AppendUvarint(buf, uint64(st.BestV))
	buf = wire.AppendVarint(buf, st.BestW)
	buf = wire.AppendUvarint(buf, st.TargetLabel)
	buf = wire.AppendBool(buf, st.ElimDone)
	return buf
}

// NewCompState returns a fresh root state for a component label.
func NewCompState(label uint64, k int) *CompState {
	return &CompState{Label: label, Cur: label, Parent: label, Holders: make([]byte, (k+7)/8)}
}

// Merger is the per-machine merge/DRR engine: component labels for owned
// vertices, proxy-held component states, and the collapse/relabel
// machinery. A selection step (sketch sampling, edge checking, MWOE
// elimination, or dynamic bank sampling) fills States and applies the
// merge rule; Collapse and PhaseSync then finish the phase.
type Merger struct {
	Ctx  *kmachine.Ctx
	Comm *proxy.Comm
	// View is the graph the machine consults during the merge phases: the
	// shard it was loaded with, a residency's live shard (which tracks
	// batched insertions and deletions), or a derived shard built for one
	// min-cut trial or verification run.
	View *kmachine.Shard
	Cfg  Config
	Sh   *proxy.Shared
	Poly *hashing.Poly // non-nil in FaithfulRandomness mode

	Labels []uint64 // Labels[i] is the component label of View.Owned()[i]
	// States holds the component states this machine proxies, one per
	// label, ascending by label: every step walks them in that order, so
	// its sends are deterministic, and finds one by binary search (stateOf).
	States        []*CompState
	StateSlot     int // proxy slot currently holding component states
	Failures      int64
	CollapseIters int
	Phase         int
	// PhaseActive counts components (proxied here) that found a valid
	// outgoing edge this phase. The phase loop terminates when no
	// component anywhere is active and nothing failed — "no merges" would
	// be wrong for merge rules without a per-phase progress guarantee
	// (the footnote-9 coin rule can have merge-free phases).
	PhaseActive uint64

	// OnRelabel, when non-nil, is invoked with each non-empty old-label ->
	// root map just BEFORE owned labels are rewritten, and with parts, the
	// grouping (Parts) of the labels before it — the one the phase's gather
	// built. The dynamic subsystem uses it to merge maintained sketch-bank
	// sums by linearity. Both are reused by the next phase: read them
	// during the call only.
	OnRelabel func(relabel map[uint64]uint64, parts []Part)

	// Cancelled, when non-nil, reports whether the current job was asked
	// to stop. It is polled through the phase sums PhaseSync carries on its
	// relabel exchange, so every machine reaches the same verdict at the
	// same point of the protocol and cancellation costs no extra rounds.
	Cancelled func() bool

	// allSlots makes SumAndSample keep every slot a sum verifies instead of
	// the one sample (sketch.SampleSlots): NewMWOE sets it, for the life of
	// an MST job's Merger.
	allSlots bool
	sl       *slotScratch // held from the first SumAndSample to ReleasePools

	prevFailures int64
	skPool       *sketch.Pool
	phaseParts   []Part // the grouping this phase's gather built, nil before it
	partBuf      []Part // Parts: the last grouping
	memberBuf    []int  // Parts: its members' ordinals, part after part
	stFree       []*CompState
	encScratch   []byte // PartPayload: this gather's parts, back to back
	outBuf       []proxy.Out
	ansBuf       []proxy.Out
	queryBuf     []kmachine.Message // Collapse: queries held across a handoff
	labeledBuf   []labeled          // sortByLabel and Parts: indices grouped by label
	relabel      map[uint64]uint64
}

// slotsOf returns the slots the last SumAndSample stored for st, the
// sample first; valid, as is st.full, until the next one.
func (m *Merger) slotsOf(st *CompState) []sketch.Slot { return m.sl.slots[st.slotLo:st.slotHi] }

// stateOf returns the state of label, or nil when this machine does not
// proxy it.
//
//km:hotpath
func (m *Merger) stateOf(label uint64) *CompState {
	if i, ok := slices.BinarySearchFunc(m.States, label, cmpStateLabel); ok {
		return m.States[i]
	}
	return nil
}

func cmpStateLabel(st *CompState, label uint64) int { return cmp.Compare(st.Label, label) }

func cmpStates(a, b *CompState) int { return cmp.Compare(a.Label, b.Label) }

// labeled is an index (a received message's, or an ordinal) and its label
// in one word, label<<32 | index, so that sorting the words sorts by
// label, then by index.
type labeled uint64

// packLabel packs (label, i). Labels are vertex IDs, below 2·graph.MaxN even
// in a derived double cover: a peer's that is not is a protocol violation.
//
//km:hotpath
func packLabel(l uint64, i int) labeled {
	if l >= 2*graph.MaxN {
		panic("core: a label that is no vertex ID")
	}
	return labeled(l<<32 | uint64(i))
}

func (x labeled) label() uint64 { return uint64(x) >> 32 }

func (x labeled) i() int { return int(uint32(x)) }

// sortByLabel returns recv's messages as (label, index) pairs sorted by
// label, then by index — each label's messages one run, in receive order —
// with label the body's leading uvarint shifted right by shift. The slice
// is reused by the next call.
//
//km:hotpath
func (m *Merger) sortByLabel(recv []kmachine.Message, shift uint) []labeled {
	ls := m.labeledBuf[:0]
	for i, msg := range recv {
		ls = append(ls, packLabel(wire.NewReader(msg.Data).Uvarint()>>shift, i))
	}
	slices.Sort(ls)
	m.labeledBuf = ls
	return ls
}

// SumAndSample is the proxy side of a sketch selection step (Lemma 3): it
// sums, per component, the parts received as (label, encoded sketch or
// adjacency rows) messages, l0-samples each sum once and stores the outcome
// in the component's state as a range of slots (slotsOf) — the one sample,
// or for an MST job every verified slot — recording every sender as a part
// holder. Nothing reads a sum after its sample, so all components share
// one pooled scratch sketch: the messages are sorted by label
// (sortByLabel) and folded one label's run at a time. Sketch parts go into
// the sum by AddEncoded; rows never do: they become items that the one
// scan (sketch.SampleSlots) reads beside the sum, and samples what adding
// them would. With create set the step starts from no states and appends
// one per label seen, in label order (static connectivity, MST iteration
// 0, the resident bank path); otherwise every label must already have its
// state here (MST elimination iterations).
//
//km:hotpath
func (m *Merger) SumAndSample(recv []kmachine.Message, seed uint64, create bool) {
	if create {
		m.ResetStates()
	}
	byLabel := m.sortByLabel(recv, 1)
	sum := m.Pool().Get(seed)
	sc := runScratches.Get().(*runScratch)
	if m.sl == nil {
		m.sl = slotScratches.Get().(*slotScratch)
	}
	sl := m.sl
	sl.slots = sl.slots[:0]
	for j := 0; j < len(byLabel); {
		label := byLabel[j].label()
		var st *CompState
		if create {
			st = m.NewState(label)
			m.States = append(m.States, st)
		} else if st = m.stateOf(label); st == nil {
			panic("core: part for a component state not held here")
		}
		sc.items.List = sc.items.List[:0]
		for ; j < len(byLabel) && byLabel[j].label() == label; j++ {
			msg := recv[byLabel[j].i()]
			st.Holders[msg.Src/8] |= 1 << uint(msg.Src%8)
			if err := m.addPart(sum, &sc.items, msg.Data, msg.Src); err != nil {
				panic(fmt.Sprintf("core: bad part from %d: %v", msg.Src, err)) //kmvet:ignore panic path; never executes on protocol-conformant traffic
			}
		}
		if m.allSlots {
			sc.dropPairs(uint64(m.Cfg.Sketch.N))
		}
		st.slotLo = int32(len(sl.slots))
		sl.slots, st.status, st.full = sum.SampleSlots(sl.slots, &sc.items, m.allSlots)
		st.slotHi = int32(len(sl.slots))
		st.sampled = true
		sum.Reset()
	}
	runScratches.Put(sc)
	m.Pool().Put(sum)
}

// runScratch is what SumAndSample reads a label's run into: its rows as
// items, and dropPairs' decoded ends of them and bitset of their vertices.
type runScratch struct {
	items sketch.Items
	ends  [][2]uint32
	mark  []uint64
}

// slotScratch is what a selection step keeps from SumAndSample to its
// resolver: every component's slots, one range per state; and askSlots'
// states asked, per-home query counts and one state's replies.
type slotScratch struct {
	slots []sketch.Slot
	asked []*CompState
	reps  []reply
	sent  []int
}

// runScratches and slotScratches recycle selection scratch process-wide,
// as the shared sketch pools recycle SumAndSample's sum: each cold query
// opens a fresh Cluster, so scratch made per Merger would grow anew on
// every one. The slots are held from a Merger's first SumAndSample to its
// ReleasePools, a run's scratch for one SumAndSample only: held per
// Merger, every machine of a process kept its largest run's items, and the
// cold workloads' peak RSS rose by about 8 %.
var (
	runScratches  = sync.Pool{New: func() any { return new(runScratch) }}
	slotScratches = sync.Pool{New: func() any { return new(slotScratch) }}
)

var errPartRow = errors.New("core: part row of a vertex out of range or homed elsewhere, or with a bad neighbour")

// addPart reads one PartPayload body from machine src: a sketch goes into
// sum by AddEncoded; rows go onto items.List, one item per half-edge (v,
// to) as AddVertex would add it — slot EdgeID(v, to), sign +1 when v < to —
// in row order. Rows are peer bytes, refused unless every vertex is below
// the sketch's N and homed at src, every neighbour is below N and not the
// vertex, and no count or degree runs past the message; after an error
// sum and items are unspecified.
//
//km:hotpath
func (m *Merger) addPart(sum *sketch.Sketch, items *sketch.Items, data []byte, src int) error {
	r := wire.NewReader(data)
	hdr := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	if hdr&1 == 0 {
		return sum.AddEncoded(data[len(data)-r.Len():])
	}
	n := uint64(m.Cfg.Sketch.N)
	for c := r.Uvarint(); c > 0 && r.Err() == nil; c-- {
		v, d := r.Uvarint(), r.Uvarint()
		if r.Err() != nil || v >= n || m.View.Home(int(v)) != src || d > uint64(r.Len()) {
			return cmp.Or(r.Err(), errPartRow)
		}
		for ; d > 0; d-- {
			to := r.Uvarint()
			switch {
			case r.Err() != nil || to >= n || to == v:
				return cmp.Or(r.Err(), errPartRow)
			case v < to:
				items.List = append(items.List, sketch.MakeItem(v*n+to, +1))
			default:
				items.List = append(items.List, sketch.MakeItem(to*n+v, -1))
			}
		}
	}
	return r.Done()
}

// dropPairs removes from the run's row items (addPart's, over n vertices)
// the half-edges whose neighbour sent its own row in the run. Those come in
// pairs: rows are symmetric, and one component's parts share one filter
// (none, or its threshold, which keeps or drops both halves of an edge), so
// the neighbour's row holds the other half — the same slot with the
// opposite sign — and the two cancel exactly in every tester. Dropping both
// leaves every tester as it was. Only an all-slots scan gains by it, as it
// hashes every item at every level; a first-slot scan hashes only the items
// at the few levels it reads, and the drop cost a connectivity step about
// 5 % of its CPU when it was tried there.
func (sc *runScratch) dropPairs(n uint64) {
	items := sc.items.List
	if len(items) == 0 {
		return
	}
	// Each item's (vertex, neighbour), decoded once.
	ends := slices.Grow(sc.ends[:0], len(items))[:len(items)]
	mark := slices.Grow(sc.mark[:0], int(n+63)/64)[:(n+63)/64]
	for i, it := range items {
		id := uint64(it) >> 1
		v, to := id/n, id%n
		if it&1 != 0 {
			v, to = to, v
		}
		ends[i] = [2]uint32{uint32(v), uint32(to)}
		mark[v/64] |= 1 << (v % 64)
	}
	// Kept items move to the front, dropped ones to the back; the swap
	// only touches positions already read, so ends[i] is items[i] when
	// read.
	kept := 0
	for i, it := range items {
		if to := ends[i][1]; mark[to/64]&(1<<(to%64)) == 0 {
			items[kept], items[i] = it, items[kept]
			kept++
		}
	}
	for _, e := range ends {
		mark[e[0]/64] = 0
	}
	sc.items.List, sc.mark, sc.ends = items[:kept], mark, ends
}

// Light reports whether a part (member ordinals in view) ships its rows, not
// a sketch: it has fewer than cells (Params.Cells()) local half-edges under
// filter (nil = all), so its rows (under 15 bytes a half-edge) undercut a
// dense sketch (~17 bytes a cell). A residency keeps no sums for it.
func Light(view *kmachine.Shard, members []int, filter func(u int, h graph.Half) bool, cells int) bool {
	h := 0
	for _, i := range members {
		if h += keptDegree(view.Owned()[i], view.Row(i), filter); h >= cells {
			return false
		}
	}
	return true
}

// keptDegree counts u's half-edges under filter (nil = all).
func keptDegree(u int, adj []graph.Half, filter func(u int, h graph.Half) bool) int {
	if filter == nil {
		return len(adj)
	}
	d := 0
	for _, h := range adj {
		if filter(u, h) {
			d++
		}
	}
	return d
}

// PartPayload encodes one part (member ordinals, as in Parts) after the
// gather's earlier ones in the machine's part scratch, which each gather
// empties, and returns its bytes: they stay intact until the next gather,
// and the exchange copies them into their link's frame, so a part is copied
// once. The header is uvarint(label<<1 | rows). A sketch body is
// sk.EncodeTo; a nil sk means rows under filter: uvarint(count), then per
// member with a kept half-edge uvarint(v), uvarint(d) and d × uvarint(to).
func (m *Merger) PartPayload(label uint64, members []int, filter func(u int, h graph.Half) bool, sk *sketch.Sketch) []byte {
	scr := m.encScratch
	start := len(scr)
	if sk != nil {
		scr = sk.EncodeTo(wire.AppendUvarint(scr, label<<1))
	} else {
		owned, count := m.View.Owned(), 0
		for _, i := range members {
			count += min(keptDegree(owned[i], m.View.Row(i), filter), 1)
		}
		scr = wire.AppendUvarint(wire.AppendUvarint(scr, label<<1|1), uint64(count))
		for _, i := range members {
			v, adj := owned[i], m.View.Row(i)
			if d := keptDegree(v, adj, filter); d > 0 {
				scr = wire.AppendUvarint(wire.AppendUvarint(scr, uint64(v)), uint64(d))
				for _, h := range adj {
					if filter == nil || filter(v, h) {
						scr = wire.AppendUvarint(scr, uint64(h.To))
					}
				}
			}
		}
	}
	m.encScratch = scr
	return scr[start:len(scr):len(scr)]
}

// NewState returns a zeroed root CompState for label, reusing a recycled
// one when available.
func (m *Merger) NewState(label uint64) *CompState {
	n := len(m.stFree)
	if n == 0 {
		return NewCompState(label, m.Ctx.K())
	}
	st := m.stFree[n-1]
	m.stFree = m.stFree[:n-1]
	holders := st.Holders
	*st = CompState{Label: label, Cur: label, Parent: label}
	nb := (m.Ctx.K() + 7) / 8
	if cap(holders) < nb {
		holders = make([]byte, nb)
	} else {
		holders = holders[:nb]
		clear(holders)
	}
	st.Holders = holders
	return st
}

// ResetStates recycles every state in m.States into the pool and empties
// it, ready for a new selection step.
func (m *Merger) ResetStates() {
	m.stFree = append(m.stFree, m.States...)
	m.States = m.States[:0]
}

// DecodeStateInto parses a CompState produced by Encode into a pooled
// state.
func (m *Merger) DecodeStateInto(r *wire.Reader) *CompState {
	st := m.NewState(0)
	st.Label = r.Uvarint()
	st.Cur = r.Uvarint()
	st.Parent = r.Uvarint()
	st.Holders = append(st.Holders[:0], r.Bytes()...)
	st.HasBest = r.Bool()
	st.BestU = int(r.Uvarint())
	st.BestV = int(r.Uvarint())
	st.BestW = r.Varint()
	st.TargetLabel = r.Uvarint()
	st.ElimDone = r.Bool()
	return st
}

// handOff starts st's move to the next slot's proxy (a fresh h_{j,ρ} per
// iteration, as Lemma 5 requires for independence): when that is this
// machine st joins kept, otherwise its encoding, after tag unless that is
// 0, joins out and st is recycled. A handoff ranges over m.States with
// kept = m.States[:0], which only overwrites states already visited, and
// ends in installStates.
func (m *Merger) handOff(st *CompState, tag byte, kept []*CompState, out []proxy.Out) ([]*CompState, []proxy.Out) {
	dst := m.ProxyOf(m.StateSlot+1, st.Label)
	if dst == m.Ctx.ID() {
		return append(kept, st), out
	}
	a := m.Comm.Arena()
	buf := a.Grab(97 + len(st.Holders))
	if tag != 0 {
		buf = append(buf, tag)
	}
	buf = st.Encode(buf)
	m.stFree = append(m.stFree, st) // encoded copy travels; recycle the original
	return kept, append(out, proxy.Out{Dst: dst, Data: a.Commit(buf)})
}

// installStates makes states — the ones a handoff kept, then the ones it
// received — the next slot's, back in label order.
func (m *Merger) installStates(states []*CompState) {
	slices.SortFunc(states, cmpStates)
	m.States = states
	m.StateSlot++
}

// Pool returns the machine's sketch pool (shape Cfg.Sketch), so selection
// steps reuse cell arrays and hash tables across phases instead of
// allocating fresh sketches per part.
func (m *Merger) Pool() *sketch.Pool {
	if m.skPool == nil {
		m.skPool = sketch.NewPool(m.Cfg.Sketch)
	}
	return m.skPool
}

// ReleasePools hands the machine's recycled sketches and selection
// scratch back to the process-wide pools; call when the Merger's run is
// over.
func (m *Merger) ReleasePools() {
	if m.skPool != nil {
		m.skPool.Release()
	}
	if m.sl != nil {
		clear(m.sl.asked[:cap(m.sl.asked)]) // drop the states
		slotScratches.Put(m.sl)
		m.sl = nil
	}
}

// cancelShift packs the cancellation flag into the high bits of a summed
// count word (PhaseSync's failures, MST elimination's active count): counts
// stay below 2^48, machine counts below 2^16, so the two fields cannot
// collide.
const cancelShift = 48

// CancelBit returns 1 if this machine observes a cancellation request.
func (m *Merger) CancelBit() uint64 {
	if m.Cancelled != nil && m.Cancelled() {
		return 1
	}
	return 0
}

// PhaseSync ends a phase in one exchange: the relabel exchange
// (broadcastRelabel), whose frames also carry the phase's sums — the
// cluster-wide count of active components, the cluster-wide failure count,
// and the jointly agreed cancellation verdict (packed into the failure
// word, so polling for cancellation is free). Both words are final once
// the selection step returns.
func (m *Merger) PhaseSync() (active, failures uint64, cancelled bool) {
	sums := [2]uint64{m.PhaseActive, m.PhaseFailures() | m.CancelBit()<<cancelShift}
	m.broadcastRelabel(sums[:])
	return sums[0], sums[1] & (1<<cancelShift - 1), sums[1]>>cancelShift > 0
}

// PhaseFunc observes the end of a job's i-th phase (0-based within the
// job): the machine's completed round count and the cluster-wide
// collectives' values. Observation only — it must not communicate.
type PhaseFunc func(i, round int, active, failures uint64)

// RunPhases is the Borůvka phase driver every job on every host runs:
// up to maxPhases phases numbered firstPhase, firstPhase+1, … (0 for a
// one-shot run; the session-global counter on a residency, so proxies and
// ranks never repeat), each phase sel → Collapse → PhaseSync. It stops
// when no component anywhere is active and nothing failed (converged),
// when the machines jointly observe a cancellation request, or when
// maxPhases are spent (neither flag set).
func (m *Merger) RunPhases(firstPhase, maxPhases int, sel func(i int), after PhaseFunc) (phases int, converged, cancelled bool) {
	for m.Phase = firstPhase; phases < maxPhases; m.Phase++ {
		m.StateSlot = 0
		m.PhaseActive = 0
		m.phaseParts = nil
		sel(phases)
		m.Collapse()
		active, failures, cancel := m.PhaseSync()
		if after != nil {
			after(phases, m.Ctx.Round(), active, failures)
		}
		phases++
		if cancel {
			return phases, false, true
		}
		if active == 0 && failures == 0 {
			return phases, true, false
		}
	}
	return phases, false, false
}

// NewMerger returns a merge engine for one machine (labels as NewMergerOn).
func NewMerger(ctx *kmachine.Ctx, view *kmachine.Shard, cfg Config) *Merger {
	return NewMergerOn(proxy.NewComm(ctx), view, cfg, nil, nil)
}

// NewMergerOn returns a merge engine that shares an existing communicator
// and already-established shared randomness — the resident substrate's
// path: successive jobs on one loaded cluster must reuse the session
// communicator (frame sequencing is cluster-global) and must not pay the
// Setup broadcast again. Labels start as singletons over the view.
func NewMergerOn(comm *proxy.Comm, view *kmachine.Shard, cfg Config, sh *proxy.Shared, poly *hashing.Poly) *Merger {
	m := &Merger{
		Ctx:    comm.Ctx(),
		Comm:   comm,
		View:   view,
		Cfg:    cfg,
		Sh:     sh,
		Poly:   poly,
		Labels: make([]uint64, len(view.Owned())),
	}
	for i, v := range view.Owned() {
		m.Labels[i] = uint64(v)
	}
	return m
}

// LabelOf returns the current label of owned vertex v.
func (m *Merger) LabelOf(v int) uint64 { return m.Labels[m.View.Ordinal(v)] }

// Setup establishes shared randomness.
func (m *Merger) Setup() error {
	m.Sh = proxy.Setup(m.Comm)
	if m.Cfg.FaithfulRandomness {
		d := m.View.N()/m.Ctx.K() + 1
		if d > 512 {
			d = 512 // cap polynomial degree; see DESIGN.md substitution #2
		}
		if d < 8 {
			d = 8
		}
		bits := proxy.SetupBits(m.Comm, 8*d)
		m.Poly = hashing.NewPolyFromBits(bits, d)
		if m.Poly == nil {
			return fmt.Errorf("core: polynomial construction failed")
		}
	}
	return nil
}

// ProxyOf selects the proxy machine for a component at a given state slot
// within the current phase (the paper's h_{j,ρ}).
func (m *Merger) ProxyOf(slot int, label uint64) int {
	if m.Poly != nil {
		tweak := hashing.Hash3(m.Sh.Seed(), uint64(m.Phase), uint64(slot))
		return hashing.RangeOf(m.Poly.Eval(label^tweak)<<3, m.Ctx.K())
	}
	return m.Sh.ProxyOf(m.Phase, slot, label, m.Ctx.K())
}

// Part is one component's members on this machine: the ordinals (positions
// in View.Owned()) of the owned vertices whose label is Label, ascending.
type Part struct {
	Label   uint64
	Members []int
}

// Parts groups this machine's vertices by current component label: one
// Part per label, ascending by label. The slice and its members are reused
// by the next Parts call on this Merger — consume the grouping within the
// phase step that requested it.
//
//km:hotpath
func (m *Merger) Parts() []Part {
	ls := m.labeledBuf[:0]
	for i, l := range m.Labels {
		ls = append(ls, packLabel(l, i))
	}
	slices.Sort(ls)
	members, parts := slices.Grow(m.memberBuf[:0], len(ls)), m.partBuf[:0]
	lo := 0
	for j, x := range ls {
		members = append(members, x.i()) // never grows: parts keep pointing in
		if j+1 == len(ls) || ls[j+1].label() != x.label() {
			parts = append(parts, Part{Label: x.label(), Members: members[lo : j+1 : j+1]})
			lo = j + 1
		}
	}
	m.labeledBuf, m.memberBuf, m.partBuf = ls, members, parts
	return parts
}

// Members returns the member ordinals of label's part in parts (a Parts
// result), or nil when no owned vertex carries label.
//
//km:hotpath
func Members(parts []Part, label uint64) []int {
	if i, ok := slices.BinarySearchFunc(parts, label, cmpPartLabel); ok {
		return parts[i].Members
	}
	return nil
}

func cmpPartLabel(p Part, label uint64) int { return cmp.Compare(p.Label, label) }

// SortedKeys returns the keys of a map in ascending order (deterministic
// iteration for SPMD protocols and wire encodings).
func SortedKeys[K cmp.Ordered, V any](p map[K]V) []K {
	ls := make([]K, 0, len(p))
	for l := range p {
		ls = append(ls, l)
	}
	slices.Sort(ls)
	return ls
}

// PhaseFailures returns failures recorded during the current phase only.
func (m *Merger) PhaseFailures() uint64 {
	d := m.Failures - m.prevFailures
	m.prevFailures = m.Failures
	return uint64(d)
}

// ApplyRank applies the merge rule to a component that sampled nbrLabel:
// the DRR rule (§2.5, connect iff the neighbor's rank is higher) or the
// footnote-9 coin rule (connect iff self drew 0 and the neighbor drew 1).
//
//km:hotpath
func (m *Merger) ApplyRank(st *CompState, nbrLabel uint64) {
	if m.Cfg.CoinMerge {
		self := m.Sh.Rank(m.Phase, st.Label) & 1
		nbr := m.Sh.Rank(m.Phase, nbrLabel) & 1
		if self == 0 && nbr == 1 {
			st.Parent = nbrLabel
			st.Cur = nbrLabel
		}
		return
	}
	if drr.Connects(m.Sh.Rank(m.Phase, st.Label), m.Sh.Rank(m.Phase, nbrLabel)) {
		st.Parent = nbrLabel
		st.Cur = nbrLabel
	}
}

// SelectSketch is the paper's per-phase selection path (§2.3–2.5): fresh
// part sketches to component proxies, linear combination, l0-sample,
// neighbor-label resolution, DRR ranking. It fills m.States with each
// component's merge decision; Collapse and PhaseSync finish the phase.
func (m *Merger) SelectSketch() {
	m.GatherFreshParts(m.Sh.SketchSeed(m.Phase, 0))
	m.RankSampled(nil)
}

// GatherParts is the first half of a sketch selection step (§2.3, Lemma
// 3): every part travels to its component's proxy — as the sketch part
// returns for it, encoded before the next call, or, where part returns nil
// for a light part, as its adjacency rows — and the proxy sums the parts
// per component (intra-component edges cancel by linearity), samples the
// sum and records the part holders (SumAndSample). Payloads are interned
// exact-size in the arena. It returns the grouping it gathered (Parts):
// the phase's one, which its elimination iterations and the relabel hook
// read until the phase relabels.
func (m *Merger) GatherParts(seed uint64, part func(label uint64, members []int) *sketch.Sketch) []Part {
	out := m.outBuf[:0]
	m.encScratch = m.encScratch[:0]
	parts := m.Parts()
	for _, p := range parts {
		out = append(out, proxy.Out{Dst: m.ProxyOf(0, p.Label), Data: m.PartPayload(p.Label, p.Members, nil, part(p.Label, p.Members))})
	}
	recv := m.Comm.Exchange(out)
	m.outBuf = out
	m.SumAndSample(recv, seed, true)
	m.phaseParts = parts
	return parts
}

// GatherFreshParts gathers the parts, a heavy one's sketch built fresh
// against the view under seed into one pooled sketch, and returns the
// grouping (GatherParts).
func (m *Merger) GatherFreshParts(seed uint64) []Part {
	sk := m.Pool().Get(seed)
	parts := m.GatherParts(seed, func(_ uint64, members []int) *sketch.Sketch { return m.partSketch(sk, members, nil) })
	m.Pool().Put(sk)
	return parts
}

// partSketch builds a heavy part's sketch under filter (nil = all) into
// sk, reset first, or returns nil for a light part, whose rows travel.
func (m *Merger) partSketch(sk *sketch.Sketch, members []int, filter func(u int, h graph.Half) bool) *sketch.Sketch {
	if Light(m.View, members, filter, m.Cfg.Sketch.Cells()) {
		return nil
	}
	sk.Reset()
	for _, i := range members {
		sk.AddVertex(m.View.Owned()[i], m.View.Row(i), filter)
	}
	return sk
}

// RankSampled is the second half (§2.4–2.5): resolve the neighbour label
// of the edge sampled from every gathered component sum by asking the
// outside endpoint's home machine (askSlots, which also validates that the
// edge exists), and apply the merge rule. merged, when non-nil, sees every
// component that connected to its neighbour, with the sampled edge and its
// weight.
func (m *Merger) RankSampled(merged func(st *CompState, e graph.Edge)) {
	asked := m.sl.asked[:0]
	for _, st := range m.States {
		if !st.sampled {
			continue
		}
		st.sampled = false
		switch st.status {
		case sketch.Empty:
			// No outgoing edges: inactive root this phase.
		case sketch.Failed:
			m.Failures++
		case sketch.Sampled:
			asked = append(asked, st)
		}
	}
	m.sl.asked = asked
	m.askSlots(asked, func(st *CompState, slots []sketch.Slot, reps []reply) {
		if !reps[0].valid || reps[0].label == st.Label {
			// Fingerprint collision produced garbage: count as failure.
			m.Failures++
			return
		}
		m.PhaseActive++
		m.ApplyRank(st, reps[0].label)
		if merged != nil && st.Parent != st.Label {
			x, y, _ := slots[0].Edge(m.Cfg.Sketch.N)
			merged(st, graph.Edge{U: x, V: y, W: reps[0].w})
		}
	})
}

// reply is a home machine's answer to a label query (AnswerLabelQueries):
// the outside endpoint's label, whether the slot's edge exists, and its
// weight.
type reply struct {
	label uint64
	valid bool
	w     int64
}

// askSlots is the one label-query round trip of a selection step: for
// every slot of the states asked (in m.States order), a query to the home
// machine of the edge's outside endpoint, in one query exchange and one
// answer exchange. Then it hands decide each state asked, in order, with
// its slots and their replies, parallel and valid during the call. Replies
// carry no slot index: a home machine answers its queries in the order
// Exchange handed them over — by (source, send order) — and Exchange hands
// the answers back the same way, so the replies of one home machine are in
// this machine's send order to it.
func (m *Merger) askSlots(asked []*CompState, decide func(st *CompState, slots []sketch.Slot, reps []reply)) {
	scr, n, k := m.sl, m.Cfg.Sketch.N, m.Ctx.K()
	a := m.Comm.Arena()
	out := m.outBuf[:0]
	sent := slices.Grow(scr.sent[:0], k)[:k]
	clear(sent)
	for _, st := range asked {
		for _, sl := range m.slotsOf(st) {
			x, y, outside := sl.Edge(n)
			q := a.Grab(40)
			q = wire.AppendUvarint(q, uint64(outside))
			q = wire.AppendUvarint(q, uint64(x))
			q = wire.AppendUvarint(q, uint64(y))
			q = wire.AppendUvarint(q, st.Label)
			home := m.View.Home(outside)
			out = append(out, proxy.Out{Dst: home, Data: a.Commit(q)})
			sent[home]++
		}
	}
	recv := m.Comm.Exchange(out)
	m.outBuf = out
	recv = m.Comm.Exchange(m.AnswerLabelQueries(recv))

	// sent[h] becomes the index of home machine h's next unread reply.
	next := 0
	for h, c := range sent {
		sent[h], next = next, next+c
	}
	if next != len(recv) {
		panic("core: label replies do not match the queries sent")
	}
	for _, st := range asked {
		slots, reps := m.slotsOf(st), scr.reps[:0]
		for _, sl := range slots {
			_, _, outside := sl.Edge(n)
			home := m.View.Home(outside)
			r := wire.NewReader(recv[sent[home]].Data)
			sent[home]++
			if r.Uvarint() != st.Label {
				panic("core: label reply for another component's slot")
			}
			reps = append(reps, reply{label: r.Uvarint(), valid: r.Bool(), w: r.Varint()})
		}
		decide(st, slots, reps)
		scr.reps = reps
	}
	scr.sent = sent
}

// AnswerLabelQueries serves queries of the form (outside, x, y, askLabel):
// reply with outside's current label, whether edge (x,y) really exists,
// and its weight.
// The returned slice is reused by the next AnswerLabelQueries call on this
// Merger; feed it to one Exchange and drop it.
func (m *Merger) AnswerLabelQueries(recv []kmachine.Message) []proxy.Out {
	out := m.ansBuf[:0]
	a := m.Comm.Arena()
	for _, msg := range recv {
		r := wire.NewReader(msg.Data)
		outside := int(r.Uvarint())
		x := int(r.Uvarint())
		y := int(r.Uvarint())
		askLabel := r.Uvarint()
		other := x
		if other == outside {
			other = y
		}
		o := m.View.Ordinal(outside)
		valid := false
		var w int64
		for _, h := range m.View.Row(o) {
			if h.To == other {
				valid = true
				w = h.W
				break
			}
		}
		rep := a.Grab(40)
		rep = wire.AppendUvarint(rep, askLabel)
		rep = wire.AppendUvarint(rep, m.Labels[o])
		rep = wire.AppendBool(rep, valid)
		rep = wire.AppendVarint(rep, w)
		out = append(out, proxy.Out{Dst: msg.Src, Data: a.Commit(rep)})
	}
	m.ansBuf = out
	return out
}

// broadcastRelabel sends each merged component's root label to all
// machines holding parts and applies the relabeling locally; sum rides on
// the exchange's frames, one per link (proxy.Comm.ExchangeSum).
func (m *Merger) broadcastRelabel(sum []uint64) {
	k := m.Ctx.K()
	out := m.outBuf[:0]
	a := m.Comm.Arena()
	for _, st := range m.States {
		if st.Cur == st.Label {
			continue
		}
		buf := a.Grab(20)
		buf = wire.AppendUvarint(buf, st.Label)
		buf = wire.AppendUvarint(buf, st.Cur)
		data := a.Commit(buf)
		for h := 0; h < k; h++ {
			if st.Holders[h/8]&(1<<uint(h%8)) != 0 {
				out = append(out, proxy.Out{Dst: h, Data: data})
			}
		}
	}
	recv := m.Comm.ExchangeSum(out, sum)
	m.outBuf = out
	if m.relabel == nil {
		m.relabel = make(map[uint64]uint64)
	}
	relabel := m.relabel
	clear(relabel)
	for _, msg := range recv {
		r := wire.NewReader(msg.Data)
		oldL := r.Uvarint()
		newL := r.Uvarint()
		relabel[oldL] = newL
	}
	m.applyRelabel(relabel)
}

// applyRelabel notifies the relabel hook, then rewrites owned labels
// through the old->root map.
func (m *Merger) applyRelabel(relabel map[uint64]uint64) {
	if len(relabel) == 0 {
		return
	}
	if m.OnRelabel != nil {
		parts := m.phaseParts
		if parts == nil {
			parts = m.Parts()
		}
		m.OnRelabel(relabel, parts)
	}
	for i, l := range m.Labels {
		if nl, ok := relabel[l]; ok {
			m.Labels[i] = nl
		}
	}
}

// Collapse resolves every component's pointer to its tree root. The
// default is pointer doubling (cur <- cur's cur) with state handoff to
// fresh proxies each iteration; level-wise mode answers the original
// parent instead, walking one level per iteration as in Lemma 5. From the
// second iteration on, the last iteration's cluster-wide changed count
// rides on the query exchange, whose queries go to the proxies cur's state
// is handed to next: when nothing changed anywhere the queries are dropped
// and no handoff happens, otherwise the handoff runs before the answers.
// T iterations cost 3T exchanges.
func (m *Merger) Collapse() {
	a := m.Comm.Arena()
	var changed [1]uint64
	for first := true; ; first = false {
		slot, sum := m.StateSlot, changed[:0]
		if !first {
			slot, sum = slot+1, changed[:]
		}
		// Queries: ask the proxy holding cur's state once any handoff is done.
		out := m.outBuf[:0]
		for _, st := range m.States {
			if st.Cur == st.Label {
				continue
			}
			q := a.Grab(20)
			q = wire.AppendUvarint(q, st.Cur)
			q = wire.AppendUvarint(q, st.Label)
			out = append(out, proxy.Out{Dst: m.ProxyOf(slot, st.Cur), Data: a.Commit(q)})
		}
		recv := m.Comm.ExchangeSum(out, sum)
		m.outBuf = out
		if !first {
			if changed[0] == 0 {
				return
			}
			// The handoff's exchange reuses the receive slice.
			m.queryBuf = append(m.queryBuf[:0], recv...)
			recv = m.queryBuf
			m.HandoffStates()
		}
		m.CollapseIters++

		// Answers, to wherever the asker's state now is.
		out = m.outBuf[:0]
		for _, msg := range recv {
			r := wire.NewReader(msg.Data)
			target := r.Uvarint()
			asker := r.Uvarint()
			st := m.stateOf(target)
			if st == nil {
				panic("core: query for component state not held here")
			}
			ans := st.Cur
			if m.Cfg.CollapseLevelWise {
				ans = st.Parent
			}
			rep := a.Grab(20)
			rep = wire.AppendUvarint(rep, asker)
			rep = wire.AppendUvarint(rep, ans)
			out = append(out, proxy.Out{Dst: m.ProxyOf(m.StateSlot, asker), Data: a.Commit(rep)})
		}
		recv = m.Comm.Exchange(out)
		m.outBuf = out

		// Updates.
		changed[0] = 0
		for _, msg := range recv {
			r := wire.NewReader(msg.Data)
			asker := r.Uvarint()
			newCur := r.Uvarint()
			st := m.stateOf(asker)
			if st == nil {
				panic("core: answer for unknown component")
			}
			if newCur != st.Cur {
				st.Cur = newCur
				changed[0]++
			}
		}
	}
}

// HandoffStates moves all component states to the next slot's proxies
// (handOff, installStates).
func (m *Merger) HandoffStates() {
	out, kept := m.outBuf[:0], m.States[:0]
	for _, st := range m.States {
		kept, out = m.handOff(st, 0, kept, out)
	}
	recv := m.Comm.Exchange(out)
	m.outBuf = out
	for _, msg := range recv {
		kept = append(kept, m.DecodeStateInto(wire.NewReader(msg.Data)))
	}
	m.installStates(kept)
}
