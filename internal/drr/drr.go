// Package drr implements distributed random ranking (paper §2.5, after
// Chen–Pandurangan [8]): each component draws a uniform random rank and
// conceptually connects to the neighbor it sampled if and only if that
// neighbor's rank is strictly higher. The result is a forest of rooted
// trees whose depth is O(log n) w.h.p. (Lemma 6), which bounds the number
// of merge iterations per phase.
//
// The decision rule and forest analysis are pure functions used both by
// the distributed connectivity/MST algorithms (which evaluate ranks via
// the shared hash) and by the standalone Lemma 6 experiment (E3).
//
//km:roundpure
package drr

import "math/rand"

// Connects reports whether a component with rank selfRank connects to its
// sampled neighbor with rank targetRank (strictly higher rank wins; equal
// ranks — probability ~2^-64 with hashed ranks — stay roots, which only
// delays a merge by one phase).
func Connects(selfRank, targetRank uint64) bool {
	return targetRank > selfRank
}

// BuildForest applies the DRR rule to a component graph. targets maps each
// component to the component across its sampled outgoing edge (components
// without an outgoing edge are absent). ranks must contain every component
// in targets and every target. The result maps every component that
// connects to its parent; roots are absent.
func BuildForest(targets map[uint64]uint64, ranks map[uint64]uint64) map[uint64]uint64 {
	parent := make(map[uint64]uint64, len(targets))
	for c, t := range targets {
		if Connects(ranks[c], ranks[t]) {
			parent[c] = t
		}
	}
	return parent
}

// MaxDepth returns the length (in edges) of the longest root-directed
// chain in a parent forest. It follows parent links with memoization and
// tolerates (reports -1 for) cycles, which a correct DRR forest never has.
func MaxDepth(parent map[uint64]uint64) int {
	depth := make(map[uint64]int, len(parent))
	const visiting = -2
	var walk func(c uint64) int
	walk = func(c uint64) int {
		if d, ok := depth[c]; ok {
			if d == visiting {
				return -1 << 30 // cycle sentinel
			}
			return d
		}
		p, ok := parent[c]
		if !ok {
			depth[c] = 0
			return 0
		}
		depth[c] = visiting
		d := walk(p)
		if d < 0 {
			return d
		}
		depth[c] = d + 1
		return d + 1
	}
	max := 0
	bad := false
	for c := range parent {
		d := walk(c)
		if d < 0 {
			bad = true
			continue
		}
		if d > max {
			max = d
		}
	}
	if bad {
		return -1
	}
	return max
}

// SimulateRoundDepth simulates one DRR round over nComp components, each
// sampling a uniformly random *other* component as its merge target (the
// worst case for chain formation), and returns the maximum tree depth.
// This is the standalone Lemma 6 / Figure 2 experiment.
func SimulateRoundDepth(nComp int, rng *rand.Rand) int {
	if nComp < 2 {
		return 0
	}
	targets := make(map[uint64]uint64, nComp)
	ranks := make(map[uint64]uint64, nComp)
	for c := 0; c < nComp; c++ {
		t := rng.Intn(nComp - 1)
		if t >= c {
			t++
		}
		targets[uint64(c)] = uint64(t)
		ranks[uint64(c)] = rng.Uint64()
	}
	return MaxDepth(BuildForest(targets, ranks))
}
