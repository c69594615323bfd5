// Package mincut implements the paper's O(log n)-approximate minimum cut
// algorithm (§3.2, Theorem 3): sample edges with exponentially growing
// probabilities and test connectivity of each sample with the fast
// connectivity algorithm, leveraging Karger's sampling theorem — a graph
// with edge connectivity λ sampled at rate p stays connected w.h.p. while
// p·λ = Ω(log n), so the sampling rate at which samples start to
// disconnect locates λ up to an O(log n) factor.
//
// Edge sampling needs no coordination: machines keep an edge iff a shared
// hash of (trial, edge ID) clears the level's threshold, exactly like the
// sketch subsampling levels.
package mincut

import (
	"math"

	"kmgraph/internal/hashing"
	"kmgraph/internal/kmachine"
)

// Result is the outcome of a min-cut approximation.
type Result struct {
	// Estimate is the O(log n)-approximation of the edge connectivity λ.
	// Zero means the input graph is already disconnected.
	Estimate float64
	// Level is the first sampling level i (rate 2^-i) whose samples
	// disconnected; -1 if the input itself is disconnected.
	Level int
	// Runs is the number of connectivity executions performed.
	Runs int
	// Rounds is the total k-machine rounds across all executions.
	Rounds int
	// Metrics aggregates bits/messages across all executions.
	Metrics kmachine.Metrics
}

// Sampled reports whether the edge with the given ID survives a trial's
// sampling: a shared hash of (trial seed, edge ID) clears the level's
// threshold. Every host filters with exactly this predicate.
func Sampled(tseed, threshold, edgeID uint64) bool {
	return hashing.Hash2(tseed, edgeID) < threshold
}

// Runner executes one connectivity run of the level search and returns
// its component count. Level 0 is the graph itself; at level >= 1 the run
// sees only the edges Sampled(tseed, threshold, ·) keeps.
type Runner func(level, trial int, tseed, threshold uint64) (components int, err error)

// Search is the Theorem 3 level search over an n-vertex graph, as a driver
// over the host's connectivity runner: trials samples per level (0 => 3)
// at rates 2^-1 … 2^-maxLevel (0 => 40), stopping at the first level where
// a majority of samples disconnect. It fills Estimate, Level and Runs;
// the host accounts Rounds and Metrics.
func Search(n int, seed int64, trials, maxLevel int, run Runner) (*Result, error) {
	if trials == 0 {
		trials = 3
	}
	if maxLevel == 0 {
		maxLevel = 40
	}
	res := &Result{}
	runConn := func(level, trial int, tseed, threshold uint64) (int, error) {
		cc, err := run(level, trial, tseed, threshold)
		if err == nil {
			res.Runs++
		}
		return cc, err
	}

	// Level 0 (p = 1) is the input graph itself.
	base, err := runConn(0, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	if base > 1 && n > 0 {
		res.Level = -1
		res.Estimate = 0
		return res, nil
	}

	sampleSeed := hashing.Hash2(uint64(seed), 0x3c17)
	logn := math.Log(float64(n) + 2)
	for level := 1; level <= maxLevel; level++ {
		threshold := uint64(1) << uint(64-level)
		disconnected := 0
		for trial := 0; trial < trials; trial++ {
			tseed := hashing.Hash3(sampleSeed, uint64(level), uint64(trial))
			cc, err := runConn(level, trial, tseed, threshold)
			if err != nil {
				return nil, err
			}
			if cc > base {
				disconnected++
			}
		}
		if 2*disconnected >= trials {
			// Majority of samples at rate 2^-level disconnected:
			// λ ≈ 2^level · ln n up to an O(log n) factor.
			res.Level = level
			res.Estimate = math.Exp2(float64(level-1)) * logn / 2
			if res.Estimate < 1 {
				res.Estimate = 1
			}
			return res, nil
		}
	}
	// Never disconnected: λ exceeds every tested rate's threshold.
	res.Level = maxLevel + 1
	res.Estimate = math.Exp2(float64(maxLevel)) * logn / 2
	return res, nil
}
