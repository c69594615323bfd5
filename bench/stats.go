package main

import (
	"fmt"
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs. With
// fewer than 100/(100-p) samples it is the maximum, which is how op_p99_s
// reads on the job workloads (eight inputs): the slowest input.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is the
// rule the acceptance spread is computed by. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles of xs as a share of their
// median; ok is false when it cannot be computed (fewer than two values or
// a zero median).
func spread(xs []float64) (share float64, ok bool) {
	if len(xs) < 2 {
		return 0, false
	}
	med := median(xs)
	if med == 0 {
		return 0, false
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med), true
}

// Verdicts of one compared cell (workload x metric).
const (
	verdictUnchanged  = "unchanged"
	verdictImproved   = "improved"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictChanged    = "fingerprint-changed"
)

// cell is one compared workload x metric pairing.
type cell struct {
	Workload, Metric, Unit string
	A, B                   float64 // medians of the two sets
	Worse                  float64 // share of A by which B is worse (negative: better)
	Bound                  float64
	Exact                  bool    // judged as a count that must repeat, not by Bound
	SpreadA, SpreadB       float64 // -1: unknown (a single run in the set)
	Verdict                string
}

// worseBy is the share of a by which b is worse, given the metric's
// direction. A metric that was zero can only be judged by sign.
func worseBy(a, b float64, better string) float64 {
	d := b - a
	if better == "higher" {
		d = -d
	}
	if a == 0 {
		switch {
		case d > 0:
			return math.Inf(1)
		case d < 0:
			return math.Inf(-1)
		}
		return 0
	}
	return d / math.Abs(a)
}

// judge compares the runs of one cell in two sets. An exact cell must be
// bit-identical (a moved fingerprint is a declared-algorithmic change, never
// noise). Otherwise the medians are compared under the metric's bound: worse
// by more than the bound is a regression whatever the spread, and a cell
// inside the bound is reported unresolved, not unchanged or improved, where
// either set's own spread is wider than the bound: such sets cannot tell.
func judge(spec metricSpec, exact bool, a, b []float64) cell {
	c := cell{Metric: spec.Name, Unit: spec.Unit, Bound: spec.Bound, Exact: exact,
		A: median(a), B: median(b), SpreadA: -1, SpreadB: -1}
	c.Worse = worseBy(c.A, c.B, spec.Better)
	if s, ok := spread(a); ok {
		c.SpreadA = s
	}
	if s, ok := spread(b); ok {
		c.SpreadB = s
	}
	switch {
	case exact:
		c.Verdict = verdictUnchanged
		if c.A != c.B || c.SpreadA > 0 || c.SpreadB > 0 {
			c.Verdict = verdictChanged
		}
	case c.Worse > spec.Bound:
		c.Verdict = verdictRegressed
	case c.SpreadA > spec.Bound || c.SpreadB > spec.Bound:
		c.Verdict = verdictUnresolved
	case c.Worse < -spec.Bound:
		c.Verdict = verdictImproved
	default:
		c.Verdict = verdictUnchanged
	}
	return c
}

func (c cell) String() string {
	sp := func(s float64) string {
		if s < 0 {
			return "   n/a"
		}
		return fmt.Sprintf("%5.1f%%", 100*s)
	}
	rule := fmt.Sprintf("bound %g%%", 100*c.Bound)
	if c.Exact {
		rule = "exact"
	}
	return fmt.Sprintf("%-12s %-28s %14.8g -> %-14.8g %-6s worse %+7.2f%% (%s) spread %s %s  %s",
		c.Workload, c.Metric, c.A, c.B, c.Unit, 100*c.Worse, rule, sp(c.SpreadA), sp(c.SpreadB), c.Verdict)
}
