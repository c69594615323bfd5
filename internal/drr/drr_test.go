package drr

import (
	"math"
	"math/rand"
	"testing"
)

func TestConnects(t *testing.T) {
	if !Connects(1, 2) {
		t.Error("lower rank should connect to higher")
	}
	if Connects(2, 1) || Connects(5, 5) {
		t.Error("higher or equal rank should not connect")
	}
}

func TestBuildForestBasic(t *testing.T) {
	// 0 -> 1 -> 2 chain of ranks 10 < 20 < 30: both connect.
	targets := map[uint64]uint64{0: 1, 1: 2, 2: 1}
	ranks := map[uint64]uint64{0: 10, 1: 20, 2: 30}
	parent := BuildForest(targets, ranks)
	if parent[0] != 1 || parent[1] != 2 {
		t.Errorf("parent = %v", parent)
	}
	if _, ok := parent[2]; ok {
		t.Error("2 has top rank, must be root")
	}
	if MaxDepth(parent) != 2 {
		t.Errorf("depth = %d", MaxDepth(parent))
	}
}

func TestForestIsAcyclic(t *testing.T) {
	// Ranks strictly increase along parent edges, so cycles are impossible
	// regardless of targets. Fuzz over random instances.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(200)
		targets := make(map[uint64]uint64, n)
		ranks := make(map[uint64]uint64, n)
		for c := 0; c < n; c++ {
			t := rng.Intn(n)
			if t == c {
				t = (t + 1) % n
			}
			targets[uint64(c)] = uint64(t)
			ranks[uint64(c)] = rng.Uint64()
		}
		parent := BuildForest(targets, ranks)
		if MaxDepth(parent) < 0 {
			t.Fatalf("trial %d: cycle detected", trial)
		}
		for c, p := range parent {
			if ranks[p] <= ranks[c] {
				t.Fatalf("trial %d: rank not increasing along edge", trial)
			}
		}
	}
}

func TestMaxDepthCycleDetection(t *testing.T) {
	parent := map[uint64]uint64{0: 1, 1: 0}
	if MaxDepth(parent) != -1 {
		t.Error("cycle should be reported as -1")
	}
}

func TestMaxDepthEmpty(t *testing.T) {
	if MaxDepth(nil) != 0 {
		t.Error("empty forest has depth 0")
	}
}

// TestLemma6DepthLogarithmic is the unit-scale version of experiment E3:
// the expected DRR path length is at most ln(n)+1 and the depth is
// O(log n) w.h.p. We check depth <= 6*log2(n+1) across many trials
// (the paper's Lemma 6 bound with its stated constant).
func TestLemma6DepthLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{16, 256, 4096, 65536} {
		bound := 6 * math.Log2(float64(n+1))
		worst := 0
		for trial := 0; trial < 20; trial++ {
			d := SimulateRoundDepth(n, rng)
			if d < 0 {
				t.Fatal("cycle")
			}
			if d > worst {
				worst = d
			}
		}
		if float64(worst) > bound {
			t.Errorf("n=%d: worst depth %d exceeds 6*log2(n+1)=%.1f", n, worst, bound)
		}
		if n >= 4096 && worst < 2 {
			t.Errorf("n=%d: depth %d suspiciously small", n, worst)
		}
	}
}

func TestSimulateDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if SimulateRoundDepth(0, rng) != 0 || SimulateRoundDepth(1, rng) != 0 {
		t.Error("degenerate sizes should have depth 0")
	}
}

func BenchmarkSimulate4096(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < b.N; i++ {
		SimulateRoundDepth(4096, rng)
	}
}
