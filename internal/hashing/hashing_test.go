package hashing

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"kmgraph/internal/field"
)

// polyFromSeed expands a seed into a d-wise independent polynomial.
func polyFromSeed(seed uint64, d int) *Poly {
	coeffs := make([]uint64, d)
	for i := range coeffs {
		coeffs[i] = field.Reduce(Hash2(seed, uint64(i)+0x5bd1e995))
	}
	return &Poly{coeffs: coeffs}
}

func TestMix64Bijective(t *testing.T) {
	// Spot-check injectivity on a window; a true collision in a bijection
	// is impossible, so any duplicate indicates a broken implementation.
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 100000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestRangeOfBounds(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		counts := make([]int, n)
		for i := 0; i < 10000; i++ {
			v := RangeOf(Hash2(42, uint64(i)), n)
			if v < 0 || v >= n {
				t.Fatalf("RangeOf out of bounds: %d for n=%d", v, n)
			}
			counts[v]++
		}
		// Loose uniformity: every cell within 5x of the expected mean
		// (only meaningful when expected count is large).
		if n <= 64 {
			want := 10000 / n
			for c, got := range counts {
				if got < want/5 || got > want*5 {
					t.Errorf("n=%d cell %d badly unbalanced: %d (want ~%d)", n, c, got, want)
				}
			}
		}
	}
	// The value is floor(h·n / 2^64) exactly, for any h and any n an int
	// holds: the one-instruction multiply against arbitrary precision.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		h, n := rng.Uint64(), int(rng.Uint64()>>(1+rng.Intn(63)))
		if i%64 == 0 {
			h = math.MaxUint64 - uint64(i/64)
		}
		want := new(big.Int).Mul(new(big.Int).SetUint64(h), big.NewInt(int64(n)))
		if got := RangeOf(h, n); !want.Rsh(want, 64).IsInt64() || int64(got) != want.Int64() {
			t.Fatalf("RangeOf(%#x, %d) = %d, want floor(h*n/2^64) = %v", h, n, got, want)
		}
	}
}

func TestRangeOfDegenerate(t *testing.T) {
	if RangeOf(12345, 0) != 0 || RangeOf(12345, -3) != 0 {
		t.Error("RangeOf with n<=0 should return 0")
	}
	if RangeOf(12345, 1) != 0 {
		t.Error("RangeOf with n=1 should return 0")
	}
}

func TestPolyMatchesFieldEval(t *testing.T) {
	p := polyFromSeed(7, 5)
	if p.Degree() != 5 {
		t.Fatalf("degree = %d", p.Degree())
	}
	for x := uint64(0); x < 100; x++ {
		got := p.Eval(x)
		want := field.PolyEval(p.coeffs, field.Reduce(x))
		if got != want {
			t.Fatalf("Eval(%d) = %d, want %d", x, got, want)
		}
		if got >= field.P {
			t.Fatalf("Eval(%d) = %d not canonical", x, got)
		}
	}
}

func TestPolyFromBits(t *testing.T) {
	bits := make([]byte, 8*3)
	for i := range bits {
		bits[i] = byte(i * 37)
	}
	p := NewPolyFromBits(bits, 3)
	if p == nil {
		t.Fatal("nil poly")
	}
	if p.Degree() != 3 {
		t.Fatalf("degree = %d", p.Degree())
	}
	// Deterministic in the bits.
	q := NewPolyFromBits(bits, 3)
	for x := uint64(0); x < 10; x++ {
		if p.Eval(x) != q.Eval(x) {
			t.Fatal("same bits should give same polynomial")
		}
	}
	// Too few bits.
	if NewPolyFromBits(bits[:16], 3) != nil {
		t.Error("expected nil for insufficient bits")
	}
}

func TestPolyPairwiseIndependenceStatistical(t *testing.T) {
	// For a 2-wise independent family, Pr[h(x)=h(y) mod n] ~ 1/n over the
	// seed choice. Estimate the collision rate over many random seeds.
	const n = 16
	const trials = 20000
	coll := 0
	for s := 0; s < trials; s++ {
		p := polyFromSeed(uint64(s)*2654435761, 2)
		if RangeOf(p.Eval(1)<<3, n) == RangeOf(p.Eval(2)<<3, n) {
			coll++
		}
	}
	rate := float64(coll) / trials
	if math.Abs(rate-1.0/n) > 0.02 {
		t.Errorf("pairwise collision rate = %.4f, want ~%.4f", rate, 1.0/n)
	}
}

func TestPolyConstantDegreeOne(t *testing.T) {
	// d=1 gives a constant function (0-degree polynomial).
	p := polyFromSeed(99, 1)
	v := p.Eval(0)
	for x := uint64(1); x < 50; x++ {
		if p.Eval(x) != v {
			t.Fatal("degree-1 poly should be constant")
		}
	}
}

func TestTrailingZerosGeometric(t *testing.T) {
	// Pr[TZ >= l] should be about 2^-l.
	const N = 200000
	counts := make([]int, 12)
	for i := 0; i < N; i++ {
		tz := TrailingZeros(1234, uint64(i))
		for l := 0; l < len(counts) && l <= tz; l++ {
			counts[l]++
		}
	}
	for l := 0; l < 8; l++ {
		got := float64(counts[l]) / N
		want := math.Pow(2, -float64(l))
		if got < want*0.8 || got > want*1.2 {
			t.Errorf("Pr[TZ>=%d] = %.4f, want ~%.4f", l, got, want)
		}
	}
}

func TestHashFamilySeparation(t *testing.T) {
	// Different arities with overlapping inputs should not trivially agree.
	a := Hash2(1, 2)
	b := Hash3(1, 2, 0)
	c := Hash4(1, 2, 0, 0)
	if a == b || b == c || a == c {
		t.Error("hash arities should be domain-separated")
	}
}

func BenchmarkMix64(b *testing.B) {
	var s uint64
	for i := 0; i < b.N; i++ {
		s = Mix64(s ^ uint64(i))
	}
	_ = s
}

func BenchmarkPolyEvalD8(b *testing.B) {
	p := polyFromSeed(1, 8)
	for i := 0; i < b.N; i++ {
		p.Eval(uint64(i))
	}
}
