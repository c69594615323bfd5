package field

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

var bigP = new(big.Int).SetUint64(P)

func bigMod(x *big.Int) uint64 {
	return new(big.Int).Mod(x, bigP).Uint64()
}

func canon(x uint64) uint64 { return x % P }

func TestReduceCanonical(t *testing.T) {
	cases := []uint64{0, 1, P - 1, P, P + 1, 1 << 62, 1<<64 - 1, 2 * P, 3*P - 1}
	for _, x := range cases {
		got := Reduce(x)
		want := x % P
		if got != want {
			t.Errorf("Reduce(%d) = %d, want %d", x, got, want)
		}
		if got >= P {
			t.Errorf("Reduce(%d) = %d not canonical", x, got)
		}
	}
}

func TestReduceIdempotent(t *testing.T) {
	f := func(x uint64) bool {
		r := Reduce(x)
		return Reduce(r) == r && r < P
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddMatchesBig(t *testing.T) {
	f := func(a, b uint64) bool {
		a, b = canon(a), canon(b)
		want := bigMod(new(big.Int).Add(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)))
		return Add(a, b) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubMatchesBig(t *testing.T) {
	f := func(a, b uint64) bool {
		a, b = canon(a), canon(b)
		want := bigMod(new(big.Int).Sub(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)))
		return Sub(a, b) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulMatchesBig(t *testing.T) {
	f := func(a, b uint64) bool {
		a, b = canon(a), canon(b)
		want := bigMod(new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)))
		return Mul(a, b) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNeg(t *testing.T) {
	f := func(a uint64) bool {
		a = canon(a)
		return Add(a, Neg(a)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributivity(t *testing.T) {
	f := func(a, b, c uint64) bool {
		a, b, c = canon(a), canon(b), canon(c)
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAssociativityCommutativity(t *testing.T) {
	f := func(a, b, c uint64) bool {
		a, b, c = canon(a), canon(b), canon(c)
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) &&
			Mul(a, b) == Mul(b, a) &&
			Add(Add(a, b), c) == Add(a, Add(b, c)) &&
			Add(a, b) == Add(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a := canon(rng.Uint64())
		if a == 0 {
			continue
		}
		// Fermat's little theorem: a^(p-2) is a's inverse.
		if got := Mul(a, Pow(a, P-2)); got != 1 {
			t.Fatalf("a*a^(p-2) = %d for a=%d, want 1", got, a)
		}
	}
}

func TestPowMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		a := canon(rng.Uint64())
		e := rng.Uint64() % 10000
		want := bigMod(new(big.Int).Exp(new(big.Int).SetUint64(a), new(big.Int).SetUint64(e), bigP))
		if got := Pow(a, e); got != want {
			t.Fatalf("Pow(%d,%d) = %d, want %d", a, e, got, want)
		}
	}
}

func TestPowEdgeCases(t *testing.T) {
	if Pow(0, 0) != 1 {
		t.Error("Pow(0,0) should be 1 (empty product)")
	}
	if Pow(0, 5) != 0 {
		t.Error("Pow(0,5) should be 0")
	}
	if Pow(12345, 1) != 12345 {
		t.Error("Pow(a,1) should be a")
	}
}

func TestPolyEval(t *testing.T) {
	// p(x) = 3 + 2x + x^2 at x=5 -> 3 + 10 + 25 = 38.
	if got := PolyEval([]uint64{3, 2, 1}, 5); got != 38 {
		t.Errorf("PolyEval = %d, want 38", got)
	}
	// Empty polynomial is identically zero.
	if got := PolyEval(nil, 17); got != 0 {
		t.Errorf("PolyEval(nil) = %d, want 0", got)
	}
	// Constant polynomial.
	if got := PolyEval([]uint64{7}, 99); got != 7 {
		t.Errorf("PolyEval(const) = %d, want 7", got)
	}
}

func TestPolyEvalMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		d := 1 + rng.Intn(8)
		coeffs := make([]uint64, d)
		for i := range coeffs {
			coeffs[i] = canon(rng.Uint64())
		}
		x := canon(rng.Uint64())
		want := new(big.Int)
		bx := new(big.Int).SetUint64(x)
		for i := len(coeffs) - 1; i >= 0; i-- {
			want.Mul(want, bx)
			want.Add(want, new(big.Int).SetUint64(coeffs[i]))
			want.Mod(want, bigP)
		}
		if got := PolyEval(coeffs, x); got != want.Uint64() {
			t.Fatalf("PolyEval mismatch: got %d want %d", got, want.Uint64())
		}
	}
}

func BenchmarkMul(b *testing.B) {
	x, y := uint64(0x123456789abcdef)%P, uint64(0xfedcba987654321)%P
	var s uint64
	for i := 0; i < b.N; i++ {
		s = Mul(s^x, y)
	}
	_ = s
}

func BenchmarkPow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Pow(0x123456789abcdef%P, uint64(i))
	}
}
