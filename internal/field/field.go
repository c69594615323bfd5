// Package field implements arithmetic in the prime field GF(p) with
// p = 2^61 - 1 (a Mersenne prime).
//
// The field is the substrate for the fingerprints used by the one-sparse
// recovery test inside the l0-sampling sketches (paper §2.3, following
// Jowhari–Saglam–Tardos) and for the d-wise independent polynomial hash
// family used to select component proxy machines (paper §2.2).
//
// Elements are represented as uint64 values in the canonical range [0, p).
// All functions assume (and preserve) canonical representation unless noted.
package field

import "math/bits"

// P is the field modulus 2^61 - 1.
const P uint64 = (1 << 61) - 1

// Reduce maps an arbitrary uint64 into the canonical range [0, P).
func Reduce(x uint64) uint64 {
	// Fold the top bits using 2^61 ≡ 1 (mod p).
	x = (x & P) + (x >> 61)
	if x >= P {
		x -= P
	}
	return x
}

// reduce128 reduces a 128-bit value hi*2^64 + lo modulo P.
func reduce128(hi, lo uint64) uint64 {
	// Write the value in base 2^61: a0 + a1*2^61 + a2*2^122.
	a0 := lo & P
	a1 := (lo >> 61) | ((hi << 3) & P)
	a2 := hi >> 58
	s := a0 + a1 + a2 // < 3*2^61, fits in uint64
	s = (s & P) + (s >> 61)
	if s >= P {
		s -= P
	}
	return s
}

// Add returns a + b mod P. Inputs must be canonical.
func Add(a, b uint64) uint64 {
	s := a + b // a, b < 2^61, no overflow
	if s >= P {
		s -= P
	}
	return s
}

// Sub returns a - b mod P. Inputs must be canonical.
func Sub(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + P - b
}

// Neg returns -a mod P. Input must be canonical.
func Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return P - a
}

// Mul returns a * b mod P. Inputs must be canonical.
func Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return reduce128(hi, lo)
}

// Pow returns a^e mod P by binary exponentiation. a must be canonical.
func Pow(a, e uint64) uint64 {
	r := uint64(1)
	base := a
	for e > 0 {
		if e&1 == 1 {
			r = Mul(r, base)
		}
		base = Mul(base, base)
		e >>= 1
	}
	return r
}

// PolyEval evaluates the polynomial with the given coefficients
// (coeffs[i] is the coefficient of x^i) at point x, by Horner's rule.
// Coefficients and x must be canonical.
func PolyEval(coeffs []uint64, x uint64) uint64 {
	var acc uint64
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = Add(Mul(acc, x), coeffs[i])
	}
	return acc
}
