// Package hashing provides the hash families used throughout the
// reproduction:
//
//   - Fast seeded mixers (SplitMix64 finalizers) used as shared pseudo-random
//     functions once a common seed has been distributed to all machines.
//     These stand in for the paper's shared random bit strings (§2.2); see
//     DESIGN.md substitution #2.
//   - A d-wise independent polynomial hash family over GF(2^61-1), the exact
//     construction the paper invokes via Alon–Babai–Itai [4] and
//     Alon et al. [5]: a degree-(d-1) polynomial with random coefficients
//     evaluated at the key. Both a seed-expanded and a raw-random-bits
//     constructor are provided; the latter is the faithful path fed by the
//     distributed-bits protocol.
package hashing

import (
	"math/bits"

	"kmgraph/internal/field"
)

// Mix64 is a strong 64-bit mixer (SplitMix64 finalizer). It is a bijection
// on uint64, so distinct inputs never collide before truncation.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash2 mixes a seed with one key.
func Hash2(seed, x uint64) uint64 {
	return Mix64(seed ^ Mix64(x))
}

// Hash3 mixes a seed with two keys.
func Hash3(seed, x, y uint64) uint64 {
	return Mix64(Hash2(seed, x) ^ Mix64(y^0xD1B54A32D192ED03))
}

// Hash4 mixes a seed with three keys.
func Hash4(seed, x, y, z uint64) uint64 {
	return Mix64(Hash3(seed, x, y) ^ Mix64(z^0x8CB92BA72F3D8DD7))
}

// RangeOf maps a hash value uniformly onto [0, n) using the fixed-point
// multiply technique (no modulo bias for n « 2^64).
func RangeOf(h uint64, n int) int {
	if n <= 0 {
		return 0
	}
	hi, _ := bits.Mul64(h, uint64(n))
	return int(hi)
}

// Poly is a d-wise independent hash function over GF(2^61-1): a random
// polynomial of degree d-1 evaluated at the key. Any d distinct keys hash
// to independently uniform values (over the choice of coefficients).
type Poly struct {
	coeffs []uint64 // canonical field elements; coeffs[i] multiplies x^i
}

// NewPolyFromBits builds a d-wise independent polynomial from raw shared
// random bits, consuming 8 bytes per coefficient. This is the faithful
// construction fed by the paper's random-bit distribution protocol (§2.2):
// d·O(log n) true random bits yield a d-wise independent function.
// It returns nil if fewer than 8*d bytes are supplied.
func NewPolyFromBits(bits []byte, d int) *Poly {
	if d < 1 || len(bits) < 8*d {
		return nil
	}
	coeffs := make([]uint64, d)
	for i := range coeffs {
		var x uint64
		for j := 0; j < 8; j++ {
			x = x<<8 | uint64(bits[8*i+j])
		}
		coeffs[i] = field.Reduce(x)
	}
	return &Poly{coeffs: coeffs}
}

// Degree returns d, the independence parameter.
func (p *Poly) Degree() int { return len(p.coeffs) }

// Eval hashes key to a field element in [0, 2^61-1).
func (p *Poly) Eval(key uint64) uint64 {
	return field.PolyEval(p.coeffs, field.Reduce(key))
}

// TrailingZeros returns the number of trailing zero bits of the hash of x
// under the given seed, capped at 63. Used by the sketch's geometric level
// assignment: Pr[level >= l] = 2^-l.
func TrailingZeros(seed, x uint64) int {
	h := Hash2(seed, x)
	if h == 0 {
		return 63
	}
	return bits.TrailingZeros64(h)
}
