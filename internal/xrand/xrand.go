// Package xrand implements the deterministic pseudo-random stream used to
// stand in for BeaconGNN's on-die true random number generator (TRNG).
//
// The paper's die-level sampler draws one random number per neighbor
// sample and reduces it with a modulo operation (Section V-A). For a
// reproducible simulation, each die's TRNG is a splitmix64-seeded
// xoshiro256** generator; the host-side reference sampler consumes the
// same stream, which lets tests verify that in-storage sampling produces
// exactly the subgraphs the reference implementation expects.
package xrand

import (
	"math"
	"math/bits"
)

// Source is a xoshiro256** PRNG. The zero value is invalid; use New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded via splitmix64 from the given seed, so any
// seed (including 0) yields a well-mixed state.
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// golden is SplitMix64's increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// SplitMix64 returns the SplitMix64 output for state x: x advanced by
// one increment, then put through the finalizer's avalanche mix. It is
// a pure bijection, so structured inputs (small sequence numbers,
// similar digests) still give uniformly distributed draws, and a draw
// keyed by its position does not depend on event order.
func SplitMix64(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Seed resets the generator state from seed: the first four outputs of
// a SplitMix64 stream started at seed.
func (r *Source) Seed(seed uint64) {
	for i := range r.s {
		r.s[i] = SplitMix64(seed)
		seed += golden
	}
	// xoshiro state must not be all zero; splitmix64 cannot produce
	// four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// charPoly holds the low 256 coefficients of the characteristic
// polynomial p(x) of the xoshiro256** state transition, a linear map over
// GF(2)^256; the x^256 term is implicit. Word i bit j is the coefficient
// of x^(64i+j). TestCharPolyDerived re-derives it by Berlekamp–Massey.
var charPoly = [4]uint64{0x9d116f2bb0f0f001, 0x0280002bcefd1a5e, 0x04b4edcf26259f85, 0x0003c03c3f3ecb19}

// Jump advances the stream by n draws, leaving it exactly where n calls
// of Uint64 would. Because p(T) = 0 for the transition T, T^n equals
// q(T) with q(x) = x^n mod p(x); Jump computes q by square-and-multiply
// and then applies it in 256 steps, so its cost grows with log n, not n.
func (r *Source) Jump(n uint64) {
	if n == 0 {
		return
	}
	// q = x^n mod p, left to right over the bits of n.
	q := [4]uint64{1}
	for i := bits.Len64(n) - 1; i >= 0; i-- {
		q = polySquareMod(q)
		if n>>uint(i)&1 != 0 {
			q = polyMulXMod(q)
		}
	}
	var acc [4]uint64
	for i := 0; i < 256; i++ {
		if q[i/64]>>(uint(i)%64)&1 != 0 {
			for k := range acc {
				acc[k] ^= r.s[k]
			}
		}
		r.Uint64()
	}
	r.s = acc
}

// polyMulXMod returns a·x mod p.
func polyMulXMod(a [4]uint64) [4]uint64 {
	top := a[3] >> 63
	a = [4]uint64{a[0] << 1, a[1]<<1 | a[0]>>63, a[2]<<1 | a[1]>>63, a[3]<<1 | a[2]>>63}
	if top != 0 {
		for k := range a {
			a[k] ^= charPoly[k]
		}
	}
	return a
}

// polySquareMod returns a² mod p. Squaring over GF(2) spreads the bits
// (a_i x^i becomes a_i x^2i); the high half is then folded back down
// one set bit at a time, each fold XORing in p shifted to that bit.
func polySquareMod(a [4]uint64) [4]uint64 {
	var w [8]uint64
	for k, v := range a {
		w[2*k] = spread32(uint32(v))
		w[2*k+1] = spread32(uint32(v >> 32))
	}
	for k := 7; k >= 4; k-- {
		for w[k] != 0 {
			b := 63 - bits.LeadingZeros64(w[k])
			w[k] &^= 1 << uint(b)
			// x^(64k+b) ≡ x^(64k+b-256)·(p − x^256).
			sh := 64*k + b - 256
			ws, bs := sh/64, uint(sh%64)
			for j, c := range charPoly {
				w[j+ws] ^= c << bs
				w[j+ws+1] ^= c >> (64 - bs) // 0 when bs == 0
			}
		}
	}
	return [4]uint64{w[0], w[1], w[2], w[3]}
}

// spread32 interleaves zeros into x: bit i moves to bit 2i.
func spread32(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// This is the TRNG-plus-modulo reduction the die sampler performs.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Fork returns a new independent Source derived from this one; streams of
// parent and child do not overlap in practice. Seeding a Source with
// r.Uint64() forks in place: that is how each flash die gets its own
// TRNG from one experiment seed.
func (r *Source) Fork() *Source { return New(r.Uint64()) }

// Zipf draws from a bounded Zipf distribution over [0, n) with exponent
// s > 0 (larger = more skew toward low indices), via inverse-transform
// on the approximate Zipf CDF F(k) ≈ (k+1)^(1−s)−... implemented with
// the standard rejection-free approximation for s ≠ 1:
//
//	k = ⌊ ((n^(1−s) − 1)·u + 1)^(1/(1−s)) ⌋ − 1-ish
//
// For s == 1 it falls back to the harmonic inverse. Used to model
// skewed (hot-node) GNN query workloads.
func (r *Source) Zipf(n int, s float64) int {
	if n <= 0 {
		panic("xrand: Zipf with non-positive n")
	}
	if n == 1 {
		return 0
	}
	u := r.Float64()
	if u <= 0 {
		u = 1e-12
	}
	var x float64
	if s == 1 {
		// F(k) ∝ ln(k+1): invert ln.
		x = math.Exp(u*math.Log(float64(n))) - 1
	} else {
		one := 1 - s
		x = math.Exp(math.Log(u*(math.Exp(one*math.Log(float64(n)))-1)+1)/one) - 1
	}
	k := int(x)
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}
