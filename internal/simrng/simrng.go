// Package simrng provides a small, fast, deterministic random number
// generator for simulations.
//
// The generator is based on SplitMix64, which passes BigCrush and is
// trivially seedable. Unlike math/rand's global functions, every RNG here
// is an explicit value, so simulations are reproducible from a single
// seed, and independent components of a simulation can draw from named
// sub-streams (see Stream) without perturbing each other's sequences.
package simrng

import "math"

// RNG is a deterministic pseudo-random number generator.
//
// The zero value is a valid generator seeded with 0; prefer New so the
// seed is explicit.
//
// RNG is not safe for concurrent use; give each goroutine its own
// stream via Stream.
type RNG struct {
	state uint64
	seed  uint64 // original seed, used for stable Stream derivation

	// cached spare normal variate for NormFloat64 (polar method).
	hasSpare bool
	spare    float64
}

// New returns a generator seeded with seed. Two generators constructed
// with the same seed produce identical sequences.
func New(seed uint64) *RNG {
	return &RNG{state: seed, seed: seed}
}

// golden gamma used by SplitMix64 to advance the state.
const golden = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	return mix(r.state)
}

// mix is the SplitMix64 output function.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high-quality bits -> [0,1) with full float53 resolution.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64s fills dst with the next len(dst) values of Float64. The
// state is a counter, so the draws of a block do not wait for one
// another.
func (r *RNG) Float64s(dst []float64) {
	s := r.state
	for i := range dst {
		s += golden
		dst[i] = float64(mix(s)>>11) / (1 << 53)
	}
	r.state = s
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("simrng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed uint64 in [0, n). It panics
// if n == 0. It is modulo reduction with a rejection step that removes
// the bias: draws at or above the largest multiple of n that fits in 64
// bits are thrown away.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("simrng: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	for {
		v := r.Uint64()
		// The rejection threshold MaxUint64 - MaxUint64%n lies above
		// MaxUint64 - n, so only a draw in the top n values needs the
		// threshold (and its division) computed.
		if v <= math.MaxUint64-n || v < math.MaxUint64-math.MaxUint64%n {
			return v % n
		}
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1
// (mean 1). Scale by 1/rate for other rates.
func (r *RNG) ExpFloat64() float64 {
	// Inverse-CDF; 1-Float64() is in (0,1], so Log never sees 0.
	return -math.Log(1 - r.Float64())
}

// NormFloat64 returns a standard normally distributed float64
// (mean 0, stddev 1) using the Marsaglia polar method.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Stream derives an independent generator from r's original seed and a
// name. Derivation neither advances r nor depends on how many draws r
// has made, so adding a new named stream to a simulation never perturbs
// existing streams. Streams with distinct names are statistically
// independent.
func (r *RNG) Stream(name string) *RNG {
	return New(mix(r.seed ^ hashString(name)))
}

// hashString is FNV-1a, inlined to avoid a hash/fnv allocation on a hot
// derivation path.
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
