package dist

import (
	"fmt"
	"math"

	"repro/internal/simrng"
)

// Zipf draws ranks from a bounded Zipf (zeta) distribution over
// {0, 1, ..., N-1}: P(rank k) proportional to 1/(k+1)^S.
//
// It precomputes the cumulative mass function and a guide table over
// it (the cut-point method), so Rank is one table lookup and a step or
// two along the CDF whatever N is. This is the popularity law behind
// the content model: item popularity in file-sharing networks is well
// approximated by a Zipf distribution.
type Zipf struct {
	s   float64
	cum []float64
	// guide[j] is the first rank whose CDF reaches j/N, for j in [0, N]:
	// where the walk for a u in [j/N, (j+1)/N) starts.
	guide []int32
}

// NewZipf builds a bounded Zipf distribution over n ranks with exponent
// s >= 0. s == 0 degenerates to the uniform distribution.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n <= 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("dist: Zipf needs n in [1, %d], got %d", math.MaxInt32, n)
	}
	if s < 0 || math.IsNaN(s) {
		return nil, fmt.Errorf("dist: Zipf exponent must be >= 0, got %v", s)
	}
	cum := make([]float64, n)
	acc := 0.0
	for k := 0; k < n; k++ {
		acc += math.Pow(float64(k+1), -s)
		cum[k] = acc
	}
	inv := 1 / acc
	for k := range cum {
		cum[k] *= inv
	}
	cum[n-1] = 1
	return &Zipf{s: s, cum: cum, guide: cutPoints(cum)}, nil
}

// cutPoints builds the guide table of an ascending CDF ending in 1, in
// one merge sweep: j/n and cum both ascend, and the final 1 stops k at
// the last rank.
func cutPoints(cum []float64) []int32 {
	n := len(cum)
	guide := make([]int32, n+1)
	k := 0
	for j := range guide {
		for t := float64(j) / float64(n); cum[k] < t; {
			k++
		}
		guide[j] = int32(k)
	}
	return guide
}

// MustZipf is NewZipf but panics on invalid arguments.
func MustZipf(n int, s float64) *Zipf {
	z, err := NewZipf(n, s)
	if err != nil {
		panic(err)
	}
	return z
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cum) }

// Rank draws a rank in [0, N) from one Float64 of r.
func (z *Zipf) Rank(r *simrng.RNG) int { return z.rankOf(r.Float64()) }

// rankOf inverts the CDF: it returns exactly min{k : cum[k] >= u} for
// every u in [0, 1). Seeded runs, goldens and generated benchmark
// inputs depend on that value, so the guide table only chooses where
// the walk starts; the two loops make the result independent of it.
func (z *Zipf) rankOf(u float64) int {
	cum := z.cum
	k := int(z.guide[int(u*float64(len(cum)))])
	for cum[k] < u {
		k++
	}
	// u*N can round up across a bucket edge, starting the walk one
	// bucket late.
	for k > 0 && cum[k-1] >= u {
		k--
	}
	return k
}

// Prob returns the probability mass of rank k.
func (z *Zipf) Prob(k int) float64 {
	if k < 0 || k >= len(z.cum) {
		return 0
	}
	if k == 0 {
		return z.cum[0]
	}
	return z.cum[k] - z.cum[k-1]
}

// CDF returns the cumulative probability of ranks <= k.
func (z *Zipf) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= len(z.cum) {
		return 1
	}
	return z.cum[k]
}

// Sample implements Sampler by returning the drawn rank as a float64.
func (z *Zipf) Sample(r *simrng.RNG) float64 { return float64(z.Rank(r)) }

// Mean returns the expected rank.
func (z *Zipf) Mean() float64 {
	mean := 0.0
	for k := range z.cum {
		mean += float64(k) * z.Prob(k)
	}
	return mean
}

var _ Sampler = (*Zipf)(nil)
