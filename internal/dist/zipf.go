package dist

import (
	"fmt"
	"math"
	"math/bits"

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
	cum []float64
	// guide cuts [0, 1) into M = len(guide) equal buckets, M the
	// smallest power of two >= N: guide[j] is the first rank whose CDF
	// reaches j/M. A power of two makes u*M exact, so u's bucket is
	// exactly int(u*M) and the walk for u starts at or before its rank.
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
	return &Zipf{cum: cum, guide: cutPoints(cum)}, nil
}

// cutPoints builds the guide table of an ascending CDF ending in 1, in
// one merge sweep: j/M and cum both ascend, and the final 1 stops k at
// the last rank.
func cutPoints(cum []float64) []int32 {
	guide := make([]int32, 1<<bits.Len(uint(len(cum)-1)))
	k := 0
	for j := range guide {
		for t := float64(j) / float64(len(guide)); cum[k] < t; {
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
func (z *Zipf) Rank(r *simrng.RNG) int { return rankOf(z.cum, z.guide, r.Float64()) }

// Ranks inverts a block of uniform draws: ranks[i] is the rank Rank
// returns for a Float64 equal to u[i]. The inversions do not depend on
// one another, so a block's table loads overlap where a loop that
// consumes each rank before drawing the next waits for every one.
func (z *Zipf) Ranks(ranks []int32, u []float64) {
	cum, guide := z.cum, z.guide
	ranks = ranks[:len(u)]
	for i, x := range u {
		ranks[i] = int32(rankOf(cum, guide, x))
	}
}

// rankOf inverts the CDF: it returns exactly min{k : cum[k] >= u} for
// every u in [0, 1). Seeded runs, goldens and generated benchmark
// inputs depend on that value. With j = int(u*M), j/M <= u holds
// exactly, so the walk from guide[j] never starts past the rank.
//
// Nearly every bucket holds at most two cut points, and which side of
// one a draw falls is a coin flip, so the first two steps are taken
// without a branch: for floats with a clear sign bit (u comes from
// Float64, never -0) x < y is the sign of the difference of their bit
// patterns.
func rankOf(cum []float64, guide []int32, u float64) int {
	k := int(guide[int(u*float64(len(guide)))])
	ub := math.Float64bits(u)
	k += int((math.Float64bits(cum[k]) - ub) >> 63)
	k += int((math.Float64bits(cum[k]) - ub) >> 63)
	for cum[k] < u {
		k++
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
