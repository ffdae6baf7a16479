package main

import (
	"math"
	"sort"
)

// median returns the middle value of vals (mean of the middle two for
// an even count), or 0 for an empty slice. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of an ascending slice: the smallest sample with at least p percent
// of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps 90/100*100 = 90.00000000000001 at rank 90.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// tailLadder is the percentiles tailPercentile chooses from, each with
// the share of the samples it leaves beyond it as 1/inv.
var tailLadder = []struct {
	p   float64
	inv int
}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10_000}, {99.999, 100_000}}

// tailPercentile returns the highest ladder percentile that still has
// at least ten samples beyond it, with its value. With fewer than
// twenty samples even the median is not resolved and it reports p=0.
func tailPercentile(sorted []float64) (p, value float64) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if beyond := len(sorted) / tailLadder[i].inv; beyond >= 10 {
			return tailLadder[i].p, sorted[len(sorted)-beyond-1]
		}
	}
	return 0, 0
}

// quartiles returns the first, second and third quartile of vals the
// way Python's statistics.quantiles(vals, n=4) does (the exclusive
// method), so spreads computed here match the ones the acceptance
// driver computes. Fewer than two values give that value three times.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
