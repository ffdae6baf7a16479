// Package stats provides the inequality measures the experiment
// harness uses for load-fairness analysis (Section 6.3 of the paper
// ranks per-peer loads; the Gini coefficient and top-share summarize
// the same distributions as single numbers).
package stats

import (
	"math"
	"sort"
)

// Gini returns the Gini coefficient of a non-negative load
// distribution: 0 for perfectly even, approaching 1 when one peer
// carries everything. An all-zero or empty distribution yields 0.
func Gini(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var cum, total float64
	for i, v := range sorted {
		cum += v * float64(i+1)
		total += v
	}
	if total == 0 {
		return 0
	}
	nf := float64(n)
	return (2*cum - (nf+1)*total) / (nf * total)
}

// TopShare returns the fraction of the total carried by the largest
// `fraction` of values (e.g. TopShare(loads, 0.01) = share of the
// busiest 1%). It returns 0 for empty or all-zero input.
func TopShare(values []float64, fraction float64) float64 {
	n := len(values)
	if n == 0 || fraction <= 0 {
		return 0
	}
	if fraction > 1 {
		fraction = 1
	}
	sorted := append([]float64(nil), values...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	k := int(math.Ceil(fraction * float64(n)))
	if k < 1 {
		k = 1
	}
	var top, total float64
	for i, v := range sorted {
		if i < k {
			top += v
		}
		total += v
	}
	if total == 0 {
		return 0
	}
	return top / total
}
