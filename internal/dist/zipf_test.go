package dist

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/simrng"
)

// TestZipfRankExact pins rankOf to the inversion it replaced: the
// binary search for min{k : cum[k] >= u}. Seeded runs, goldens and the
// benchmark's generated inputs depend on that value at every u, so the
// probes sit where a guided walk can go wrong: on every CDF value and
// every bucket edge j/n, one float either side of each, and at the ends
// of [0, 1).
func TestZipfRankExact(t *testing.T) {
	below1 := math.Nextafter(1, 0)
	for _, n := range []int{1, 2, 3, 7, 1000, 10000} {
		for _, s := range []float64{0, 0.5, 0.8, 1, 2} {
			z := MustZipf(n, s)
			check := func(u float64) {
				if u < 0 || u >= 1 {
					return
				}
				if got, want := z.rankOf(u), sort.SearchFloat64s(z.cum, u); got != want {
					t.Fatalf("n=%d s=%v: rankOf(%v) = %d, want %d", n, s, u, got, want)
				}
			}
			around := func(u float64) {
				check(math.Nextafter(u, 0))
				check(u)
				check(math.Nextafter(u, 2))
			}
			check(0)
			check(below1)
			for _, c := range z.cum {
				around(c)
			}
			for j := 0; j <= n; j++ {
				around(float64(j) / float64(n))
			}
			r := simrng.New(uint64(n)*31 + uint64(s*10))
			for i := 0; i < 1e6; i++ {
				check(r.Float64())
			}
		}
	}
}

// TestZipfRankBackwardGuard builds the CDF the Zipf tables happen not
// to produce: every value one float below a bucket edge j/n. For some j
// (9 of n=10, 1148 of n=10000) u*n then rounds up to j, the walk starts
// in the bucket after u's, and only the backward step returns the rank
// whose CDF value is u itself.
func TestZipfRankBackwardGuard(t *testing.T) {
	for _, n := range []int{10, 100, 10000} {
		cum := make([]float64, n)
		for k := range cum {
			cum[k] = math.Nextafter(float64(k+1)/float64(n), 0)
		}
		cum[n-1] = 1
		z := &Zipf{cum: cum, guide: cutPoints(cum)}
		stepsBack := 0
		for _, c := range cum[:n-1] {
			for _, u := range []float64{math.Nextafter(c, 0), c, math.Nextafter(c, 2)} {
				want := sort.SearchFloat64s(cum, u)
				if got := z.rankOf(u); got != want {
					t.Fatalf("n=%d: rankOf(%v) = %d, want %d", n, u, got, want)
				}
				if int(z.guide[int(u*float64(n))]) > want {
					stepsBack++
				}
			}
		}
		if stepsBack == 0 {
			t.Fatalf("n=%d: no probe started past its rank; the guard went untested", n)
		}
	}
}

func TestZipfRankDrawsOneFloat64(t *testing.T) {
	z := MustZipf(10000, 0.8)
	r, twin := simrng.New(11), simrng.New(11)
	for i := 0; i < 1000; i++ {
		z.Rank(r)
		twin.Float64()
		if *r != *twin {
			t.Fatalf("draw %d: Rank left the RNG at %+v, one Float64 leaves it at %+v", i, *r, *twin)
		}
	}
}

func TestZipfGuide(t *testing.T) {
	z := MustZipf(1000, 0.8)
	if len(z.guide) != z.N()+1 {
		t.Fatalf("guide has %d entries, want N+1 = %d", len(z.guide), z.N()+1)
	}
	for j, g := range z.guide {
		if want := sort.SearchFloat64s(z.cum, float64(j)/float64(z.N())); int(g) != want {
			t.Fatalf("guide[%d] = %d, want %d", j, g, want)
		}
	}
}

func BenchmarkZipfRank(b *testing.B) {
	for _, n := range []int{100, 10000, 1000000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			z := MustZipf(n, 0.8)
			r := simrng.New(1)
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += z.Rank(r)
			}
			benchSink = sink
		})
	}
}

func BenchmarkNewZipf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = MustZipf(10000, 0.8).N()
	}
}

var benchSink int
