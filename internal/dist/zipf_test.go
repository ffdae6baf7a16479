package dist

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/simrng"
)

// rankGrid calls check at every u where a guided walk can go wrong: on
// every CDF value and every bucket edge j/M of the guide, one float
// either side of each, and at the ends of [0, 1).
func rankGrid(z *Zipf, check func(u float64)) {
	around := func(u float64) {
		for _, v := range []float64{math.Nextafter(u, 0), u, math.Nextafter(u, 2)} {
			if v >= 0 && v < 1 {
				check(v)
			}
		}
	}
	around(0)
	around(1)
	for _, c := range z.cum {
		around(c)
	}
	m := len(z.guide)
	for j := 0; j <= m; j++ {
		around(float64(j) / float64(m))
	}
}

// TestZipfRankExact pins rankOf to the inversion it replaced: the
// binary search for min{k : cum[k] >= u}. Seeded runs, goldens and the
// benchmark's generated inputs depend on that value at every u. The
// block form is checked over the same grid, in blocks of every length
// up to 64.
func TestZipfRankExact(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 100, 1000, 1025, 10000} {
		for _, s := range []float64{0, 0.5, 0.8, 1, 2} {
			z := MustZipf(n, s)
			var us []float64
			check := func(u float64) {
				if got, want := rankOf(z.cum, z.guide, u), sort.SearchFloat64s(z.cum, u); got != want {
					t.Fatalf("n=%d s=%v: rankOf(%v) = %d, want %d", n, s, u, got, want)
				}
				us = append(us, u)
			}
			rankGrid(z, check)
			r := simrng.New(uint64(n)*31 + uint64(s*10))
			for i := 0; i < 1e6; i++ {
				check(r.Float64())
			}
			var ranks [64]int32
			for size := 0; len(us) > 0; size = (size + 1) % (len(ranks) + 1) {
				block := us[:min(size, len(us))]
				us = us[len(block):]
				z.Ranks(ranks[:len(block)], block)
				for i, u := range block {
					if want := rankOf(z.cum, z.guide, u); int(ranks[i]) != want {
						t.Fatalf("n=%d s=%v: Ranks gave %d for %v in a block of %d, rankOf %d",
							n, s, ranks[i], u, len(block), want)
					}
				}
			}
		}
	}
}

// TestZipfRankBackwardGuard builds the CDF the Zipf tables happen not
// to produce: every value one float below an edge j/n. Under the N+1
// guide u*n rounded up across those edges and a backward step had to
// repair the walk; a power-of-two bucket count leaves no rounding to
// repair, which this pins on the same CDFs and on their power-of-two
// twins (every value one float below a guide edge j/M).
func TestZipfRankBackwardGuard(t *testing.T) {
	for _, n := range []int{10, 100, 1024, 10000} {
		cum := make([]float64, n)
		for k := range cum {
			cum[k] = math.Nextafter(float64(k+1)/float64(n), 0)
		}
		cum[n-1] = 1
		z := &Zipf{cum: cum, guide: cutPoints(cum)}
		rankGrid(z, func(u float64) {
			if got, want := rankOf(z.cum, z.guide, u), sort.SearchFloat64s(cum, u); got != want {
				t.Fatalf("n=%d: rankOf(%v) = %d, want %d", n, u, got, want)
			}
		})
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
	for _, c := range [][2]int{{1, 1}, {2, 2}, {3, 4}, {1000, 1024}, {1024, 1024}, {1025, 2048}} {
		n, buckets := c[0], c[1]
		z := MustZipf(n, 0.8)
		if len(z.guide) != buckets {
			t.Fatalf("n=%d: guide has %d entries, want %d", n, len(z.guide), buckets)
		}
		for j, g := range z.guide {
			if want := sort.SearchFloat64s(z.cum, float64(j)/float64(buckets)); int(g) != want {
				t.Fatalf("n=%d: guide[%d] = %d, want %d", n, j, g, want)
			}
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
