package gnutella

import (
	"testing"

	"repro/internal/content"
	"repro/internal/simrng"
)

// BenchmarkFloodSearch is one flooded query at the shape the end-to-end
// benchmark's families workload runs (N=2000, degree 8, TTL 4, as
// experiments.DefaultFloodParams). The scratch and the holder index are
// warm, so the loop must not allocate.
func BenchmarkFloodSearch(b *testing.B) {
	const n, degree, ttl = 2000, 8, 4
	u := content.MustNew(content.DefaultParams())
	rng := simrng.New(1)
	topo, err := NewRandom(rng, n, degree)
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewPopulation(u, n, rng)
	if err != nil {
		b.Fatal(err)
	}
	var scratch FloodScratch
	// The first search builds the index, and a full-reach flood from
	// every origin grows each buffer to the largest it can be asked for.
	for origin := 0; origin < n; origin++ {
		if _, _, err := FloodSearch(topo, p, rng, &scratch, origin, n, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := FloodSearch(topo, p, rng, &scratch, rng.Intn(n), ttl, 1); err != nil {
			b.Fatal(err)
		}
	}
}
