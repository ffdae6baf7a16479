package gnutella

import (
	"testing"

	"repro/internal/content"
	"repro/internal/simrng"
)

func pop(t *testing.T, n int) *Population {
	t.Helper()
	u := content.MustNew(content.DefaultParams())
	p, err := NewPopulation(u, n, simrng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPopulationValidation(t *testing.T) {
	u := content.MustNew(content.DefaultParams())
	if _, err := NewPopulation(u, 0, simrng.New(1)); err == nil {
		t.Fatal("empty population accepted")
	}
}

func TestFixedExtentCostIsExtent(t *testing.T) {
	p := pop(t, 500)
	r := simrng.New(2)
	for _, extent := range []int{1, 10, 100, 500} {
		res := p.FixedExtent(r, p.Universe().DrawQuery(r), extent, 1)
		if res.Probes != extent {
			t.Fatalf("extent %d cost %d probes", extent, res.Probes)
		}
	}
	// Extent larger than the population is clamped.
	if res := p.FixedExtent(r, 0, 9999, 1); res.Probes != 500 {
		t.Fatalf("oversized extent probed %d peers", res.Probes)
	}
	// Degenerate extent is raised to 1.
	if res := p.FixedExtent(r, 0, 0, 1); res.Probes != 1 {
		t.Fatalf("zero extent probed %d peers", res.Probes)
	}
}

func TestFixedExtentSatisfactionGrowsWithExtent(t *testing.T) {
	p := pop(t, 1000)
	r := simrng.New(3)
	rate := func(extent int) float64 {
		sat := 0
		const q = 400
		for i := 0; i < q; i++ {
			if p.FixedExtent(r, p.Universe().DrawQuery(r), extent, 1).Satisfied {
				sat++
			}
		}
		return float64(sat) / q
	}
	small, large := rate(5), rate(800)
	if large <= small {
		t.Fatalf("satisfaction did not grow with extent: %v -> %v", small, large)
	}
	if large < 0.8 {
		t.Fatalf("satisfaction at near-full extent only %v", large)
	}
}

func TestIterativeDeepeningStopsEarly(t *testing.T) {
	p := pop(t, 1000)
	r := simrng.New(4)
	batches := DefaultDeepeningBatches(1000)
	// A very popular item should usually be found in the first batch.
	popular := content.ItemID(0)
	res := p.IterativeDeepening(r, popular, batches, 1)
	if !res.Satisfied {
		t.Fatal("popular item not found")
	}
	if res.Probes > batches[0] {
		t.Fatalf("deepening did not stop after first batch: %d probes", res.Probes)
	}
	// A nonexistent item costs the full schedule.
	res = p.IterativeDeepening(r, content.NoItem, batches, 1)
	if res.Satisfied {
		t.Fatal("nonexistent item satisfied")
	}
	if res.Probes != 1000 {
		t.Fatalf("exhaustive deepening probed %d peers, want 1000", res.Probes)
	}
}

func TestIterativeDeepeningCheaperThanFixedFullExtent(t *testing.T) {
	p := pop(t, 1000)
	r := simrng.New(5)
	batches := DefaultDeepeningBatches(1000)
	const q = 500
	totalID, totalFixed := 0, 0
	for i := 0; i < q; i++ {
		item := p.Universe().DrawQuery(r)
		totalID += p.IterativeDeepening(r, item, batches, 1).Probes
		totalFixed += p.FixedExtent(r, item, 1000, 1).Probes
	}
	if totalID >= totalFixed {
		t.Fatalf("iterative deepening (%d probes) not cheaper than full fixed extent (%d)", totalID, totalFixed)
	}
}

func TestDefaultDeepeningBatchesSumToNetwork(t *testing.T) {
	for _, n := range []int{100, 1000, 5000} {
		sum := 0
		for _, b := range DefaultDeepeningBatches(n) {
			if b < 0 {
				t.Fatalf("negative batch for n=%d", n)
			}
			sum += b
		}
		if sum != n {
			t.Fatalf("batches for n=%d sum to %d", n, sum)
		}
	}
}

func TestNewRandomTopology(t *testing.T) {
	if _, err := NewRandom(simrng.New(1), 1, 2); err == nil {
		t.Fatal("tiny topology accepted")
	}
	if _, err := NewRandom(simrng.New(1), 10, 1); err == nil {
		t.Fatal("degree 1 accepted")
	}
	topo, err := NewRandom(simrng.New(1), 200, 6)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNodes() != 200 {
		t.Fatalf("NumNodes = %d", topo.NumNodes())
	}
	// Ring guarantees connectivity: full-TTL flood reaches everyone.
	stats, err := topo.Flood(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Reached) != 200 {
		t.Fatalf("flood reached %d/200 nodes", len(stats.Reached))
	}
	// Average degree close to requested.
	total := 0
	for v := 0; v < 200; v++ {
		total += topo.Degree(v)
	}
	if avg := float64(total) / 200; avg < 4.5 || avg > 6.5 {
		t.Fatalf("average degree %v, want ~6", avg)
	}
}

func TestFloodTTLLimitsReach(t *testing.T) {
	topo, err := NewRandom(simrng.New(2), 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, ttl := range []int{0, 1, 2, 3} {
		stats, err := topo.Flood(5, ttl)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.Reached) < prev {
			t.Fatalf("reach shrank with larger TTL")
		}
		prev = len(stats.Reached)
	}
	if stats, _ := topo.Flood(5, 0); len(stats.Reached) != 1 || stats.Messages != 0 {
		t.Fatal("TTL 0 should reach only the origin with no messages")
	}
	if _, err := topo.Flood(-1, 2); err == nil {
		t.Fatal("bad origin accepted")
	}
	if _, err := topo.Flood(0, -1); err == nil {
		t.Fatal("negative TTL accepted")
	}
}

func TestFloodMessageAmplification(t *testing.T) {
	topo, err := NewRandom(simrng.New(3), 500, 6)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := topo.Flood(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Flooding sends more messages than peers reached — the
	// amplification the paper blames for Gnutella's DoS exposure.
	if stats.Messages <= len(stats.Reached) {
		t.Fatalf("no amplification: %d messages for %d peers", stats.Messages, len(stats.Reached))
	}
}

func TestFloodSearch(t *testing.T) {
	p := pop(t, 300)
	topo, err := NewRandom(simrng.New(4), 300, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := FloodSearch(topo, p, simrng.New(5), new(FloodScratch), 0, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes != len(stats.Reached) {
		t.Fatalf("probes %d != reached %d", res.Probes, len(stats.Reached))
	}
	// Size mismatch rejected.
	small := pop(t, 10)
	if _, _, err := FloodSearch(topo, small, simrng.New(6), new(FloodScratch), 0, 4, 1); err == nil {
		t.Fatal("size mismatch accepted")
	}
}
