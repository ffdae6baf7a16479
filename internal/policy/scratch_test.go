package policy

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/simrng"
)

// randomEntries builds a cache snapshot with adversarial score
// structure: duplicated scores (tie-breaking), zeros, and a mix of
// Direct flags so MR* diverges from MR.
func randomEntries(r *simrng.RNG, n int) []cache.Entry {
	entries := make([]cache.Entry, n)
	for i := range entries {
		entries[i] = cache.Entry{
			Addr:     cache.PeerID(i + 1),
			TS:       float64(r.Intn(8)), // few distinct values => many ties
			NumFiles: int32(r.Intn(5)),
			NumRes:   int32(r.Intn(4)),
			Direct:   r.Bool(0.5),
		}
	}
	return entries
}

var allSelections = []Selection{SelRandom, SelMRU, SelLRU, SelMFS, SelMR, SelMRStar}

// TestScratchMatchesReference is the determinism contract of the
// allocation-free fast path: for every policy, cache size, and request
// size, Scratch.PickN must return exactly the indices the allocating
// reference PickN returns, in the same order, while consuming the RNG
// identically (verified by running both from identically seeded
// streams and comparing subsequent draws).
func TestScratchMatchesReference(t *testing.T) {
	for _, sel := range allSelections {
		for seed := uint64(1); seed <= 20; seed++ {
			gen := simrng.New(seed * 77)
			for _, size := range []int{0, 1, 2, 3, 5, 17, 64, 257} {
				entries := randomEntries(gen, size)
				for _, n := range []int{0, 1, 2, 5, size / 2, size, size + 3} {
					rRef := simrng.New(seed)
					rFast := simrng.New(seed)
					var sc Scratch
					ref := PickN(rRef, sel, entries, n)
					got := sc.PickN(rFast, sel, entries, n)
					if len(ref) != len(got) {
						t.Fatalf("%v size=%d n=%d: len %d != %d", sel, size, n, len(got), len(ref))
					}
					for i := range ref {
						if ref[i] != got[i] {
							t.Fatalf("%v size=%d n=%d: idx[%d] = %d, want %d\nref=%v\ngot=%v",
								sel, size, n, i, got[i], ref[i], ref, got)
						}
					}
					if a, b := rRef.Uint64(), rFast.Uint64(); a != b {
						t.Fatalf("%v size=%d n=%d: RNG diverged after call (%d vs %d)", sel, size, n, b, a)
					}
				}
			}
		}
	}
}

// TestScratchReuse verifies marks and buffers survive heavy reuse of a
// single Scratch across interleaved policies and sizes.
func TestScratchReuse(t *testing.T) {
	gen := simrng.New(99)
	var sc Scratch
	for round := 0; round < 500; round++ {
		sel := allSelections[round%len(allSelections)]
		entries := randomEntries(gen, 1+round%40)
		n := 1 + round%7
		seed := uint64(round + 1)
		ref := PickN(simrng.New(seed), sel, entries, n)
		got := sc.PickN(simrng.New(seed), sel, entries, n)
		if len(ref) != len(got) {
			t.Fatalf("round %d: len %d != %d", round, len(got), len(ref))
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("round %d (%v): got %v want %v", round, sel, got, ref)
			}
		}
	}
}

// TestScratchTopKExtremeScores exercises the heap with infinities and
// large magnitudes where comparison bugs would reorder winners.
func TestScratchTopKExtremeScores(t *testing.T) {
	entries := []cache.Entry{
		{Addr: 1, TS: math.Inf(1)},
		{Addr: 2, TS: -1e300},
		{Addr: 3, TS: math.Inf(-1)},
		{Addr: 4, TS: 1e300},
		{Addr: 5, TS: math.Inf(1)},
		{Addr: 6, TS: 0},
	}
	var sc Scratch
	for n := 1; n <= len(entries); n++ {
		ref := PickN(nil, SelMRU, entries, n)
		got := sc.PickN(nil, SelMRU, entries, n)
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("n=%d: got %v want %v", n, got, ref)
			}
		}
	}
}

// TestSelectorReset verifies a reused selector behaves exactly like a
// fresh one: same emission order, same RNG consumption, whether or not
// Shed took its buffers in between.
func TestSelectorReset(t *testing.T) {
	gen := simrng.New(123)
	for _, sel := range allSelections {
		reused := NewSelector(sel, nil)
		for trial := 0; trial < 20; trial++ {
			entries := randomEntries(gen, 1+trial%25)
			seed := uint64(trial + 1)
			rFresh, rReused := simrng.New(seed), simrng.New(seed)
			fresh := NewSelector(sel, rFresh)
			reused.Reset(sel, rReused)
			for _, e := range entries {
				fresh.Add(e)
				reused.Add(e)
			}
			if fresh.Len() != reused.Len() {
				t.Fatalf("%v trial %d: Len %d != %d", sel, trial, reused.Len(), fresh.Len())
			}
			for {
				a, okA := fresh.Next()
				b, okB := reused.Next()
				if okA != okB {
					t.Fatalf("%v trial %d: exhaustion mismatch", sel, trial)
				}
				if !okA {
					break
				}
				if a != b {
					t.Fatalf("%v trial %d: entry %+v != %+v", sel, trial, b, a)
				}
			}
			// Shed between trials: a buffer grown past the bound goes, one
			// within it stays, and either way the next trial must match a
			// fresh selector.
			const bound = 12
			pool, heap := cap(reused.pool), cap(reused.heap)
			reused.Shed(bound)
			for _, c := range [][2]int{{pool, cap(reused.pool)}, {heap, cap(reused.heap)}} {
				if before, after := c[0], c[1]; before > bound && after != 0 || before <= bound && after != before {
					t.Fatalf("%v trial %d: Shed(%d) took a buffer of %d entries to %d", sel, trial, bound, before, after)
				}
			}
		}
	}
}

// TestSampleIndicesMatchesReference pins SampleIndices to the map-based
// Floyd loop it replaces (the engine's former samplePeers body): same
// indices in the same order, same RNG consumption, for every (n, k).
func TestSampleIndicesMatchesReference(t *testing.T) {
	reference := func(r *simrng.RNG, n, k int) []int {
		if k > n {
			k = n
		}
		chosen := make(map[int]bool, k)
		out := make([]int, 0, k)
		for i := n - k; i < n; i++ {
			j := r.Intn(i + 1)
			if chosen[j] {
				j = i
			}
			chosen[j] = true
			out = append(out, j)
		}
		return out
	}
	var sc Scratch
	for seed := uint64(1); seed <= 20; seed++ {
		for _, n := range []int{1, 2, 3, 10, 64, 500} {
			for _, k := range []int{0, 1, 2, n / 2, n - 1, n, n + 7} {
				rRef := simrng.New(seed * 13)
				rFast := simrng.New(seed * 13)
				ref := reference(rRef, n, k)
				got := sc.SampleIndices(rFast, n, k)
				if len(ref) != len(got) {
					t.Fatalf("n=%d k=%d: len %d != %d", n, k, len(got), len(ref))
				}
				for i := range ref {
					if ref[i] != got[i] {
						t.Fatalf("n=%d k=%d: idx[%d] = %d, want %d", n, k, i, got[i], ref[i])
					}
				}
				if a, b := rRef.Uint64(), rFast.Uint64(); a != b {
					t.Fatalf("n=%d k=%d: RNG diverged after call", n, k)
				}
				seen := make(map[int]bool, len(got))
				for _, j := range got {
					if j < 0 || j >= n || seen[j] {
						t.Fatalf("n=%d k=%d: invalid or duplicate index %d in %v", n, k, j, got)
					}
					seen[j] = true
				}
			}
		}
	}
}

// BenchmarkSampleIndices pins the zero-allocation guarantee of the
// population-sampling fast path.
func BenchmarkSampleIndices(b *testing.B) {
	r := simrng.New(1)
	var sc Scratch
	sc.SampleIndices(r, 1024, 16) // reach the high-water mark
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.SampleIndices(r, 1024, 16)
	}
}
