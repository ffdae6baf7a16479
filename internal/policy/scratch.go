package policy

import (
	"repro/internal/cache"
	"repro/internal/simrng"
)

// Scratch holds reusable selection state so the hot-path variant of
// PickN runs with zero steady-state allocations. A simulation
// engine owns one Scratch and threads it through every pong build; the
// buffers grow to the high-water mark of the run and are then reused.
//
// The scratch-backed methods consume randomness in exactly the same
// order as the allocating reference function PickN, and for
// scored policies produce exactly the same indices in the same order —
// TestScratchMatchesReference locks both properties. That equivalence
// is what lets the simulator adopt Scratch without perturbing a single
// seeded run.
//
// Scratch is not safe for concurrent use. The zero value is ready to
// use.
type Scratch struct {
	// idx is the result buffer returned by PickN; valid until the next
	// call on this Scratch.
	idx []int

	// mark is a generation-stamped "already chosen" table indexed by
	// entry position: mark[i] == gen means position i is taken in the
	// current call. Bumping gen invalidates all marks in O(1), so no
	// per-call clearing (or allocation) is needed.
	mark []uint64
	gen  uint64

	// heap is the bounded min-heap used by the scored top-k: the worst
	// of the current best k sits at heap[0].
	heap []topkItem
}

// topkItem is one candidate in the bounded top-k heap.
type topkItem struct {
	score float64
	idx   int
}

// PickN is the scratch-backed equivalent of the package-level PickN:
// same selected indices in the same order, same RNG consumption, but
// the returned slice aliases the Scratch and is only valid until the
// next call. Callers must copy (or fully consume) the result before
// reusing sc.
func (sc *Scratch) PickN(r *simrng.RNG, sel Selection, entries []cache.Entry, n int) []int {
	if n <= 0 || len(entries) == 0 {
		return nil
	}
	if n > len(entries) {
		n = len(entries)
	}
	sc.idx = sc.idx[:0]
	if sel == SelRandom {
		return sc.pickRandom(r, len(entries), n)
	}
	return sc.pickTopK(sel, entries, n)
}

// SampleIndices draws up to k distinct indices in [0, n) via Floyd's
// sampling, consuming exactly the Intn sequence — and appending in
// exactly the order — of the classic map-based loop
//
//	chosen := make(map[int]bool, k)
//	for i := n - k; i < n; i++ { j := r.Intn(i+1); if chosen[j] { j = i }; ... }
//
// but with the Scratch's generation-stamped mark table instead of a
// per-call map, so it is allocation-free in the steady state. The
// returned slice aliases the Scratch and is valid until the next call.
// Simulation engines use it for population sampling (e.g. time-zero
// cache seeding), where the sampled universe is a peer slice rather
// than a cache entry slice; TestSampleIndicesMatchesReference pins the
// draw-order equivalence.
func (sc *Scratch) SampleIndices(r *simrng.RNG, n, k int) []int {
	sc.idx = sc.idx[:0]
	if k <= 0 || n <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	return sc.pickRandom(r, n, k)
}

// pickRandom runs Floyd's sampling exactly as the reference PickN does
// — the same Intn sequence and the same append order — but records
// "chosen" in the generation-stamped mark table instead of a per-call
// map.
func (sc *Scratch) pickRandom(r *simrng.RNG, numEntries, n int) []int {
	sc.stamp(numEntries)
	for i := numEntries - n; i < numEntries; i++ {
		j := r.Intn(i + 1)
		if sc.mark[j] == sc.gen {
			j = i
		}
		sc.mark[j] = sc.gen
		sc.idx = append(sc.idx, j)
	}
	return sc.idx
}

// pickTopK selects the n best entries under sel via a bounded min-heap
// — O(len·log n) instead of the reference's n full passes — and then
// orders the winners by (score desc, index asc), which is precisely the
// order the reference's repeated max-scans emit (ties always resolve to
// the lowest index first).
func (sc *Scratch) pickTopK(sel Selection, entries []cache.Entry, n int) []int {
	sc.heap = sc.heap[:0]
	for i, e := range entries {
		it := topkItem{score: sel.Score(e), idx: i}
		if len(sc.heap) < n {
			sc.heap = append(sc.heap, it)
			sc.siftUp(len(sc.heap) - 1)
			continue
		}
		if worseThan(it, sc.heap[0]) {
			continue
		}
		sc.heap[0] = it
		sc.siftDown(0)
	}
	// Pop ascending-badness into idx, then reverse to get best-first.
	for len(sc.heap) > 0 {
		sc.idx = append(sc.idx, sc.heap[0].idx)
		last := len(sc.heap) - 1
		sc.heap[0] = sc.heap[last]
		sc.heap = sc.heap[:last]
		if len(sc.heap) > 0 {
			sc.siftDown(0)
		}
	}
	for i, j := 0, len(sc.idx)-1; i < j; i, j = i+1, j-1 {
		sc.idx[i], sc.idx[j] = sc.idx[j], sc.idx[i]
	}
	return sc.idx
}

// worseThan is the heap's strict total order: a is worse than b when it
// scores lower, or scores equal with a higher index (the reference
// prefers low indices on ties).
func worseThan(a, b topkItem) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.idx > b.idx
}

// stamp sizes the mark table for n positions and starts a fresh
// generation. gen is a uint64 bumped once per call; it cannot wrap in
// any realistic run.
func (sc *Scratch) stamp(n int) {
	if cap(sc.mark) < n {
		sc.mark = make([]uint64, n)
	}
	sc.mark = sc.mark[:n]
	sc.gen++
}

func (sc *Scratch) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worseThan(sc.heap[i], sc.heap[parent]) {
			break
		}
		sc.heap[i], sc.heap[parent] = sc.heap[parent], sc.heap[i]
		i = parent
	}
}

func (sc *Scratch) siftDown(i int) {
	n := len(sc.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		worst := left
		if right := left + 1; right < n && worseThan(sc.heap[right], sc.heap[left]) {
			worst = right
		}
		if !worseThan(sc.heap[worst], sc.heap[i]) {
			return
		}
		sc.heap[i], sc.heap[worst] = sc.heap[worst], sc.heap[i]
		i = worst
	}
}
