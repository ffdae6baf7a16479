package policy

import (
	"repro/internal/cache"
	"repro/internal/simrng"
)

// Selector yields candidate addresses one at a time in policy order.
// It is the QueryProbe engine: a query feeds it the link-cache snapshot
// and every pong entry received, and pulls the next peer to probe.
//
// Scores are computed when a candidate is added, matching a real
// implementation (a querying peer orders candidates by the metadata it
// had when it learned of them), so a candidate is kept as no more than
// what it is ordered by: its address, and under a scored policy its
// score and arrival. SelRandom uses O(1) random extraction; scored
// policies use a max-heap with FIFO tie-breaking so runs are
// deterministic.
type Selector struct {
	sel Selection
	rng *simrng.RNG

	// random mode
	pool []cache.PeerID

	// scored mode
	heap []scoredAddr
	seq  uint32
}

// scoredAddr is a heap node, 16 bytes. seq counts the Adds since Reset:
// one query's candidates, each a distinct address, so fewer than 2^31.
type scoredAddr struct {
	score float64
	seq   uint32
	addr  cache.PeerID
}

// NewSelector returns a Selector for sel. rng is used by SelRandom and
// must not be nil for that policy.
func NewSelector(sel Selection, rng *simrng.RNG) *Selector {
	return &Selector{sel: sel, rng: rng}
}

// Reset returns s to its just-constructed state for the given policy
// while retaining the candidate buffers, so pooled selectors add
// candidates without reallocating. A reset selector behaves exactly
// like NewSelector(sel, rng).
func (s *Selector) Reset(sel Selection, rng *simrng.RNG) {
	s.sel = sel
	s.rng = rng
	s.pool = s.pool[:0]
	s.heap = s.heap[:0]
	s.seq = 0
}

// Shed drops a candidate buffer grown beyond max entries, so that a
// selector kept in a pool after one exhaustive query does not carry that
// query's footprint into every later one; the next Add allocates anew.
func (s *Selector) Shed(max int) {
	if cap(s.pool) > max {
		s.pool = nil
	}
	if cap(s.heap) > max {
		s.heap = nil
	}
}

// Len reports the number of pending candidates.
func (s *Selector) Len() int {
	if s.sel == SelRandom {
		return len(s.pool)
	}
	return len(s.heap)
}

// Add inserts a candidate. The caller is responsible for deduplication
// (see QueryCache).
func (s *Selector) Add(e cache.Entry) {
	if s.sel == SelRandom {
		s.pool = append(s.pool, e.Addr)
		return
	}
	s.seq++
	s.heap = append(s.heap, scoredAddr{score: s.sel.Score(e), seq: s.seq, addr: e.Addr})
	s.up(len(s.heap) - 1)
}

// Next removes the best pending candidate and returns its address.
func (s *Selector) Next() (cache.PeerID, bool) {
	if s.sel == SelRandom {
		n := len(s.pool)
		if n == 0 {
			return 0, false
		}
		i := s.rng.Intn(n)
		addr := s.pool[i]
		s.pool[i] = s.pool[n-1]
		s.pool = s.pool[:n-1]
		return addr, true
	}
	if len(s.heap) == 0 {
		return 0, false
	}
	top := s.heap[0].addr
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	if len(s.heap) > 0 {
		s.down(0)
	}
	return top, true
}

// better orders the heap: higher score first, then FIFO.
func (s *Selector) better(i, j int) bool {
	a, b := s.heap[i], s.heap[j]
	if a.score != b.score {
		return a.score > b.score
	}
	return a.seq < b.seq
}

func (s *Selector) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.better(i, parent) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *Selector) down(i int) {
	n := len(s.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		best := left
		if right := left + 1; right < n && s.better(right, left) {
			best = right
		}
		if !s.better(best, i) {
			return
		}
		s.heap[i], s.heap[best] = s.heap[best], s.heap[i]
		i = best
	}
}
