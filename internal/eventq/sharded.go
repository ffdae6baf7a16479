package eventq

import "fmt"

// Sharded is a K-way sharded event queue: K independent binary heaps
// plus one global sequence counter. Callers route each event to a
// shard of their choosing and Pop merges the shard heads on the same
// (time, seq) key the single queue uses.
//
// Because the sequence counter is global — assigned at Push time, in
// push order, regardless of shard — the merged pop order is exactly
// the total order a single Queue would produce for the same pushes:
// sharding changes where events wait, never when they run.
// TestShardedMatchesQueue locks the equivalence.
//
// No simulator uses it: the simulation stack is single-goroutine and
// runs on Queue. Sharded is kept only for the
// eventq.sharded_pushpop_ns.100k bench probe, until ROADMAP item 1(a)
// deletes both.
//
// Sharded is not safe for concurrent use.
type Sharded[T any] struct {
	shards []Queue[T]
	seq    uint64
	size   int
}

// NewSharded returns an empty sharded queue with k shards. It panics
// if k < 1 — shard counts are validated configuration, so a bad value
// here is always a programming error.
func NewSharded[T any](k int) *Sharded[T] {
	if k < 1 {
		panic(fmt.Sprintf("eventq: NewSharded with %d shards", k))
	}
	return &Sharded[T]{shards: make([]Queue[T], k)}
}

// Shards returns the shard count.
func (s *Sharded[T]) Shards() int { return len(s.shards) }

// Len reports the number of pending events across all shards.
func (s *Sharded[T]) Len() int { return s.size }

// Push schedules v at the given virtual time on the given shard.
// Events pushed with equal times are dequeued in global push order,
// independent of their shards.
func (s *Sharded[T]) Push(shard int, time float64, v T) {
	s.seq++
	s.shards[shard].pushSeq(time, s.seq, v)
	s.size++
}

// Pop removes and returns the earliest event across all shards,
// breaking time ties by global push order. ok is false when every
// shard is empty.
func (s *Sharded[T]) Pop() (time float64, v T, ok bool) {
	best := -1
	var bestTime float64
	var bestSeq uint64
	for i := range s.shards {
		t, seq, ok := s.shards[i].head()
		if !ok {
			continue
		}
		if best < 0 || t < bestTime || (t == bestTime && seq < bestSeq) {
			best, bestTime, bestSeq = i, t, seq
		}
	}
	if best < 0 {
		var zero T
		return 0, zero, false
	}
	time, v, _ = s.shards[best].Pop()
	s.size--
	return time, v, true
}

// Peek returns the earliest event across all shards without removing
// it. ok is false when every shard is empty.
func (s *Sharded[T]) Peek() (time float64, v T, ok bool) {
	best := -1
	var bestTime float64
	var bestSeq uint64
	for i := range s.shards {
		t, seq, ok := s.shards[i].head()
		if !ok {
			continue
		}
		if best < 0 || t < bestTime || (t == bestTime && seq < bestSeq) {
			best, bestTime, bestSeq = i, t, seq
		}
	}
	if best < 0 {
		var zero T
		return 0, zero, false
	}
	return s.shards[best].Peek()
}

// Reset empties every shard and rewinds the global sequence counter,
// keeping all allocated heap capacity, so a recycled queue behaves
// exactly like a fresh NewSharded of the same shard count.
func (s *Sharded[T]) Reset() {
	for i := range s.shards {
		s.shards[i].Reset()
	}
	s.seq = 0
	s.size = 0
}
