// Package eventq implements the event queue at the heart of the
// discrete-event simulator: a binary min-heap keyed by virtual time,
// with one FIFO beside it for events that arrive already in time order.
//
// Determinism matters: the simulator must produce bit-identical results
// for a given seed, so ties cannot be broken by map iteration order or
// pointer values. Every event, on either side, receives a number from
// one monotonically increasing sequence, and events pop in (time, seq)
// order: by time, and among equal times in push order.
//
// The FIFO is for events scheduled at a fixed delay after a clock that
// never goes back, such as a GUESS query's next probe round. Such an
// event is never earlier than the one pushed before it, so appending to
// a ring keeps the FIFO sorted, and Pop takes whichever of the heap top
// and the FIFO head is first on (time, seq). The result is the order a
// heap alone would give, without a sift per event.
//
// Drain is the simulator's one event loop: each engine hands it the
// queue, its pre-drawn arrival times, if any, and a step function
// holding the engine's own switch over event kinds.
package eventq

import "context"

// Queue is a time-ordered event queue. The zero value is an empty queue
// ready for use. T is the event payload type.
//
// Queue is not safe for concurrent use; a simulation run is
// single-threaded by design (parallelism belongs across runs).
type Queue[T any] struct {
	heap []entry[T]
	// ring holds the FIFO's n entries from index first on, wrapping; its
	// length is zero or a power of two. The entries are in (time, seq)
	// order, which PushInOrder maintains.
	ring     []entry[T]
	first, n int
	seq      uint64
}

type entry[T any] struct {
	time float64
	seq  uint64
	v    T
}

// Len reports the number of pending events.
func (q *Queue[T]) Len() int { return len(q.heap) + q.n }

// Push schedules v at the given virtual time. Events pushed with equal
// times are dequeued in push order.
func (q *Queue[T]) Push(time float64, v T) {
	q.seq++
	q.heap = append(q.heap, entry[T]{time: time, seq: q.seq, v: v})
	q.up(len(q.heap) - 1)
}

// PushInOrder schedules v at the given virtual time, exactly as Push
// does, but appends it to the FIFO when time is no earlier than the
// FIFO's last event. That is constant work instead of a heap sift, so
// it suits a caller whose times never decrease from one call to the
// next. An earlier time goes on the heap, so the pop order is Push's
// for any sequence of calls.
func (q *Queue[T]) PushInOrder(time float64, v T) {
	mask := len(q.ring) - 1
	if q.n > 0 && time < q.ring[(q.first+q.n-1)&mask].time {
		q.Push(time, v)
		return
	}
	if q.n == len(q.ring) {
		q.grow()
		mask = len(q.ring) - 1
	}
	q.seq++
	q.ring[(q.first+q.n)&mask] = entry[T]{time: time, seq: q.seq, v: v}
	q.n++
}

// grow doubles the ring (to 16 entries from empty), moving the FIFO to
// its start.
func (q *Queue[T]) grow() {
	ring := make([]entry[T], max(16, 2*len(q.ring)))
	k := copy(ring, q.ring[q.first:])
	copy(ring[k:], q.ring[:q.first])
	q.ring, q.first = ring, 0
}

// fifoFirst reports whether the FIFO head is the earliest event: the
// FIFO holds one, and the heap is empty or its top orders after it.
func (q *Queue[T]) fifoFirst() bool {
	if q.n == 0 {
		return false
	}
	return len(q.heap) == 0 || q.ring[q.first].before(q.heap[0].time, q.heap[0].seq)
}

// Pop removes and returns the earliest event. ok is false when the
// queue is empty.
func (q *Queue[T]) Pop() (time float64, v T, ok bool) {
	if q.fifoFirst() {
		e := q.ring[q.first]
		q.ring[q.first] = entry[T]{} // release payload for GC
		q.first = (q.first + 1) & (len(q.ring) - 1)
		q.n--
		return e.time, e.v, true
	}
	if len(q.heap) == 0 {
		var zero T
		return 0, zero, false
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	var zero entry[T]
	q.heap[last] = zero // release payload for GC
	q.heap = q.heap[:last]
	if len(q.heap) > 0 {
		q.down(0)
	}
	return top.time, top.v, true
}

// Peek returns the earliest event without removing it. ok is false when
// the queue is empty.
func (q *Queue[T]) Peek() (time float64, v T, ok bool) {
	if q.fifoFirst() {
		return q.ring[q.first].time, q.ring[q.first].v, true
	}
	if len(q.heap) == 0 {
		var zero T
		return 0, zero, false
	}
	return q.heap[0].time, q.heap[0].v, true
}

// cancelCheckInterval is how many events Drain hands out between
// context checks: coarse enough to keep the check out of a run's
// profile, fine enough that a cancellation lands within a few
// microseconds of simulated work.
const cancelCheckInterval = 64

// Drain hands events to step in (time, seq) order until the queue and
// arrivals are both exhausted or step returns false. arrivals are
// ascending times, each handed out with the value arrival; one goes
// ahead of any queued event due at the same time or later, which is the
// order of a queue into which every arrival was pushed before the first
// pop, without the heap holding them. Events step pushes join the
// order.
//
// ctx is checked before the first event and once every
// cancelCheckInterval events after it; cancelled reports that Drain
// stopped because ctx was done. A nil ctx is never done.
func (q *Queue[T]) Drain(ctx context.Context, arrivals []float64, arrival T, step func(time float64, v T) bool) (cancelled bool) {
	next := 0
	for n := uint(0); ; n++ {
		if ctx != nil && n%cancelCheckInterval == 0 && ctx.Err() != nil {
			return true
		}
		if next < len(arrivals) {
			if head, _, pending := q.Peek(); !pending || arrivals[next] <= head {
				t := arrivals[next]
				next++
				if !step(t, arrival) {
					return false
				}
				continue
			}
		}
		t, v, ok := q.Pop()
		if !ok || !step(t, v) {
			return false
		}
	}
}

// Clear drops all pending events but keeps allocated capacity.
func (q *Queue[T]) Clear() {
	var zero entry[T]
	for i := range q.heap {
		q.heap[i] = zero
	}
	q.heap = q.heap[:0]
	clear(q.ring)
	q.first, q.n = 0, 0
}

// Reset returns the queue to its freshly-constructed state while
// keeping allocated capacity: all pending events are dropped and the
// sequence counter rewinds to zero, so a recycled queue orders
// same-time events exactly like a brand-new one. Engines that are
// reused across runs call Reset instead of allocating a new queue;
// BenchmarkQueueReset pins the zero-allocation guarantee.
func (q *Queue[T]) Reset() {
	q.Clear()
	q.seq = 0
}

// pushSeq schedules v with a caller-supplied sequence number. It is
// the building block of the sharded queue, which assigns one global
// sequence across all shards so the K-way merge reproduces exactly the
// single-queue total order. Callers must supply strictly increasing
// sequence numbers.
func (q *Queue[T]) pushSeq(time float64, seq uint64, v T) {
	q.heap = append(q.heap, entry[T]{time: time, seq: seq, v: v})
	q.up(len(q.heap) - 1)
}

// head returns the key of the heap's earliest event without removing
// it. Sharded's shards never use the FIFO, so for them that is the
// earliest event.
func (q *Queue[T]) head() (time float64, seq uint64, ok bool) {
	if len(q.heap) == 0 {
		return 0, 0, false
	}
	return q.heap[0].time, q.heap[0].seq, true
}

// before reports whether e orders ahead of the key (time, seq).
func (e *entry[T]) before(time float64, seq uint64) bool {
	if e.time != time {
		return e.time < time
	}
	return e.seq < seq
}

// up sifts the entry at i towards the root. It holds the moving entry
// and shifts parents down into the hole it leaves, storing it once at
// the end: one entry copy per level, not a swap's three.
func (q *Queue[T]) up(i int) {
	h := q.heap
	moving := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !moving.before(h[parent].time, h[parent].seq) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = moving
}

// down sifts the entry at i towards the leaves, the same way.
func (q *Queue[T]) down(i int) {
	h := q.heap
	n := len(h)
	moving := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && h[right].before(h[child].time, h[child].seq) {
			child = right
		}
		if !h[child].before(moving.time, moving.seq) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = moving
}
