package eventq

import (
	"math/rand"
	"testing"
)

// op is one call of a queue script. For the two pushes, delta is the
// event's time relative to a base the script reads when the call runs:
// the FIFO's last time for PushInOrder (the clock when the FIFO is
// empty), the clock for Push. The clock is the time of the last event
// popped. Integer deltas make equal times common, on either side and
// across the two.
type op struct {
	kind  opKind
	delta int
}

type opKind uint8

const (
	opPush opKind = iota
	opPushInOrder
	opPop
	opPeek
	opReset
	numOpKinds
)

// scriptStats counts what a script exercised.
type scriptStats struct {
	fifo, fallback int // PushInOrder calls appended to the FIFO, and sent to the heap
	fifoPops       int // pops that took the FIFO head
}

// runScript plays ops on a queue whose PushInOrder calls are real and
// on a reference that sends every event to the heap, and fails at the
// first call whose result differs. Payloads are op indexes, so each
// event is told apart from every other.
func runScript(t testing.TB, ops []op) scriptStats {
	t.Helper()
	var q, ref Queue[int]
	var st scriptStats
	clock := 0.0
	for i, o := range ops {
		switch o.kind {
		case opPush:
			tm := clock + float64(o.delta)
			q.Push(tm, i)
			ref.Push(tm, i)
		case opPushInOrder:
			base := clock
			if q.n > 0 {
				base = q.ring[(q.first+q.n-1)&(len(q.ring)-1)].time
			}
			tm := base + float64(o.delta)
			before := q.n
			q.PushInOrder(tm, i)
			ref.Push(tm, i)
			if q.n > before {
				st.fifo++
			} else {
				st.fallback++
			}
		case opPop:
			fromFIFO := q.fifoFirst()
			tm, v, ok := q.Pop()
			rtm, rv, rok := ref.Pop()
			if tm != rtm || v != rv || ok != rok {
				t.Fatalf("op %d: Pop() = (%v, %d, %v), reference (%v, %d, %v)", i, tm, v, ok, rtm, rv, rok)
			}
			if ok {
				clock = tm
			}
			if fromFIFO {
				st.fifoPops++
			}
		case opPeek:
			tm, v, ok := q.Peek()
			rtm, rv, rok := ref.Peek()
			if tm != rtm || v != rv || ok != rok {
				t.Fatalf("op %d: Peek() = (%v, %d, %v), reference (%v, %d, %v)", i, tm, v, ok, rtm, rv, rok)
			}
		case opReset:
			q.Reset()
			ref.Reset()
			clock = 0
		}
		if q.Len() != ref.Len() {
			t.Fatalf("op %d: Len() = %d, reference %d", i, q.Len(), ref.Len())
		}
	}
	// Drain: whatever is left must come out in the reference's order.
	for q.Len() > 0 {
		tm, v, _ := q.Pop()
		rtm, rv, _ := ref.Pop()
		if tm != rtm || v != rv {
			t.Fatalf("drain: Pop() = (%v, %d), reference (%v, %d)", tm, v, rtm, rv)
		}
	}
	if _, _, ok := ref.Pop(); ok {
		t.Fatal("drain: queue empty before the reference")
	}
	return st
}

// randomScript draws n calls: pushes twice as often as pops, so the
// queue fills up, with about one PushInOrder in ten earlier than the
// FIFO's last event and an occasional Reset.
func randomScript(rng *rand.Rand, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		switch r := rng.Intn(100); {
		case r < 25:
			ops[i] = op{kind: opPush, delta: rng.Intn(8)}
		case r < 60:
			d := rng.Intn(3)
			if rng.Intn(10) == 0 {
				d = -1 - rng.Intn(3)
			}
			ops[i] = op{kind: opPushInOrder, delta: d}
		case r < 85:
			ops[i] = op{kind: opPop}
		case r < 99:
			ops[i] = op{kind: opPeek}
		default:
			ops[i] = op{kind: opReset}
		}
	}
	return ops
}

// TestPushInOrderMatchesHeap is the FIFO's contract: for any sequence
// of Push, PushInOrder, Pop, Peek and Reset calls, the queue returns
// what it would return if every event had gone to the heap.
func TestPushInOrderMatchesHeap(t *testing.T) {
	var total scriptStats
	for seed := int64(1); seed <= 50; seed++ {
		st := runScript(t, randomScript(rand.New(rand.NewSource(seed)), 2000))
		total.fifo += st.fifo
		total.fallback += st.fallback
		total.fifoPops += st.fifoPops
	}
	// The scripts must reach every branch they are meant to check.
	if total.fifo == 0 || total.fallback == 0 || total.fifoPops == 0 {
		t.Fatalf("scripts missed a branch: %+v", total)
	}
}

// FuzzQueueOps makes TestPushInOrderMatchesHeap's comparison on
// scripts decoded from fuzz input, one call per byte: the low three
// bits pick the call, the rest the time offset.
func FuzzQueueOps(f *testing.F) {
	f.Add([]byte{1, 1, 9, 0, 2, 2, 2})
	f.Add([]byte{0, 8, 1, 9, 17, 2, 3, 1, 2, 2, 2, 2})
	f.Add([]byte{1, 25, 1, 1, 2, 4, 1, 0, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]op, len(data))
		for i, b := range data {
			kind := opKind(b & 7)
			if kind >= numOpKinds {
				kind = opPop
			}
			// PushInOrder offsets run from -2 to 5, so about a quarter
			// of them are earlier than the FIFO's tail.
			delta := int(b>>3) % 8
			if kind == opPushInOrder {
				delta -= 2
			}
			ops[i] = op{kind: kind, delta: delta}
		}
		runScript(t, ops)
	})
}

// TestFIFOSlotsZeroed checks that the FIFO lets go of its payloads:
// a slot is zero once its event is popped, and every slot is zero, with
// the ring's start back at index 0, after Clear.
func TestFIFOSlotsZeroed(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 40; i++ {
		q.PushInOrder(float64(i), new(int))
	}
	for i := 0; i < 30; i++ {
		slot := q.first
		if _, v, ok := q.Pop(); !ok || v == nil {
			t.Fatalf("pop %d: got (%v, %v)", i, v, ok)
		}
		if q.ring[slot] != (entry[*int]{}) {
			t.Fatalf("pop %d: slot %d still holds %+v", i, slot, q.ring[slot])
		}
	}
	// Wrap the FIFO past the end of the ring, then clear it.
	for i := 40; i < 70; i++ {
		q.PushInOrder(float64(i), new(int))
	}
	if q.first+q.n <= len(q.ring) {
		t.Fatalf("FIFO did not wrap: first %d, n %d, ring %d", q.first, q.n, len(q.ring))
	}
	q.Clear()
	if q.first != 0 || q.n != 0 {
		t.Fatalf("after Clear: first %d, n %d", q.first, q.n)
	}
	for i, e := range q.ring {
		if e != (entry[*int]{}) {
			t.Fatalf("after Clear: slot %d holds %+v", i, e)
		}
	}
}
