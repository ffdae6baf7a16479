package eventq

import (
	"math/rand"
	"testing"
)

// TestShardedMatchesQueue is the merge rule's contract: for any
// interleaving of pushes and pops, a Sharded queue (any shard count,
// any shard assignment) must pop exactly the sequence a single Queue
// pops, because both order on (time, global push order).
func TestShardedMatchesQueue(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 8, 16} {
		rng := rand.New(rand.NewSource(int64(shards) * 7919))
		var ref Queue[int]
		s := NewSharded[int](shards)
		live := 0
		for step := 0; step < 20000; step++ {
			if live == 0 || rng.Intn(3) != 0 {
				// Coarse times force heavy ties so the seq tie-break is
				// actually exercised.
				tm := float64(rng.Intn(50))
				v := step
				ref.Push(tm, v)
				s.Push(rng.Intn(shards), tm, v)
				live++
			} else {
				wt, wv, wok := ref.Pop()
				gt, gv, gok := s.Pop()
				if wt != gt || wv != gv || wok != gok {
					t.Fatalf("shards=%d step=%d: sharded pop (%v,%v,%v) != queue pop (%v,%v,%v)",
						shards, step, gt, gv, gok, wt, wv, wok)
				}
				live--
			}
			if s.Len() != live {
				t.Fatalf("shards=%d: Len=%d, want %d", shards, s.Len(), live)
			}
		}
		for live > 0 {
			wt, wv, _ := ref.Pop()
			gt, gv, ok := s.Pop()
			if !ok || wt != gt || wv != gv {
				t.Fatalf("shards=%d drain: (%v,%v,%v) != (%v,%v,true)", shards, gt, gv, ok, wt, wv)
			}
			live--
		}
		if _, _, ok := s.Pop(); ok {
			t.Fatal("pop on drained sharded queue reported ok")
		}
	}
}

func TestShardedPeek(t *testing.T) {
	s := NewSharded[string](4)
	if _, _, ok := s.Peek(); ok {
		t.Fatal("Peek on empty sharded queue reported ok")
	}
	s.Push(3, 2.0, "later")
	s.Push(1, 1.0, "first")
	s.Push(0, 1.0, "tied-second")
	tm, v, ok := s.Peek()
	if !ok || tm != 1.0 || v != "first" {
		t.Fatalf("Peek = (%v, %q, %v)", tm, v, ok)
	}
	if s.Len() != 3 {
		t.Fatalf("Peek changed Len to %d", s.Len())
	}
}

func TestShardedPanicsOnBadShardCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSharded(0) did not panic")
		}
	}()
	NewSharded[int](0)
}

// TestResetBehavesLikeFresh pins the recycling contract shared by
// Queue and Sharded: after Reset, a reused queue must order
// same-time events exactly like a freshly constructed one (sequence
// counters rewound, no stale events).
func TestResetBehavesLikeFresh(t *testing.T) {
	script := func(push func(float64, int), pop func() (float64, int, bool)) []int {
		for i := 0; i < 100; i++ {
			push(float64(i%7), i)
		}
		var out []int
		for {
			_, v, ok := pop()
			if !ok {
				break
			}
			out = append(out, v)
		}
		return out
	}

	// Queue's script sends every third event through the FIFO.
	var q Queue[int]
	pushQ := func(tm float64, v int) {
		if v%3 == 0 {
			q.PushInOrder(tm, v)
		} else {
			q.Push(tm, v)
		}
	}
	fresh := script(pushQ, q.Pop)
	// Leftovers that Reset must drop, on the heap and in the FIFO.
	q.Push(99, -1)
	for i := 0; i < 5; i++ {
		q.PushInOrder(100, -1)
	}
	q.Reset()
	if q.Len() != 0 || q.first != 0 || q.n != 0 || q.seq != 0 {
		t.Fatalf("Queue after Reset: Len %d, FIFO first %d, n %d, seq %d", q.Len(), q.first, q.n, q.seq)
	}
	if got := script(pushQ, q.Pop); !equalInts(got, fresh) {
		t.Fatalf("Queue after Reset diverged:\n got %v\nwant %v", got, fresh)
	}

	s := NewSharded[int](4)
	pushS := func(tm float64, v int) { s.Push(v%4, tm, v) }
	freshS := script(pushS, s.Pop)
	s.Push(2, 99, -1)
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("sharded Len after Reset = %d", s.Len())
	}
	if got := script(pushS, s.Pop); !equalInts(got, freshS) {
		t.Fatalf("Sharded after Reset diverged:\n got %v\nwant %v", got, freshS)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
