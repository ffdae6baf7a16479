package eventq

import (
	"fmt"
	"testing"
)

// BenchmarkPushPopSteady measures the steady-state cost of the
// simulator's event scheduling: a warm queue holding churn/ping/probe
// events while pushes and pops interleave. After warmup the heap's
// backing array and the FIFO's ring are at capacity, so both legs
// should be allocation-free.
//
// "heap" sends every event through the heap. "fifo95" is the GUESS
// engine's mix: 4 096 events that stay on the heap at varied delays
// (pings, deaths, bursts) beside 1 024 re-pushed at one fixed delay
// through PushInOrder (probe steps), which make 95% of the pops.
func BenchmarkPushPopSteady(b *testing.B) {
	const depth = 1 << 12
	b.Run("heap", func(b *testing.B) {
		var q Queue[int]
		for i := 0; i < depth; i++ {
			q.Push(float64(i%977), i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t, v, ok := q.Pop()
			if !ok {
				b.Fatal("queue drained")
			}
			q.Push(t+float64(v%31)+1, v)
		}
	})
	b.Run("fifo95", func(b *testing.B) {
		// A heap event comes back after 50 to 100 time units and a
		// FIFO one after 1, so per unit 1 024 FIFO pops meet about 56
		// heap pops: 95% against 5%.
		const inOrder = 1 << 10
		var q Queue[int]
		for i := 0; i < depth; i++ {
			q.Push(float64(i%101), i)
		}
		for i := 0; i < inOrder; i++ {
			q.PushInOrder(float64(i)/inOrder, depth+i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t, v, ok := q.Pop()
			if !ok {
				b.Fatal("queue drained")
			}
			if v >= depth {
				q.PushInOrder(t+1, v)
			} else {
				q.Push(t+float64(v%51)+50, v)
			}
		}
	})
}

// BenchmarkQueueReset measures recycling a queue across simulated
// runs: fill the heap and the FIFO, drain, Reset, repeat. After the
// first iteration both backing arrays are at their high-water marks,
// so the steady state must be allocation-free — this is the contract
// that lets engines reuse one queue across runs instead of
// reallocating it.
func BenchmarkQueueReset(b *testing.B) {
	var q Queue[int]
	const batch = 1024
	fill := func() {
		for j := 0; j < batch; j++ {
			q.Push(float64((j*2654435761)%4093), j)
			q.PushInOrder(float64(j*4), j)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	fill() // reach the high-water mark before measuring
	q.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
		q.Reset()
	}
}

// BenchmarkShardedPushPopSteady is BenchmarkPushPopSteady over the
// sharded queue: same workload, events routed across shards, pops
// merged at the heads. Compares the per-event cost of the K-way merge
// plus smaller heaps against the single heap.
func BenchmarkShardedPushPopSteady(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			s := NewSharded[int](shards)
			const depth = 1 << 12
			for i := 0; i < depth; i++ {
				s.Push(i%shards, float64(i%977), i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t, v, ok := s.Pop()
				if !ok {
					b.Fatal("queue drained")
				}
				s.Push(v%shards, t+float64(v%31)+1, v)
			}
		})
	}
}

// BenchmarkPushDrain measures bulk scheduling followed by a full drain
// (the shape of engine startup and shutdown).
func BenchmarkPushDrain(b *testing.B) {
	var q Queue[int]
	const batch = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			q.Push(float64((j*2654435761)%4093), j)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
}
