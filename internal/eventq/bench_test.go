package eventq

import (
	"fmt"
	"testing"
)

// BenchmarkPushPopSteady measures the steady-state cost of the
// simulator's event scheduling: a warm queue holding churn/ping/probe
// events while pushes and pops interleave. After warmup the heap's
// backing array is at capacity, so the loop should be allocation-free.
func BenchmarkPushPopSteady(b *testing.B) {
	var q Queue[int]
	const depth = 1 << 12
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
}

// BenchmarkQueueReset measures recycling a queue across simulated
// runs: fill, drain, Reset, repeat. After the first iteration the
// backing array is at its high-water mark, so the steady state must be
// allocation-free — this is the contract that lets engines reuse one
// queue across runs instead of reallocating it.
func BenchmarkQueueReset(b *testing.B) {
	var q Queue[int]
	const batch = 1024
	fill := func() {
		for j := 0; j < batch; j++ {
			q.Push(float64((j*2654435761)%4093), j)
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
