package policy

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/simrng"
)

func benchEntries(n int) []cache.Entry {
	r := simrng.New(99)
	entries := make([]cache.Entry, n)
	for i := range entries {
		entries[i] = cache.Entry{
			Addr:   cache.PeerID(i + 1),
			TS:     float64(r.Intn(1000)),
			NumRes: int32(r.Intn(50)),
		}
	}
	return entries
}

// BenchmarkPickNReference measures the allocating package-level PickN
// (kept as the determinism oracle); contrast with BenchmarkScratchPickN
// to see what the scratch path saves.
func BenchmarkPickNReference(b *testing.B) {
	for _, sel := range []Selection{SelRandom, SelMFS} {
		b.Run(sel.String(), func(b *testing.B) {
			entries := benchEntries(128)
			r := simrng.New(7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := PickN(r, sel, entries, 10); len(got) != 10 {
					b.Fatal("short pick")
				}
			}
		})
	}
}

// BenchmarkScratchPickN measures the reusable-scratch selection used on
// the engine's hot path. Steady state must be allocation-free.
func BenchmarkScratchPickN(b *testing.B) {
	for _, sel := range []Selection{SelRandom, SelMFS} {
		b.Run(sel.String(), func(b *testing.B) {
			entries := benchEntries(128)
			r := simrng.New(7)
			var sc Scratch
			sc.PickN(r, sel, entries, 10) // prime the scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := sc.PickN(r, sel, entries, 10); len(got) != 10 {
					b.Fatal("short pick")
				}
			}
		})
	}
}

// BenchmarkInsert measures cache insertion under eviction pressure (the
// per-pong-entry write path).
func BenchmarkInsert(b *testing.B) {
	for _, ev := range []Eviction{EvRandom, EvLFS} {
		b.Run(ev.String(), func(b *testing.B) {
			c := cache.NewLinkCache(128)
			for _, e := range benchEntries(128) {
				c.Add(e)
			}
			r := simrng.New(7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Insert(r, ev, c, cache.Entry{Addr: cache.PeerID(100000 + i)})
			}
		})
	}
}

// BenchmarkSelector measures the incremental best-first candidate
// stream (Add/Next) that queries consume.
func BenchmarkSelector(b *testing.B) {
	entries := benchEntries(64)
	r := simrng.New(7)
	s := NewSelector(SelMFS, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset(SelMFS, r)
		for _, e := range entries {
			s.Add(e)
		}
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
	}
}

// BenchmarkQueryCacheInterleaved measures the query record in the shape
// the paper-default run (N=1000, 250+500 simulated s) drives it: 128
// queries in flight over 2 400 peer IDs, stepped round-robin, each step
// adding a 5-address pong and taking one Next, so a query comes back to
// its seen set only after 127 others have had theirs. A query starts
// from a 100-entry link-cache snapshot and is replaced by a fresh one
// after 72 probes (the run's mean) or when its candidates run out. One
// op is one step.
func BenchmarkQueryCacheInterleaved(b *testing.B) {
	const inFlight, ids, snapshot, pong, probes = 128, 2400, 100, 5, 72
	for _, sel := range []Selection{SelRandom, SelMFS} {
		b.Run(sel.String(), func(b *testing.B) {
			r := simrng.New(5)
			// The candidates come from a pre-drawn ring, so the RNG the
			// benchmark spends is the selector's alone.
			ring := make([]cache.Entry, 1<<16)
			for i := range ring {
				ring[i] = cache.Entry{Addr: cache.PeerID(r.Intn(ids) + 1), NumFiles: int32(r.Intn(200))}
			}
			next := 0
			draw := func() cache.Entry {
				next = (next + 1) % len(ring)
				return ring[next]
			}
			start := func(q *QueryCache) {
				q.Reset(sel, r, draw().Addr)
				q.Limit(1, probes)
				for range snapshot {
					q.Add(draw())
				}
			}
			queries := make([]QueryCache, inFlight)
			for i := range queries {
				start(&queries[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := &queries[i%inFlight]
				for range pong {
					q.Add(draw())
				}
				q.Next(nil)
				if _, done := q.Done(); done {
					start(q)
				}
			}
		})
	}
}
