package gossip

import (
	"context"
	"testing"
)

// BenchmarkRun is Engine.Run at the shape the end-to-end benchmark's
// families workload runs (bench/families.go); construction is outside
// the timer.
func BenchmarkRun(b *testing.B) {
	p := DefaultParams()
	p.NetworkSize, p.NumQueries = 2000, 4000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := New(p)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := e.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.Queries != p.NumQueries {
			b.Fatalf("completed %d queries of %d", res.Queries, p.NumQueries)
		}
	}
}
