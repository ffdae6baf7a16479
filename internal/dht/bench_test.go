package dht

import (
	"context"
	"fmt"
	"testing"
)

// familiesParams is the shape the end-to-end benchmark's families
// workload runs (bench/families.go).
func familiesParams() Params {
	p := DefaultParams()
	p.NetworkSize, p.NumLookups = 2000, 200_000
	return p
}

func benchRun(b *testing.B, p Params) {
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
		if res.Lookups != p.NumLookups {
			b.Fatalf("completed %d lookups of %d", res.Lookups, p.NumLookups)
		}
	}
}

// BenchmarkRun is Engine.Run at the families shape; construction is
// outside the timer.
func BenchmarkRun(b *testing.B) { benchRun(b, familiesParams()) }

// BenchmarkRunCacheSize prices the replica cache's linear scan as the
// cache grows past any size a spec uses (see Engine.caches).
func BenchmarkRunCacheSize(b *testing.B) {
	for _, size := range []int{16, 64, 256} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			p := familiesParams()
			p.CacheSize = size
			benchRun(b, p)
		})
	}
}
