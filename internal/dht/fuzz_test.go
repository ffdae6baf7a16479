package dht

// FuzzDHTLookup feeds arbitrary — including malformed — parameter
// combinations and adversarial key distributions (extreme Zipf
// exponents concentrate all lookups on a handful of keys) to the
// engine. Invalid parameters must be rejected by Validate (never
// panic), and any accepted configuration must run to completion
// deterministically with every conservation invariant intact.

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

func FuzzDHTLookup(f *testing.F) {
	f.Add(uint64(1), int16(64), int16(3), int16(16), int16(24), int16(20), 0.5, 0.05, 0.1, 0.05, 0.8, int32(500))
	f.Add(uint64(2), int16(2), int16(1), int16(0), int16(1), int16(1), 0.0, 0.0, 0.0, 0.0, 0.0, int32(500))
	f.Add(uint64(3), int16(-9), int16(0), int16(-2), int16(0), int16(0), -0.5, 1.5, 2.0, -1.0, -2.0, int32(500))
	f.Add(uint64(4), int16(100), int16(100), int16(64), int16(48), int16(12), 1.0, 1.0, 0.6, 0.3, 6.0, int32(500))
	// More items than a 16-bit library slot holds: wide arrays.
	f.Add(uint64(5), int16(64), int16(3), int16(16), int16(24), int16(20), 0.5, 0.05, 0.1, 0.05, 0.8, int32(70_000))

	f.Fuzz(func(t *testing.T, seed uint64, n, replicas, cacheSize, maxHops, lookups int16, cacheProb, seedCache, dead, loss, queryExp float64, items int32) {
		p := DefaultParams()
		p.Seed = seed
		p.NetworkSize = int(n)
		p.BaseReplicas = int(replicas)
		p.CacheSize = int(cacheSize)
		p.MaxHops = int(maxHops)
		p.NumLookups = int(lookups)
		p.CacheProb = cacheProb
		p.SeedCacheFraction = seedCache
		p.DeadFraction = dead
		p.LossProb = loss
		p.Content.QueryExp = queryExp
		// Keep accepted configurations small enough to run thousands of
		// fuzz iterations; rejection paths still see the raw values.
		if p.NetworkSize > 128 {
			p.NetworkSize = 128
		}
		if p.MaxHops > 48 {
			p.MaxHops = 48
		}
		if p.NumLookups > 24 {
			p.NumLookups = 24
		}
		// Either side of the libraries' 16-bit slot limit, and no further:
		// a universe costs a popularity table of its size.
		p.Content.NumItems = min(int(items), 1<<17)

		e, err := New(p)
		if err != nil {
			return // malformed params must be rejected, not panic
		}
		a, err := e.Run(context.Background())
		if err != nil {
			t.Fatalf("accepted params failed to run: %v", err)
		}
		b, err := Run(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			aj, _ := json.Marshal(a)
			bj, _ := json.Marshal(b)
			t.Fatalf("same params, different results:\n%s\n%s", aj, bj)
		}
		if a.Lookups != p.NumLookups || a.Satisfied+a.Unsatisfied != a.Lookups {
			t.Fatalf("lookup accounting broken: %+v", a)
		}
		if a.MessagesSent != a.MessagesDelivered+a.MessagesDropped {
			t.Fatalf("conservation violated: %+v", a)
		}
		if a.MaxHopsUsed > p.MaxHops {
			t.Fatalf("hop budget exceeded: used %d, budget %d", a.MaxHopsUsed, p.MaxHops)
		}
		if s := a.Satisfaction(); s < 0 || s > 1 {
			t.Fatalf("satisfaction %v outside [0,1]", s)
		}
	})
}
