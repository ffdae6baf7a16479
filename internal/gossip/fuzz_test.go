package gossip

// FuzzGossipParams feeds arbitrary — including malformed — parameter
// combinations to the engine. Invalid parameters must be rejected by
// Validate (never panic), and any accepted configuration must run to
// completion deterministically: two runs from the same params produce
// identical Results, every conservation invariant holds, and the run
// matches the per-peer reference round (reference_test.go) in Results,
// events and stream positions.

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

func FuzzGossipParams(f *testing.F) {
	f.Add(uint64(1), int16(60), int16(4), int16(2), int16(6), uint8(1), int16(20), 0.1, 0.05, 0.8, int32(500))
	f.Add(uint64(2), int16(2), int16(2), int16(1), int16(1), uint8(2), int16(1), 0.0, 0.0, 0.0, int32(500))
	f.Add(uint64(3), int16(-5), int16(0), int16(-1), int16(0), uint8(0), int16(0), -1.0, 2.0, -3.0, int32(500))
	f.Add(uint64(4), int16(100), int16(99), int16(30), int16(16), uint8(3), int16(10), 0.5, 0.5, 5.0, int32(500))
	// More items than a 16-bit library slot holds: wide arrays.
	f.Add(uint64(5), int16(60), int16(4), int16(2), int16(6), uint8(1), int16(20), 0.1, 0.05, 0.8, int32(70_000))

	f.Fuzz(func(t *testing.T, seed uint64, n, deg, fanout, rounds int16, mode uint8, queries int16, dead, loss, queryExp float64, items int32) {
		p := DefaultParams()
		p.Seed = seed
		p.NetworkSize = int(n)
		p.AvgDegree = int(deg)
		p.Fanout = int(fanout)
		p.MaxRounds = int(rounds)
		p.Mode = Mode(mode)
		p.NumQueries = int(queries)
		p.DeadFraction = dead
		p.LossProb = loss
		p.Content.QueryExp = queryExp
		// Keep accepted configurations small enough to run thousands of
		// fuzz iterations; rejection paths still see the raw values.
		if p.NetworkSize > 128 {
			p.NetworkSize = 128
		}
		if p.MaxRounds > 16 {
			p.MaxRounds = 16
		}
		if p.NumQueries > 24 {
			p.NumQueries = 24
		}
		if p.Fanout > 32 {
			p.Fanout = 32
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
		if a.Queries != p.NumQueries || a.Satisfied+a.Unsatisfied != a.Queries {
			t.Fatalf("query accounting broken: %+v", a)
		}
		if diff, err := diffPerPeer(p); err != nil || diff != "" {
			t.Fatalf("against the per-peer reference round: %s (error %v)", diff, err)
		}
		if a.MessagesSent != a.MessagesDelivered+a.MessagesDropped {
			t.Fatalf("conservation violated: %+v", a)
		}
		if a.MaxRoundsUsed > p.MaxRounds {
			t.Fatalf("round budget exceeded: used %d, budget %d", a.MaxRoundsUsed, p.MaxRounds)
		}
		if s := a.Satisfaction(); s < 0 || s > 1 {
			t.Fatalf("satisfaction %v outside [0,1]", s)
		}
	})
}
