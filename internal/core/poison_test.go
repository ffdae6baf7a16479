package core

// The poisoning runs are the only ones in which fakeAddrBase is live:
// fabricated addresses sit in link caches, query candidate sets and the
// sample scan. These tests pin what such a run computes to values
// recorded from the tree in which a PeerID was 64 bits wide and
// fabricated addresses started at 1<<40, and check that every
// fabricated address the run left behind is handled as one.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/policy"
)

// poisonRuns are the pinned configurations. The first two are the
// attacks at N=300; the third is the last point of the ext-detection
// experiment at quick scale (MFS everywhere, a fifth of the population
// fabricating, detection on), which also drives the provenance and
// blacklist maps keyed by PeerID.
var poisonRuns = []struct {
	name   string
	params func() Params
	// digest is runDigest of the run on the parent tree (64-bit PeerID,
	// fakeAddrBase 1<<40).
	digest string
	// fabricates says whether the run must leave fabricated addresses
	// behind: colluders with company advertise each other instead.
	fabricates bool
}{
	{
		name: "BadPongDead",
		params: func() Params {
			p := quickParams()
			p.NetworkSize = 300
			p.PercentBadPeers = 10
			p.BadPong = BadPongDead
			return p
		},
		digest:     "6de45e57589d34ff297b314244b0b855ee62ab00adade26df47d1dba70b82dac",
		fabricates: true,
	},
	{
		name: "BadPongBad",
		params: func() Params {
			p := quickParams()
			p.NetworkSize = 300
			p.PercentBadPeers = 10
			p.BadPong = BadPongBad
			return p
		},
		digest: "8edf43136c82d13e3a67ffa672d79ec650582db860633cb217e46d6ce41e7270",
	},
	{
		name: "ext-detection",
		params: func() Params {
			p := DefaultParams()
			p.Seed = 7
			p.NetworkSize = 400
			p.WarmupTime, p.MeasureTime = 200, 600
			p.QueryRate = 4 * DefaultParams().QueryRate
			p.QueryProbe = policy.SelMFS
			p.QueryPong = policy.SelMFS
			p.CacheReplacement = policy.EvLFS
			p.PercentBadPeers = 20
			p.BadPong = BadPongDead
			p.PoisonDetection = true
			return p
		},
		digest:     "6e92f579af2c51df077162399f9a59ac2b961b545af226b52cff4e85ed4963bc",
		fabricates: true,
	},
}

// runDigest hashes everything a seeded run reports that does not spell
// an address: the Results as JSON (floats in their shortest
// round-tripping form, so equal digests mean equal bits) and the CSV
// trace.
func runDigest(t *testing.T, res *Results, trace string) string {
	t.Helper()
	sum := sha256.Sum256([]byte(marshalResults(t, res) + "\n" + trace))
	return hex.EncodeToString(sum[:])
}

func TestPoisoningRunsMatchParentTree(t *testing.T) {
	for _, c := range poisonRuns {
		t.Run(c.name, func(t *testing.T) {
			p := c.params()
			var trace strings.Builder
			p.Trace = &trace
			e, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := runDigest(t, res, trace.String()); got != c.digest {
				t.Errorf("run digest %s, parent tree's %s\nResults: %s", got, c.digest, marshalResults(t, res))
			}

			// Every fabricated address left in a cache is in the
			// fabricated range, resolves to no slot and can be a query
			// candidate.
			var qc policy.QueryCache
			qc.Reset(policy.SelMFS, nil, 1)
			fabricated := 0
			for i := range e.ps.id {
				for _, entry := range e.ps.link[i].Entries() {
					if entry.Addr < 1 {
						t.Fatalf("slot %d caches address %d", i, entry.Addr)
					}
					if entry.Addr < fakeAddrBase {
						continue
					}
					fabricated++
					if entry.Addr >= e.nextFake {
						t.Fatalf("fabricated address %d outside [%d, %d)", entry.Addr, fakeAddrBase, e.nextFake)
					}
					if slot := e.ps.slotOf(entry.Addr); slot != -1 {
						t.Fatalf("fabricated address %d resolves to slot %d", entry.Addr, slot)
					}
					qc.Add(entry)
					if qc.Add(entry) {
						t.Fatalf("query cache forgot fabricated address %d", entry.Addr)
					}
				}
			}
			if (fabricated > 0) != c.fabricates || (e.nextFake > fakeAddrBase) != c.fabricates {
				t.Fatalf("%d fabricated entries cached, %d addresses fabricated; fabricates = %v",
					fabricated, e.nextFake-fakeAddrBase, c.fabricates)
			}
			// The fused scan and its reference count them dead alike.
			want := population(e).sample(true)
			if got := e.scanOverlay(true); got != want {
				t.Fatalf("scanOverlay = %+v, reference %+v", got, want)
			}
			if held, live := int(want.held), int(want.live); held-live < fabricated {
				t.Fatalf("%d entries held, %d live, yet %d fabricated", held, live, fabricated)
			}
		})
	}
}
