package core

// The sample scan held to the reference engine's: populations that a
// run never reaches on its own (self entries, killed down to no peers)
// are loaded into a refEngine, whose separate passes must sample them
// as scanOverlay's fused one does, bit for bit.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cache"
)

// churned runs a short simulation and returns the engine as the run
// left it: a population several generations deep, its caches holding
// entries for the dead and, with malicious peers, fabricated addresses.
func churned(t *testing.T, n int, percentBad float64) *Engine {
	t.Helper()
	p := quickParams()
	p.NetworkSize = n
	p.LifespanMultiplier = 0.02
	p.WarmupTime, p.MeasureTime = 10, 30
	p.PercentBadPeers = percentBad
	p.BadPong = BadPongDead
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Deaths == 0 {
		t.Fatal("no churn; the caches hold no dead entries")
	}
	return e
}

// kill removes the peer in slot without a replacement, as handleDeath
// does before it spawns one.
func kill(e *Engine, slot int) {
	id := e.ps.id[slot]
	e.ps.byID[id] = -1
	e.ps.swapRemove(slot)
	for i, b := range e.bad {
		if b == id {
			e.bad[i] = e.bad[len(e.bad)-1]
			e.bad = e.bad[:len(e.bad)-1]
			break
		}
	}
}

func TestScanOverlayMatchesReference(t *testing.T) {
	for _, n := range []int{300, 3 * 2048} {
		for _, percentBad := range []float64{0, 10} {
			t.Run(fmt.Sprintf("n=%d/bad=%v", n, percentBad), func(t *testing.T) {
				e := churned(t, n, percentBad)
				var dead, fake, self int
				for i, id := range e.ps.id {
					if i%7 == 0 && !e.ps.link[i].Full() {
						e.ps.link[i].Add(cache.Entry{Addr: id})
					}
					for _, entry := range e.ps.link[i].Entries() {
						switch {
						case entry.Addr >= fakeAddrBase:
							fake++
						case entry.Addr == id:
							self++
						case e.ps.slotOf(entry.Addr) < 0:
							dead++
						}
					}
				}
				if dead == 0 || self == 0 || (fake > 0) != (percentBad > 0) || (len(e.bad) > 0) != (percentBad > 0) {
					t.Fatalf("population lacks a case: %d dead, %d fabricated, %d self entries, %d malicious peers",
						dead, fake, self, len(e.bad))
				}
				// Down to one peer and then none, the survivors' caches
				// pointing ever more at the dead.
				for _, keep := range []int{e.ps.len(), 1, 0} {
					for e.ps.len() > keep {
						kill(e, e.ps.len()/2)
					}
					ref := population(e)
					if got, want := e.scanOverlay(true), ref.sample(true); got != want {
						t.Fatalf("%d peers: scanOverlay = %+v, reference %+v", keep, got, want)
					}
					if got, want := e.scanOverlay(false), ref.sample(false); got != want {
						t.Fatalf("%d peers, no connectivity: scanOverlay = %+v, reference %+v", keep, got, want)
					}
				}
			})
		}
	}
	// A population nothing has died in yet: the connectivity sample of
	// the time-zero overlay equals the reference's scan over slots.
	t.Run("bootstrapped", func(t *testing.T) {
		e := newBootstrapped(t, func(p *Params) { p.NetworkSize = 3 * 2048 })
		if got, want := e.scanOverlay(true).largestWCC, population(e).sample(true).largestWCC; got != want {
			t.Fatalf("WCC=%d, reference=%d", got, want)
		}
	})
}
