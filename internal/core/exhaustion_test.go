package core

// Both ID counters live in a half of the positive int32 range. A run
// that uses one up must stop with an error naming the range, never wrap
// into a negative address or cross into the other half.

import (
	"context"
	"math"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/obs"
)

// TestEventLayout pins the queued event at 16 bytes (a 32-byte heap
// entry beside its time and sequence number): kind, a 32-bit peer and
// the query pointer.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 16 {
		t.Fatalf("event is %d bytes, want 16", got)
	}
}

// mustExhaust runs e and requires the error to name the exhausted range
// and no Results to come back.
func mustExhaust(t *testing.T, e *Engine, want string) {
	t.Helper()
	res, err := e.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run error = %v, want one naming %q", err, want)
	}
	if res != nil {
		t.Fatalf("Run returned Results beside the error: %+v", res)
	}
	for i := range e.ps.id {
		if e.ps.id[i] < 1 || e.ps.id[i] >= fakeAddrBase {
			t.Fatalf("slot %d has ID %d, outside [1, %d)", i, e.ps.id[i], fakeAddrBase)
		}
		for _, entry := range e.ps.link[i].Entries() {
			if entry.Addr < 1 {
				t.Fatalf("slot %d caches wrapped address %d", i, entry.Addr)
			}
		}
	}
}

func TestPeerIDExhaustionAtBootstrap(t *testing.T) {
	p := quickParams()
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.nextID = fakeAddrBase - 50
	mustExhaust(t, e, "peer IDs exhausted: every ID in [1, 1073741824)")
	if e.ps.len() != 50 || e.nextID != fakeAddrBase {
		t.Fatalf("%d peers born, nextID %d", e.ps.len(), e.nextID)
	}
}

// lastIDAtFirstDeath is an observer that uses up the real IDs the moment
// the first peer dies, so the replacement's birth is the one that fails.
type lastIDAtFirstDeath struct{ e *Engine }

func (o lastIDAtFirstDeath) Observe(ev obs.Event) {
	if ev.Kind == obs.EvPeerDeath {
		o.e.nextID = fakeAddrBase
	}
}

func TestPeerIDExhaustionAtDeath(t *testing.T) {
	p := quickParams()
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.SetObserver(lastIDAtFirstDeath{e})
	mustExhaust(t, e, "peer IDs exhausted")
	if e.res.Deaths != 1 || e.ps.len() != p.NetworkSize-1 {
		t.Fatalf("stopped after %d deaths with %d peers", e.res.Deaths, e.ps.len())
	}
}

func TestFabricatedAddressExhaustion(t *testing.T) {
	for _, behavior := range []BadPongBehavior{BadPongDead, BadPongBad} {
		p := quickParams()
		p.NetworkSize = 300
		p.BadPong = behavior
		// Ten in a hundred fabricate outright; one colluder in three
		// hundred has nobody to advertise and fabricates too.
		p.PercentBadPeers = 10
		if behavior == BadPongBad {
			p.PercentBadPeers = 0.4
		}
		e, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		e.nextFake = math.MaxInt32 - 3
		mustExhaust(t, e, "fabricated addresses exhausted: every address in [1073741824, 2147483647)")
		if e.nextFake != math.MaxInt32 {
			t.Fatalf("%v: nextFake = %d", behavior, e.nextFake)
		}
	}
}
