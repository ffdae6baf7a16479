package node

import (
	"net/netip"
	"testing"
	"time"
)

// TestFlatAdmitterMatchesLegacyWindow locks the flat controller to the
// original overloaded() semantics: only queries count, pings are never
// refused, the window is one unix second, and capacity 0 is unlimited.
func TestFlatAdmitterMatchesLegacyWindow(t *testing.T) {
	base := time.Unix(1000, 0)
	f := &flatAdmitter{capacity: 2}
	for i := 0; i < 5; i++ {
		if v := f.admit(1, probePing, base); !v.ok {
			t.Fatalf("ping %d refused by flat admitter", i)
		}
	}
	for i := 0; i < 2; i++ {
		v := f.admit(1, probeQuery, base)
		if !v.ok || v.skipCacheWrite {
			t.Fatalf("in-capacity query %d: %+v", i, v)
		}
	}
	if v := f.admit(2, probeQuery, base.Add(500*time.Millisecond)); v.ok || v.tier != shedFlat {
		t.Fatalf("over-capacity query admitted: %+v", v)
	}
	// A new second resets the window.
	if v := f.admit(2, probeQuery, base.Add(time.Second)); !v.ok {
		t.Fatalf("query refused after window reset: %+v", v)
	}

	unlimited := &flatAdmitter{capacity: 0}
	for i := 0; i < 100; i++ {
		if v := unlimited.admit(uint64(i), probeQuery, base); !v.ok {
			t.Fatal("unlimited flat admitter refused a query")
		}
	}
}

// TestFairAdmitterWorkConserving: with no pressure the fair controller
// admits everything, with full-fidelity cache writes — an idle node
// never refuses anyone.
func TestFairAdmitterWorkConserving(t *testing.T) {
	f := newFairAdmitter(10, time.Second)
	base := time.Unix(2000, 0)
	for i := 0; i < 10; i++ {
		kind := probeQuery
		if i%3 == 0 {
			kind = probePing
		}
		v := f.admit(uint64(i%2), kind, base)
		if !v.ok || v.skipCacheWrite {
			t.Fatalf("probe %d under capacity: %+v", i, v)
		}
	}
}

// TestFairAdmitterShedsHeaviestFirst: at 4x overload from one flood
// requester plus light requesters, the flood is shed once past its
// fair share while the light requesters keep being admitted.
func TestFairAdmitterShedsHeaviestFirst(t *testing.T) {
	f := newFairAdmitter(20, time.Second)
	base := time.Unix(3000, 0)
	flood, lightA, lightB := uint64(0xf100d), uint64(0xa), uint64(0xb)

	// Window 1 establishes pressure (offered 84 ~ 4x capacity 20) with
	// all three requesters active, so the carried fair share reflects
	// them.
	for i := 0; i < 80; i++ {
		f.admit(flood, probeQuery, base)
	}
	f.admit(lightA, probeQuery, base)
	f.admit(lightA, probeQuery, base)
	f.admit(lightB, probeQuery, base)
	f.admit(lightB, probeQuery, base)
	// Window 2 inherits pressure and the active estimate: the flood's
	// estimate blows past its share while the light requesters' single
	// queries stay under it.
	w2 := base.Add(time.Second)
	floodOK, floodShed := 0, 0
	for i := 0; i < 40; i++ {
		v := f.admit(flood, probeQuery, w2)
		if i == 0 && !f.pressurePrev {
			t.Fatal("pressure did not carry into the next window")
		}
		if v.ok {
			floodOK++
			if !v.skipCacheWrite {
				t.Fatal("admission under pressure kept cache writes")
			}
		} else if v.tier != shedQuery {
			t.Fatalf("flood shed with tier %d, want shedQuery", v.tier)
		} else {
			floodShed++
		}
	}
	if floodShed == 0 || floodOK > f.share() {
		t.Fatalf("flood not bounded by fair share: ok=%d shed=%d share=%d",
			floodOK, floodShed, f.share())
	}
	for i := 0; i < 3; i++ {
		if v := f.admit(lightA, probeQuery, w2); !v.ok {
			t.Fatalf("light requester A query %d shed: %+v", i, v)
		}
		if v := f.admit(lightB, probeQuery, w2); !v.ok {
			t.Fatalf("light requester B query %d shed: %+v", i, v)
		}
	}
	// Tier 1: pings are shed under pressure before queries.
	if v := f.admit(lightA, probePing, w2); v.ok || v.tier != shedPing {
		t.Fatalf("ping under pressure: %+v, want shedPing", v)
	}

	// An idle gap clears the carried state: admissions are full
	// fidelity again.
	calm := w2.Add(5 * time.Second)
	if v := f.admit(flood, probeQuery, calm); !v.ok || v.skipCacheWrite {
		t.Fatalf("probe after idle gap: %+v", v)
	}
}

// TestFairAdmitterHardCapacity: even in-share requesters cannot push a
// window past the hard capacity.
func TestFairAdmitterHardCapacity(t *testing.T) {
	f := newFairAdmitter(5, time.Second)
	base := time.Unix(4000, 0)
	admitted := 0
	for i := 0; i < 50; i++ {
		if f.admit(uint64(i), probeQuery, base).ok { // all distinct requesters
			admitted++
		}
	}
	if admitted > 5 {
		t.Fatalf("admitted %d queries past hard capacity 5", admitted)
	}
}

// TestFairAdmitterUnlimited: capacity 0 disables shedding entirely.
func TestFairAdmitterUnlimited(t *testing.T) {
	f := newFairAdmitter(0, time.Second)
	base := time.Unix(5000, 0)
	for i := 0; i < 1000; i++ {
		if v := f.admit(7, probeQuery, base); !v.ok || v.skipCacheWrite {
			t.Fatalf("unlimited fair admitter degraded: %+v", v)
		}
	}
}

// TestFairAdmitterWindowScaling: capacity scales with the window.
func TestFairAdmitterWindowScaling(t *testing.T) {
	if f := newFairAdmitter(100, 100*time.Millisecond); f.capacity != 10 {
		t.Fatalf("100/s over 100ms window: capacity %d, want 10", f.capacity)
	}
	if f := newFairAdmitter(1, 100*time.Millisecond); f.capacity != 1 {
		t.Fatalf("capacity floor: %d, want 1", f.capacity)
	}
}

// TestRequesterKey: stable per (salt, addr), distinct across salts and
// addresses.
func TestRequesterKey(t *testing.T) {
	a := netip.MustParseAddrPort("10.0.0.1:4000")
	b := netip.MustParseAddrPort("10.0.0.1:4001")
	if RequesterKey(a, 1) != RequesterKey(a, 1) {
		t.Fatal("RequesterKey not deterministic")
	}
	if RequesterKey(a, 1) == RequesterKey(b, 1) {
		t.Fatal("distinct ports hash equal")
	}
	if RequesterKey(a, 1) == RequesterKey(a, 2) {
		t.Fatal("distinct salts hash equal")
	}
}

// TestAdmissionModeValidation covers the mode enum plumbing.
func TestAdmissionModeValidation(t *testing.T) {
	if !AdmissionFlat.Valid() || !AdmissionFair.Valid() || AdmissionMode(99).Valid() {
		t.Fatal("AdmissionMode.Valid misclassifies")
	}
	if AdmissionFlat.String() != "flat" || AdmissionFair.String() != "fair" {
		t.Fatal("AdmissionMode.String misnames")
	}
	cfg := Default()
	cfg.Admission = AdmissionMode(99)
	if err := cfg.validate(); err == nil {
		t.Fatal("invalid admission mode accepted")
	}
}
