package node

// Unit tests for the cluster hooks on the fair admitter: the delta the
// sync client drains, the aggregate it installs, the salt-rotation
// reset, and the salt a node starts with — all exercised at the
// admitter level, below the wire.

import (
	"net/netip"
	"testing"
	"time"
)

// TestFairAdmitterClusterAggregate: a requester that looks light
// locally but heavy in the cluster-merged view is shed under pressure;
// clearing the aggregate restores local-only judgment.
func TestFairAdmitterClusterAggregate(t *testing.T) {
	f := newFairAdmitter(20, time.Second)
	base := time.Unix(5000, 0)
	rotator, light := uint64(0xbeef), uint64(0xa)

	// Window 1: a flood key pushes offered volume past capacity so
	// window 2 starts under carried pressure with three requesters
	// active.
	flood := uint64(0xf100d)
	for i := 0; i < 50; i++ {
		f.admit(flood, probeQuery, base)
	}
	f.admit(rotator, probeQuery, base)
	f.admit(light, probeQuery, base)

	// Window 2, no aggregate: the rotator offers 2/window against a
	// fair share of 20/3 — admitted on local evidence.
	w2 := base.Add(time.Second)
	if v := f.admit(rotator, probeQuery, w2); !v.ok {
		t.Fatalf("locally-light rotator refused without an aggregate: %+v", v)
	}

	// Install a cluster view pegging the rotator far past any share.
	var agg AdmissionAggregate
	idx := FairIndices(rotator)
	for l := 0; l < FairLevels; l++ {
		agg.Counts[l][idx[l]] = 100
	}
	agg.Active = 3
	f.setAggregate(agg, true)
	if v := f.admit(rotator, probeQuery, w2); v.ok || v.tier != shedQuery {
		t.Fatalf("cluster-heavy rotator admitted: %+v", v)
	}
	// The light requester is untouched by the rotator's cluster heat.
	if v := f.admit(light, probeQuery, w2); !v.ok {
		t.Fatalf("light requester refused under cluster view: %+v", v)
	}

	// Dropping the cluster view (sync fallback) returns to local
	// evidence: the rotator is admitted again.
	f.setAggregate(AdmissionAggregate{}, false)
	if v := f.admit(rotator, probeQuery, w2); !v.ok {
		t.Fatalf("rotator refused after aggregate cleared: %+v", v)
	}
}

// TestFairAdmitterAggregateNeverRefusesIdle: the cluster view sharpens
// shedding only under local pressure — an idle node admits even a
// cluster-heavy requester (the service is an optimization, never a
// gate).
func TestFairAdmitterAggregateNeverRefusesIdle(t *testing.T) {
	f := newFairAdmitter(20, time.Second)
	base := time.Unix(6000, 0)
	key := uint64(0xbeef)
	var agg AdmissionAggregate
	idx := FairIndices(key)
	for l := 0; l < FairLevels; l++ {
		agg.Counts[l][idx[l]] = 1 << 20
	}
	f.setAggregate(agg, true)
	for i := 0; i < 10; i++ {
		if v := f.admit(key, probeQuery, base); !v.ok {
			t.Fatalf("idle node refused probe %d on cluster evidence alone: %+v", i, v)
		}
	}
}

// TestFairAdmitterDeltaAccrual: the delta drained by the sync client
// counts offered demand — admitted and refused alike — accumulates
// across window rolls, and resets on drain.
func TestFairAdmitterDeltaAccrual(t *testing.T) {
	f := newFairAdmitter(2, time.Second)
	base := time.Unix(7000, 0)
	key := uint64(0xcafe)

	if _, ok := f.takeDelta(); ok {
		t.Fatal("fresh admitter reported a nonzero delta")
	}
	// 5 offered this window (3 past capacity, refused), 2 next window:
	// the delta must hold all 7 — refusals included, across the roll.
	for i := 0; i < 5; i++ {
		f.admit(key, probeQuery, base)
	}
	for i := 0; i < 2; i++ {
		f.admit(key, probeQuery, base.Add(time.Second))
	}
	d, ok := f.takeDelta()
	if !ok {
		t.Fatal("no delta after 7 offered queries")
	}
	idx := FairIndices(key)
	for l := 0; l < FairLevels; l++ {
		if got := d.Counts[l][idx[l]]; got != 7 {
			t.Fatalf("level %d delta = %d, want 7 (offered demand incl. refusals)", l, got)
		}
	}
	// Drained: the next take is empty, pings never count.
	f.admit(key, probePing, base.Add(time.Second))
	if _, ok := f.takeDelta(); ok {
		t.Fatal("delta not reset by drain (or a ping counted)")
	}
}

// TestFairAdmitterResetSketch: salt rotation forgets everything —
// local windows, unsent delta, and the installed aggregate — since
// counts hashed under the old salt land in meaningless buckets.
func TestFairAdmitterResetSketch(t *testing.T) {
	f := newFairAdmitter(20, time.Second)
	base := time.Unix(8000, 0)
	key := uint64(0xd00d)
	for i := 0; i < 30; i++ {
		f.admit(key, probeQuery, base)
	}
	var agg AdmissionAggregate
	agg.Counts[0][0] = 99
	f.setAggregate(agg, true)

	f.resetSketch()
	if _, ok := f.takeDelta(); ok {
		t.Fatal("delta survived resetSketch")
	}
	if f.aggOK {
		t.Fatal("aggregate survived resetSketch")
	}
	idx := FairIndices(key)
	for l := 0; l < FairLevels; l++ {
		if f.counts[l][idx[l]] != 0 {
			t.Fatal("window counts survived resetSketch")
		}
	}
	if f.active != 0 || f.activePrev != 0 {
		t.Fatal("active estimates survived resetSketch")
	}
}

// TestKeySaltConfig: a node's own salt derives from Seed exactly as it
// always has (byte-identical default), while SetAdmissionSalt — the
// cluster injection point — gives nodes of any seed one salt and
// forgets the demand counted under the old one.
func TestKeySaltConfig(t *testing.T) {
	legacy := func(seed uint64) uint64 { return seed*0x9e3779b97f4a7c15 + 1 }
	for _, seed := range []uint64{0, 1, 42, 1 << 60} {
		if got, want := saltFor(seed), legacy(seed); got != want {
			t.Fatalf("saltFor(%d) = %#x, want legacy %#x", seed, got, want)
		}
	}
	// Two nodes given the same salt hash a requester identically — the
	// property merged sketches depend on.
	addr := netip.MustParseAddrPort("10.0.0.9:6346")
	var keys []uint64
	for _, seed := range []uint64{42, 43} {
		f := newFairAdmitter(20, time.Second)
		n := &Node{keySalt: saltFor(seed), adm: f}
		f.admit(RequesterKey(addr, n.keySalt), probeQuery, time.Unix(9000, 0))
		n.SetAdmissionSalt(7)
		if n.keySalt != 7 {
			t.Fatalf("seed %d: SetAdmissionSalt(7) left salt %#x", seed, n.keySalt)
		}
		if _, ok := f.takeDelta(); ok {
			t.Fatalf("seed %d: demand counted under the old salt survived SetAdmissionSalt", seed)
		}
		keys = append(keys, RequesterKey(addr, n.keySalt))
	}
	if keys[0] != keys[1] {
		t.Fatal("nodes sharing a salt hash a requester apart")
	}
	if keys[0] == RequesterKey(addr, 8) {
		t.Fatal("RequesterKey ignores the salt")
	}
}
