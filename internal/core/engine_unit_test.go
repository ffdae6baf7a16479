package core

// White-box tests of engine internals that do not need a full
// simulation run: pong construction, introduction, sampling, and the
// malicious pong fabrication paths. Peers are addressed by slot index
// into the engine's peerStore (see peerstore.go).

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
)

// newBootstrapped builds an engine with the initial population in
// place but no events processed.
func newBootstrapped(t *testing.T, mutate func(*Params)) *Engine {
	t.Helper()
	p := quickParams()
	if mutate != nil {
		mutate(&p)
	}
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.bootstrap()
	return e
}

// badSlot resolves the i-th live malicious peer to its slot.
func badSlot(t *testing.T, e *Engine, i int) int {
	t.Helper()
	slot := e.ps.slotOf(e.bad[i])
	if slot < 0 {
		t.Fatalf("bad peer %d not alive", e.bad[i])
	}
	return slot
}

func TestBootstrapSeedsCaches(t *testing.T) {
	e := newBootstrapped(t, nil)
	if e.ps.len() != e.p.NetworkSize {
		t.Fatalf("alive = %d", e.ps.len())
	}
	// Every peer's first ping falls inside the run: end is set before Run,
	// or schedule would have dropped them all.
	if e.events.Len() < e.p.NetworkSize {
		t.Fatalf("%d events queued for %d peers", e.events.Len(), e.p.NetworkSize)
	}
	want := e.p.seedSize()
	for p := 0; p < e.ps.len(); p++ {
		link := &e.ps.link[p]
		if link.Len() == 0 || link.Len() > want {
			t.Fatalf("peer %d seeded with %d entries, want 1..%d", e.ps.id[p], link.Len(), want)
		}
		if link.Has(e.ps.id[p]) {
			t.Fatalf("peer %d has itself in its cache", e.ps.id[p])
		}
		for _, entry := range link.Entries() {
			target := e.ps.slotOf(entry.Addr)
			if target < 0 {
				t.Fatalf("seeded entry points at nonexistent peer %d", entry.Addr)
			}
			if entry.NumFiles != e.ps.advertisedFiles[target] {
				t.Fatalf("seed entry NumFiles %d != advertised %d",
					entry.NumFiles, e.ps.advertisedFiles[target])
			}
		}
	}
}

func TestSamplePeersDistinctAndExcluding(t *testing.T) {
	e := newBootstrapped(t, nil)
	exclude := e.ps.id[0]
	for trial := 0; trial < 50; trial++ {
		idx := e.samplePeers(e.rngSeeding, 10, exclude)
		seen := make(map[int]bool)
		for _, i := range idx {
			if seen[i] {
				t.Fatal("duplicate index sampled")
			}
			seen[i] = true
			if e.ps.id[i] == exclude {
				t.Fatal("excluded peer sampled")
			}
		}
	}
}

func TestBuildPongHonest(t *testing.T) {
	e := newBootstrapped(t, nil)
	const host = 0
	pong := e.buildPong(host, policy.SelRandom)
	if len(pong) == 0 || len(pong) > e.p.PongSize {
		t.Fatalf("pong size %d", len(pong))
	}
	for _, entry := range pong {
		if !e.ps.link[host].Has(entry.Addr) {
			t.Fatal("pong entry not from host's cache")
		}
	}
}

func TestBuildPongMFSPicksTop(t *testing.T) {
	e := newBootstrapped(t, nil)
	const host = 0
	pong := e.buildPong(host, policy.SelMFS)
	// The pong must contain the cache's maximum-NumFiles entry.
	var maxFiles int32
	for _, entry := range e.ps.link[host].Entries() {
		if entry.NumFiles > maxFiles {
			maxFiles = entry.NumFiles
		}
	}
	found := false
	for _, entry := range pong {
		if entry.NumFiles == maxFiles {
			found = true
		}
	}
	if !found {
		t.Fatalf("MFS pong lacks the richest entry (%d files)", maxFiles)
	}
}

func TestBuildBadPongDead(t *testing.T) {
	e := newBootstrapped(t, func(p *Params) {
		p.PercentBadPeers = 10
		p.BadPong = BadPongDead
	})
	if len(e.bad) == 0 {
		t.Fatal("no malicious peers")
	}
	host := badSlot(t, e, 0)
	pong := e.buildPong(host, policy.SelRandom)
	if len(pong) != e.p.PongSize {
		t.Fatalf("bad pong size %d", len(pong))
	}
	for _, entry := range pong {
		if entry.Addr < fakeAddrBase {
			t.Fatalf("dead pong entry %d is a real address", entry.Addr)
		}
		if e.ps.slotOf(entry.Addr) >= 0 {
			t.Fatal("fabricated address is alive")
		}
		if entry.NumFiles != e.lieFiles {
			t.Fatalf("fabricated entry not attractive under MFS: %+v", entry)
		}
		if entry.NumRes != 0 {
			t.Fatalf("fabricated stranger carries a NumRes lie: %+v", entry)
		}
	}
}

func TestBuildBadPongColluding(t *testing.T) {
	e := newBootstrapped(t, func(p *Params) {
		p.PercentBadPeers = 10
		p.BadPong = BadPongBad
	})
	host := badSlot(t, e, 0)
	pong := e.buildPong(host, policy.SelRandom)
	if len(pong) != e.p.PongSize {
		t.Fatalf("colluding pong size %d", len(pong))
	}
	for _, entry := range pong {
		target := e.ps.slotOf(entry.Addr)
		if target < 0 || !e.ps.malicious[target] {
			t.Fatalf("colluding pong entry %d not a live malicious peer", entry.Addr)
		}
		if entry.Addr == e.ps.id[host] {
			t.Fatal("colluder advertised itself")
		}
	}
}

func TestBuildBadPongColludingAloneFallsBackToDead(t *testing.T) {
	e := newBootstrapped(t, func(p *Params) {
		p.NetworkSize = 300 // ensure exactly one bad peer is possible
		p.PercentBadPeers = 0.4
		p.BadPong = BadPongBad
	})
	if len(e.bad) != 1 {
		t.Fatalf("want exactly 1 bad peer, got %d", len(e.bad))
	}
	pong := e.buildPong(badSlot(t, e, 0), policy.SelRandom)
	for _, entry := range pong {
		if entry.Addr < fakeAddrBase {
			t.Fatal("lone colluder should fabricate dead addresses")
		}
	}
}

func TestMaybeIntroduceAlwaysAndNever(t *testing.T) {
	e := newBootstrapped(t, func(p *Params) { p.IntroProb = 1 })
	const host, guest = 0, 1
	e.ps.link[host] = *cache.NewLinkCache(e.p.CacheSize) // empty it
	e.maybeIntroduce(host, guest)
	if !e.ps.link[host].Has(e.ps.id[guest]) {
		t.Fatal("IntroProb=1 did not introduce")
	}

	e2 := newBootstrapped(t, func(p *Params) { p.IntroProb = 0 })
	e2.ps.link[host] = *cache.NewLinkCache(e2.p.CacheSize)
	e2.maybeIntroduce(host, guest)
	if e2.ps.link[host].Len() != 0 {
		t.Fatal("IntroProb=0 introduced")
	}
}

func TestAcceptPongRules(t *testing.T) {
	e := newBootstrapped(t, func(p *Params) { p.ResetNumResults = true })
	const receiver, source = 0, 1
	e.ps.link[receiver] = *cache.NewLinkCache(e.p.CacheSize)
	pong := []cache.Entry{
		{Addr: e.ps.id[receiver], NumFiles: 9},      // self: skipped
		{Addr: e.ps.id[2], NumRes: 7, Direct: true}, // NumRes zeroed, Direct cleared
	}
	e.acceptPong(receiver, source, pong)
	if e.ps.link[receiver].Has(e.ps.id[receiver]) {
		t.Fatal("accepted own address")
	}
	got, ok := e.ps.link[receiver].Get(e.ps.id[2])
	if !ok {
		t.Fatal("entry not accepted")
	}
	if got.NumRes != 0 || got.Direct {
		t.Fatalf("ResetNumResults/Direct rules violated: %+v", got)
	}
}

func TestLargestWCCOnFreshNetwork(t *testing.T) {
	e := newBootstrapped(t, nil)
	wcc := e.scanOverlay(true).largestWCC
	// Seeded random caches of ~4 entries connect essentially everyone.
	if wcc < e.p.NetworkSize*9/10 {
		t.Fatalf("fresh overlay fragmented: WCC=%d of %d", wcc, e.p.NetworkSize)
	}
}

func TestQueryAddCandidateDedups(t *testing.T) {
	q := &query{}
	q.qc.Reset(policy.SelMFS, nil, 1)
	e := cache.Entry{Addr: 5, NumFiles: 3}
	if !q.qc.Add(e) {
		t.Fatal("first add rejected")
	}
	if q.qc.Add(e) {
		t.Fatal("duplicate accepted")
	}
	if q.qc.Pending() != 1 {
		t.Fatalf("%d candidates pending", q.qc.Pending())
	}
}

// TestScheduleFilterIsTheLoops pins the boundary: an event at exactly
// end is queued (Run's loop handles t == end), the next float after it
// is not.
func TestScheduleFilterIsTheLoops(t *testing.T) {
	e, err := New(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if e.end != e.p.WarmupTime+e.p.MeasureTime {
		t.Fatalf("end = %v before Run, want %v", e.end, e.p.WarmupTime+e.p.MeasureTime)
	}
	e.schedule(e.end, event{kind: evPing, peer: 1})
	if e.events.Len() != 1 {
		t.Fatal("an event at exactly end was not queued")
	}
	e.schedule(math.Nextafter(e.end, math.Inf(1)), event{kind: evPing, peer: 1})
	e.schedule(math.Inf(1), event{kind: evDeath, peer: 1})
	if e.events.Len() != 1 {
		t.Fatal("an event past end was queued")
	}
}
