package core

import (
	"math"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/simrng"
)

func TestSeenSetAddAndDuplicate(t *testing.T) {
	var s seenSet
	for _, a := range []cache.PeerID{1, 2, fakeAddrBase, fakeAddrBase + 1} {
		if !s.add(a) {
			t.Fatalf("first add(%d) reported a duplicate", a)
		}
		if s.add(a) {
			t.Fatalf("second add(%d) reported a new member", a)
		}
	}
	if s.n != 4 {
		t.Fatalf("n = %d, want 4", s.n)
	}
}

// TestSeenSetRejectsNonPositive pins the choice the type's comment
// states: zero is the empty-slot mark, so zero and negative addresses
// are refused loudly instead of being forgotten.
func TestSeenSetRejectsNonPositive(t *testing.T) {
	for _, a := range []cache.PeerID{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("add(%d) did not panic", a)
				}
			}()
			var s seenSet
			s.add(a)
		}()
	}
	// The engine never produces one: IDs count up from 1.
	e := newBootstrapped(t, nil)
	for p := 0; p < e.ps.len(); p++ {
		if e.ps.id[p] < 1 {
			t.Fatalf("slot %d has id %d", p, e.ps.id[p])
		}
	}
}

// TestSeenSetGrowthKeepsMembers adds enough addresses for five
// doublings, checking after each add that the load bound holds, and at
// the end that every member is still a member and nothing else is.
func TestSeenSetGrowthKeepsMembers(t *testing.T) {
	const members = seenMinSlots / 2 << 5
	var s seenSet
	r := simrng.New(3)
	want := map[cache.PeerID]bool{}
	var added []cache.PeerID
	for len(want) < members {
		a := cache.PeerID(r.Intn(1<<20) + 1)
		if r.Intn(8) == 0 {
			a += fakeAddrBase
		}
		if s.add(a) == want[a] {
			t.Fatalf("add(%d) = %v with the address already added: %v", a, !want[a], want[a])
		}
		if !want[a] {
			want[a] = true
			added = append(added, a)
		}
		if n := len(s.tab); n&(n-1) != 0 || 2*s.n > n {
			t.Fatalf("%d members in %d slots", s.n, n)
		}
	}
	if len(s.tab) != seenMinSlots<<5 {
		t.Fatalf("table has %d slots after %d adds, want %d", len(s.tab), members, seenMinSlots<<5)
	}
	stored := 0
	for _, a := range s.tab {
		if a != 0 {
			stored++
			if !want[a] {
				t.Fatalf("table holds %d, never added", a)
			}
		}
	}
	if stored != members || s.n != members {
		t.Fatalf("stored %d, n %d, want %d", stored, s.n, members)
	}
	for _, a := range added {
		if s.add(a) {
			t.Fatalf("member %d lost in growth", a)
		}
	}
}

// TestSeenSetResetEqualsFresh feeds one add sequence to a fresh set and
// to a reset one that had grown: the answers must match.
func TestSeenSetResetEqualsFresh(t *testing.T) {
	var used seenSet
	for a := cache.PeerID(1); a <= 3*seenMinSlots; a++ {
		used.add(a)
	}
	slots := len(used.tab)
	used.reset()
	if used.n != 0 || len(used.tab) != slots {
		t.Fatalf("reset left n=%d, %d slots (had %d)", used.n, len(used.tab), slots)
	}
	var fresh seenSet
	r := simrng.New(5)
	for i := 0; i < 4*seenMinSlots; i++ {
		a := cache.PeerID(r.Intn(2*seenMinSlots) + 1)
		if got, want := used.add(a), fresh.add(a); got != want {
			t.Fatalf("add %d (#%d): reset set says %v, fresh set %v", a, i, got, want)
		}
	}
	if used.n != fresh.n {
		t.Fatalf("n = %d after reset, %d fresh", used.n, fresh.n)
	}
}

// TestPutQueryDropsOversizedSeen pins the retention bound: a pooled
// query keeps its table up to maxRetainedSeenSlots and gives it up
// beyond, so one exhaustive query does not make every later startQuery
// clear a table its own candidates do not need.
func TestPutQueryDropsOversizedSeen(t *testing.T) {
	e := newBootstrapped(t, nil)
	fill := func(q *query, members int) {
		for a := cache.PeerID(1); a <= cache.PeerID(members); a++ {
			q.seen.add(a)
		}
	}
	q := e.getQuery()
	fill(q, maxRetainedSeenSlots/2)
	if len(q.seen.tab) != maxRetainedSeenSlots {
		t.Fatalf("%d slots for %d members", len(q.seen.tab), maxRetainedSeenSlots/2)
	}
	e.putQuery(q)
	if got := e.getQuery(); got != q || len(got.seen.tab) != maxRetainedSeenSlots {
		t.Fatalf("table at the bound not retained: %d slots", len(got.seen.tab))
	}
	fill(q, maxRetainedSeenSlots/2+1)
	e.putQuery(q)
	if got := e.getQuery(); got != q || got.seen.tab != nil || got.seen.n != 0 {
		t.Fatalf("table above the bound retained: %d slots, n=%d", len(got.seen.tab), got.seen.n)
	}
}

// TestPutQueryShedsOversizedSelector is the same bound on the other
// half of a query's candidates: after a query that learned of a whole
// 100k population, the pooled object holds buffers for at most
// maxRetainedCandidates entries, under the random and a scored policy.
func TestPutQueryShedsOversizedSelector(t *testing.T) {
	for _, sel := range []policy.Selection{policy.SelRandom, policy.SelMFS} {
		e := newBootstrapped(t, func(p *Params) { p.QueryProbe = sel })
		held := func(q *query) int {
			s := reflect.ValueOf(q.sel).Elem()
			return s.FieldByName("pool").Cap() + s.FieldByName("heap").Cap()
		}
		fill := func(q *query, candidates int) {
			q.sel.Reset(sel, e.rngPolicy)
			q.seen.reset()
			for a := cache.PeerID(1); a <= cache.PeerID(candidates); a++ {
				q.addCandidate(cache.Entry{Addr: a, NumFiles: int32(a)})
			}
		}
		q := e.getQuery()
		fill(q, maxRetainedCandidates/2) // append's growth stays under the bound
		within := held(q)
		if within < maxRetainedCandidates/2 || within > maxRetainedCandidates {
			t.Fatalf("%v: %d candidates in buffers for %d entries", sel, maxRetainedCandidates/2, within)
		}
		e.putQuery(q)
		if got := e.getQuery(); got != q || held(got) != within {
			t.Fatalf("%v: buffers within the bound not retained: %d entries, had %d", sel, held(got), within)
		}
		fill(q, 100_000)
		if held(q) < 100_000 {
			t.Fatalf("%v: 100000 candidates in buffers for %d entries", sel, held(q))
		}
		e.putQuery(q)
		if got := e.getQuery(); got != q || held(got) > maxRetainedCandidates {
			t.Fatalf("%v: pooled query kept buffers for %d entries, bound %d", sel, held(got), maxRetainedCandidates)
		}
	}
}

// TestOriginIsNeverACandidate plants the querying peer's own address
// in its link cache (which the protocol never does) and has one round
// probe every candidate: the origin must not be among the targets.
func TestOriginIsNeverACandidate(t *testing.T) {
	e := newBootstrapped(t, func(p *Params) {
		p.ParallelProbes = 10 * p.NetworkSize
		p.NumDesiredResults = 1 << 30
	})
	const p = 0
	origin := e.ps.id[p]
	link := e.ps.link[p]
	link.ReplaceAt(0, cache.Entry{Addr: origin, NumFiles: 1 << 20})
	probes := 0
	e.SetObserver(obs.ObserverFunc(func(ev obs.Event) {
		if ev.Kind != obs.EvProbe {
			return
		}
		probes++
		if ev.Target == uint64(origin) {
			t.Fatalf("peer %d probed itself", origin)
		}
	}))
	e.startQuery(p, 0)
	if probes < link.Len()-1 {
		t.Fatalf("%d probes, want at least the %d other cache entries", probes, link.Len()-1)
	}
}

// seenStart64 is where a 64-bit PeerID started probing a table of the
// given length, kept as the reference for the narrowed hash.
func seenStart64(addr int64, slots int) int {
	return int(uint64(addr) * 0x9E3779B97F4A7C15 >> bits.LeadingZeros64(uint64(slots-1)))
}

// TestSeenSetProbeStartAsBefore adds every ID a million-peer run can
// assign, and strides up to the last real one, to an empty table: the
// slot it lands in is where probing starts, and must be where the 64-bit
// hash started (cache's TestRealIDsHashAsBefore covers the tag and the
// query cache). A fabricated address must land where its unsigned value
// hashes, not a sign-extended one.
func TestSeenSetProbeStartAsBefore(t *testing.T) {
	for _, slots := range []int{seenMinSlots, maxRetainedSeenSlots} {
		s := seenSet{tab: make([]cache.PeerID, slots)}
		check := func(id cache.PeerID) {
			t.Helper()
			want := seenStart64(int64(uint32(id)), slots)
			if !s.add(id) || s.tab[want] != id {
				t.Fatalf("add(%d) to %d empty slots did not land in slot %d", id, slots, want)
			}
			s.tab[want], s.n = 0, 0
		}
		for id := cache.PeerID(1); id <= 1<<20; id++ {
			check(id)
		}
		for id := cache.PeerID(1<<20 + 1); id < fakeAddrBase; id += 1<<18 - 3 {
			check(id)
		}
		for _, id := range []cache.PeerID{fakeAddrBase - 1, fakeAddrBase, math.MaxInt32 - 1, math.MaxInt32} {
			check(id)
		}
	}
}
