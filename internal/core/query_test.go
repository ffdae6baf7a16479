package core

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/simrng"
)

// TestSeenSetAddAndDuplicate adds real and fabricated addresses to a
// query's cache: each is new once and a duplicate after, and the origin
// is a duplicate from the start.
func TestSeenSetAddAndDuplicate(t *testing.T) {
	const origin = 3
	var q query
	q.qc.Reset(policy.SelMFS, nil, origin)
	for _, a := range []cache.PeerID{1, 2, fakeAddrBase, fakeAddrBase + 1} {
		if !q.qc.Add(cache.Entry{Addr: a}) {
			t.Fatalf("first add(%d) reported a duplicate", a)
		}
		if q.qc.Add(cache.Entry{Addr: a}) {
			t.Fatalf("second add(%d) reported a new member", a)
		}
	}
	if q.qc.Add(cache.Entry{Addr: origin}) {
		t.Fatal("the origin was added as a candidate")
	}
	if q.qc.Pending() != 4 {
		t.Fatalf("%d pending, want 4", q.qc.Pending())
	}
}

// TestSeenSetRejectsNonPositive pins the choice the query cache's
// comment states: zero is the empty-slot mark, so zero and negative
// addresses are refused loudly instead of being forgotten.
func TestSeenSetRejectsNonPositive(t *testing.T) {
	for _, a := range []cache.PeerID{0, -1} {
		func() {
			var q query
			q.qc.Reset(policy.SelMFS, nil, 1)
			defer func() {
				if recover() == nil {
					t.Fatalf("add(%d) did not panic", a)
				}
			}()
			q.qc.Add(cache.Entry{Addr: a})
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

// TestSeenSetGrowthKeepsMembers has a query's cache learn of enough
// real and fabricated addresses to grow its seen set several times:
// afterwards every one is still refused as a duplicate, and Next hands
// each back exactly once.
func TestSeenSetGrowthKeepsMembers(t *testing.T) {
	const members = 8 * policy.MaxRetainedCandidates
	const origin = cache.PeerID(1)
	var q query
	q.qc.Reset(policy.SelMFS, nil, origin)
	r := simrng.New(3)
	want := map[cache.PeerID]bool{origin: true}
	var added []cache.PeerID
	for len(added) < members {
		a := cache.PeerID(r.Intn(1<<20) + 1)
		if r.Intn(8) == 0 {
			a += fakeAddrBase
		}
		if q.qc.Add(cache.Entry{Addr: a, NumFiles: int32(r.Intn(50))}) == want[a] {
			t.Fatalf("add(%d) = %v with the address already added: %v", a, !want[a], want[a])
		}
		if !want[a] {
			want[a] = true
			added = append(added, a)
		}
	}
	for _, a := range added {
		if q.qc.Add(cache.Entry{Addr: a}) {
			t.Fatalf("member %d lost in growth", a)
		}
	}
	if q.qc.Pending() != members {
		t.Fatalf("%d pending, want %d", q.qc.Pending(), members)
	}
	returned := map[cache.PeerID]bool{}
	for a, ok := q.qc.Next(nil); ok; a, ok = q.qc.Next(nil) {
		if !want[a] || a == origin || returned[a] {
			t.Fatalf("Next returned %d: added %v, already returned %v", a, want[a], returned[a])
		}
		returned[a] = true
	}
	if len(returned) != members {
		t.Fatalf("Next returned %d candidates, want %d", len(returned), members)
	}
}

// TestSeenSetResetEqualsFresh feeds one candidate sequence to a query
// taken back from the pool after a query that grew its cache, and to a
// fresh query: Add's answers and the Next order must match, under the
// random and a scored policy.
func TestSeenSetResetEqualsFresh(t *testing.T) {
	e := newBootstrapped(t, nil)
	for _, sel := range []policy.Selection{policy.SelRandom, policy.SelMFS} {
		q := e.getQuery()
		q.qc.Reset(sel, simrng.New(1), 1)
		for a := cache.PeerID(2); a <= policy.MaxRetainedCandidates/2; a++ {
			q.qc.Add(cache.Entry{Addr: a, NumFiles: int32(a % 7)})
		}
		e.putQuery(q)
		used := e.getQuery()
		if used != q {
			t.Fatal("the pooled query was not reused")
		}
		fresh := &query{}
		used.qc.Reset(sel, simrng.New(5), 2)
		fresh.qc.Reset(sel, simrng.New(5), 2)
		r := simrng.New(5)
		for i := 0; i < 4*policy.MaxRetainedCandidates; i++ {
			c := cache.Entry{Addr: cache.PeerID(r.Intn(2*policy.MaxRetainedCandidates) + 1), NumFiles: int32(r.Intn(9))}
			if got, want := used.qc.Add(c), fresh.qc.Add(c); got != want {
				t.Fatalf("%v: add %d (#%d): pooled query says %v, fresh query %v", sel, c.Addr, i, got, want)
			}
		}
		for {
			a, okA := used.qc.Next(nil)
			b, okB := fresh.qc.Next(nil)
			if a != b || okA != okB {
				t.Fatalf("%v: Next = %+v, %v from the pooled query; %+v, %v fresh", sel, a, okA, b, okB)
			}
			if !okA {
				break
			}
		}
		e.putQuery(used)
	}
}

// queryStorage reports the candidate storage a query holds: the bytes
// of its query cache's seen-set bitmap (its slab of blocks) and the
// entries its selector buffers have room for.
func queryStorage(q *query) (seenBytes, buffered int) {
	qc := reflect.ValueOf(&q.qc).Elem()
	sel := qc.FieldByName("sel")
	blocks := qc.FieldByName("blocks")
	return blocks.Cap() * int(blocks.Type().Elem().Size()), sel.FieldByName("pool").Cap() + sel.FieldByName("heap").Cap()
}

// TestPutQueryDropsOversizedSeen pins the retention bound: a pooled
// query keeps a seen-set bitmap of up to 16 KiB, 256 blocks of 512
// addresses, and gives it up beyond, so one exhaustive query does not
// make every later startQuery clear blocks its own candidates do not
// need.
func TestPutQueryDropsOversizedSeen(t *testing.T) {
	const maxBytes, blockBytes, blockAddrs = 16 << 10, 64, 512
	e := newBootstrapped(t, nil)
	// fill has the query see one address in each of its first blocks
	// blocks, the origin's included.
	fill := func(q *query, blocks int) {
		q.qc.Reset(policy.SelRandom, e.rngPolicy, 1)
		for k := 1; k < blocks; k++ {
			q.qc.Add(cache.Entry{Addr: cache.PeerID(k * blockAddrs)})
		}
	}
	q := e.getQuery()
	fill(q, maxBytes/blockBytes)
	if seen, _ := queryStorage(q); seen != maxBytes {
		t.Fatalf("a %d-byte bitmap for %d blocks", seen, maxBytes/blockBytes)
	}
	e.putQuery(q)
	if got := e.getQuery(); got != q {
		t.Fatal("the pooled query was not reused")
	} else if seen, _ := queryStorage(got); seen != maxBytes {
		t.Fatalf("bitmap at the bound not retained: %d bytes", seen)
	}
	fill(q, maxBytes/blockBytes+1)
	e.putQuery(q)
	if got := e.getQuery(); got != q {
		t.Fatal("the pooled query was not reused")
	} else if seen, _ := queryStorage(got); seen != 0 {
		t.Fatalf("bitmap above the bound retained: %d bytes", seen)
	}
}

// TestPutQueryShedsOversizedSelector is the same bound on the other
// half of a query's candidates: after a query that learned of a whole
// 100k population, the pooled object holds buffers for at most
// policy.MaxRetainedCandidates entries, under the random and a scored
// policy.
func TestPutQueryShedsOversizedSelector(t *testing.T) {
	const bound = policy.MaxRetainedCandidates
	for _, sel := range []policy.Selection{policy.SelRandom, policy.SelMFS} {
		e := newBootstrapped(t, func(p *Params) { p.QueryProbe = sel })
		held := func(q *query) int {
			_, buffered := queryStorage(q)
			return buffered
		}
		fill := func(q *query, candidates int) {
			q.qc.Reset(sel, e.rngPolicy, cache.PeerID(candidates+1))
			for a := cache.PeerID(1); a <= cache.PeerID(candidates); a++ {
				q.qc.Add(cache.Entry{Addr: a, NumFiles: int32(a)})
			}
		}
		q := e.getQuery()
		fill(q, bound/2) // append's growth stays under the bound
		within := held(q)
		if within < bound/2 || within > bound {
			t.Fatalf("%v: %d candidates in buffers for %d entries", sel, bound/2, within)
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
		if got := e.getQuery(); got != q || held(got) > bound {
			t.Fatalf("%v: pooled query kept buffers for %d entries, bound %d", sel, held(got), bound)
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
