package policy

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/simrng"
)

// fabricatedBase is where internal/core starts fabricated addresses
// (its fakeAddrBase; core imports this package, so the value is
// repeated here).
const fabricatedBase cache.PeerID = 1 << 30

// refQueryCache is the reference a QueryCache is compared against: a
// map of the addresses seen, a Selector fed each new one, and plain
// counters.
type refQueryCache struct {
	seen   map[cache.PeerID]bool
	sel    *Selector
	counts QueryCounts
	// desired and maxProbes are the stop rule Limit set.
	desired, maxProbes int
}

// Reset starts a query that is never satisfied and has no probe cap.
func (r *refQueryCache) Reset(sel Selection, rng *simrng.RNG, self cache.PeerID) {
	*r = refQueryCache{seen: map[cache.PeerID]bool{self: true}, sel: NewSelector(sel, rng), desired: math.MaxInt}
}

// Next hands out the best candidate skip does not reject, while the
// probe cap allows one.
func (r *refQueryCache) Next(skip func(cache.PeerID) bool) (cache.Entry, bool) {
	if r.maxProbes > 0 && r.counts.Probes >= r.maxProbes {
		return cache.Entry{}, false
	}
	e, ok := r.sel.Next()
	for ok && skip != nil && skip(e.Addr) {
		e, ok = r.sel.Next()
	}
	if ok {
		r.counts.Probes++
	}
	return e, ok
}

func (r *refQueryCache) Done() (satisfied, done bool) {
	satisfied = r.counts.Results >= r.desired
	capped := r.maxProbes > 0 && r.counts.Probes >= r.maxProbes
	return satisfied, satisfied || r.sel.Len() == 0 || capped
}

func (r *refQueryCache) Add(e cache.Entry) bool {
	if r.seen[e.Addr] {
		return false
	}
	r.seen[e.Addr] = true
	r.sel.Add(e)
	return true
}

// queryScriptAddrs is the address pool query-cache scripts draw from:
// enough addresses to grow the table past queryMinSlots twice, mixing
// consecutive peer IDs, the simulator's fabricated range, the largest
// address, and a run whose hashes all start probing at slot 0 of the
// initial table, so long collision chains are routine.
var queryScriptAddrs = func() []cache.PeerID {
	// Built once: the fuzzer runs a script per input.
	var pool []cache.PeerID
	for a := cache.PeerID(1); a <= 300; a++ {
		pool = append(pool, a, fabricatedBase+a)
	}
	pool = append(pool, math.MaxInt32)
	for a := cache.PeerID(1 << 20); len(pool) < 700; a++ {
		if probeStart64(int64(a), queryMinSlots) == 0 {
			pool = append(pool, a)
		}
	}
	return pool
}()

// runQueryCacheScript decodes script into QueryCache calls (three bytes
// each: operation, then a 16-bit address choice), applies every call to
// q and to the reference, each drawing on its own RNG seeded with seed,
// and fails on the first observable difference: an Add answer, a Next
// result, the candidates a Next skipped, the Pending count, the
// counters or Done. A Next that hands out a probe is followed by its
// outcome, which the operation's top bits pick: good, dead, refused or
// none. A scripted probe cap allows up to seven more probes than the
// query has sent, or none at all, so it is reached and then lifted
// again. At the end both lose their cap and are drained, so the whole
// Next order is compared.
func runQueryCacheScript(t *testing.T, q *QueryCache, sel Selection, seed uint64, script []byte) {
	t.Helper()
	pool := queryScriptAddrs
	rq, rr := simrng.New(seed), simrng.New(seed)
	ref := &refQueryCache{}
	q.Reset(sel, rq, pool[0])
	ref.Reset(sel, rr, pool[0])
	// next calls Next on both, skipping the addresses skip rejects (nil:
	// none), and compares what each handed out and skipped.
	var skippedQ, skippedRef []cache.PeerID
	next := func(step int, skip func(cache.PeerID) bool) bool {
		var skipQ, skipRef func(cache.PeerID) bool
		if skip != nil {
			skippedQ, skippedRef = skippedQ[:0], skippedRef[:0]
			skipQ = func(a cache.PeerID) bool { skippedQ = append(skippedQ, a); return skip(a) }
			skipRef = func(a cache.PeerID) bool { skippedRef = append(skippedRef, a); return skip(a) }
		}
		a, okA := q.Next(skipQ)
		b, okB := ref.Next(skipRef)
		if a != b || okA != okB {
			t.Fatalf("step %d: Next = %+v, %v; reference %+v, %v", step, a, okA, b, okB)
		}
		if !slices.Equal(skippedQ, skippedRef) {
			t.Fatalf("step %d: Next offered %v to skip; reference %v", step, skippedQ, skippedRef)
		}
		return okA
	}
	for step := 0; step+2 < len(script); step += 3 {
		op := script[step]
		arg := int(script[step+1])<<8 | int(script[step+2])
		addr := pool[arg%len(pool)]
		e := cache.Entry{Addr: addr, TS: float64(arg % 5), NumFiles: int32(arg % 7), NumRes: int32(op >> 5), Direct: op&8 != 0}
		switch op % 8 {
		case 0, 1, 2, 3, 4: // the most weight: scripts should grow the table
			if got, want := q.Add(e), ref.Add(e); got != want {
				t.Fatalf("step %d: Add(%d) = %v, reference %v", step, addr, got, want)
			}
		case 5, 6:
			var skip func(cache.PeerID) bool
			if op%8 == 6 {
				skip = func(a cache.PeerID) bool { return int(a)%3 == arg%3 }
			}
			if !next(step, skip) {
				break
			}
			switch op >> 6 {
			case 0:
				q.Good(arg % 3)
				ref.counts.Good++
				ref.counts.Results += arg % 3
			case 1:
				q.Dead()
				ref.counts.Dead++
			case 2:
				q.Refused()
				ref.counts.Refused++
			}
		case 7:
			switch {
			case arg%512 == 0: // rare, or no script ever grows the table
				// Between queries: shed, then start the next one under a
				// policy and origin the script picks.
				sel = allSelections[int(op>>3)%len(allSelections)]
				q.Shed()
				q.Reset(sel, rq, addr)
				ref.Reset(sel, rr, addr)
			case arg%8 == 1:
				maxProbes := arg >> 3 % 8
				if maxProbes > 0 {
					maxProbes += ref.counts.Probes
				}
				q.Limit(arg>>9%6, maxProbes)
				ref.desired, ref.maxProbes = arg>>9%6, maxProbes
			}
		}
		if got, want := q.Pending(), ref.sel.Len(); got != want {
			t.Fatalf("step %d: Pending = %d, reference %d", step, got, want)
		}
		if got, want := q.Counts(), ref.counts; got != want {
			t.Fatalf("step %d: Counts = %+v, reference %+v", step, got, want)
		}
		sat, done := q.Done()
		if refSat, refDone := ref.Done(); sat != refSat || done != refDone {
			t.Fatalf("step %d: Done = %v, %v; reference %v, %v", step, sat, done, refSat, refDone)
		}
	}
	q.Limit(ref.desired, 0)
	ref.maxProbes = 0
	for next(len(script), nil) {
	}
}

// TestQueryCacheDedup: an address is a candidate once, the origin never
// is, and what Next has returned stays seen, so no query offers it
// again.
func TestQueryCacheDedup(t *testing.T) {
	var q QueryCache
	q.Reset(SelMFS, nil, 9)
	if !q.Add(cache.Entry{Addr: 1}) {
		t.Fatal("first Add failed")
	}
	if q.Add(cache.Entry{Addr: 1}) {
		t.Fatal("duplicate Add succeeded")
	}
	if q.Add(cache.Entry{Addr: 9}) {
		t.Fatal("the origin was added")
	}
	if q.Pending() != 1 {
		t.Fatalf("Pending = %d", q.Pending())
	}
	if e, ok := q.Next(nil); !ok || e.Addr != 1 {
		t.Fatalf("Next = %+v, %v", e, ok)
	}
	if q.Add(cache.Entry{Addr: 1}) || q.Pending() != 0 {
		t.Fatal("a returned candidate was added again")
	}
}

// TestQueryCacheMatchesMapReference runs a few thousand seeded scripts
// through one QueryCache, under every policy in turn, so every script
// after the first runs on recycled storage of whatever size its
// predecessors grew; the long ones grow past the initial table more
// than once.
func TestQueryCacheMatchesMapReference(t *testing.T) {
	r := simrng.New(23)
	var q QueryCache
	grew := false
	for n := 0; n < 3000; n++ {
		size := 3 * (1 + r.Intn(40))
		if n%100 == 0 {
			size = 3 * 4000
		}
		script := make([]byte, size)
		for i := range script {
			script[i] = byte(r.Intn(256))
		}
		runQueryCacheScript(t, &q, allSelections[n%len(allSelections)], uint64(n+1), script)
		grew = grew || len(q.tab) > queryMinSlots
	}
	if !grew {
		t.Fatal("no script grew the table past its initial size")
	}
}

// FuzzQueryCacheOps lets the fuzzer write the script.
func FuzzQueryCacheOps(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte{0, 0, 1, 0, 0, 2, 4, 0, 0, 0, 0, 1, 6, 0, 1, 7, 0, 0, 5, 0, 0})
	f.Add(uint8(3), uint64(9), []byte{0, 1, 44, 1, 2, 88, 2, 2, 188, 4, 0, 0, 3, 2, 188, 5, 0, 0})
	f.Fuzz(func(t *testing.T, sel uint8, seed uint64, script []byte) {
		var q QueryCache
		runQueryCacheScript(t, &q, allSelections[int(sel)%len(allSelections)], seed, script)
	})
}

// TestQueryCacheRecord drives one query record through each table
// row: candidates 2..candidates+1 under SelRandom and the row's stop
// rule (none when noLimit is set), then one Next per outcome
// (results >= 0: good with that many, dead, refused). It checks the
// counters and Done; that one more Next hands out a probe only when
// more says so, leaving pending candidates, and draws nothing from the
// RNG once the cap is reached; and that Reset then zeroes every counter
// and the probe cap.
func TestQueryCacheRecord(t *testing.T) {
	const dead, refused = -1, -2
	only3 := func(a cache.PeerID) bool { return a != 3 }
	for _, tc := range []struct {
		name               string
		noLimit            bool
		desired, maxProbes int
		candidates         int
		skip               func(cache.PeerID) bool
		outcomes           []int
		want               QueryCounts
		satisfied, done    bool
		pending            int
		more               bool
	}{
		{name: "satisfied by the last candidate", desired: 2, candidates: 2, outcomes: []int{1, 1},
			want: QueryCounts{Probes: 2, Good: 2, Results: 2}, satisfied: true, done: true},
		{name: "satisfied by the capping probe", desired: 3, maxProbes: 2, candidates: 5, outcomes: []int{dead, 3},
			want: QueryCounts{Probes: 2, Good: 1, Dead: 1, Results: 3}, satisfied: true, done: true, pending: 3},
		{name: "cap reached", desired: 1, maxProbes: 2, candidates: 5, outcomes: []int{0, refused},
			want: QueryCounts{Probes: 2, Good: 1, Refused: 1}, done: true, pending: 3},
		{name: "exhausted", desired: 4, candidates: 3, outcomes: []int{1, dead, 2},
			want: QueryCounts{Probes: 3, Good: 2, Dead: 1, Results: 3}, done: true},
		{name: "skipped candidates drained uncounted", desired: 1, candidates: 6, skip: only3, outcomes: []int{1},
			want: QueryCounts{Probes: 1, Good: 1, Results: 1}, satisfied: true, done: true},
		{name: "under way", desired: 2, maxProbes: 3, candidates: 4, outcomes: []int{1, refused},
			want: QueryCounts{Probes: 2, Good: 1, Refused: 1, Results: 1}, pending: 1, more: true},
		{name: "Reset without Limit is not done while candidates remain", noLimit: true, candidates: 3, outcomes: []int{2, dead},
			want: QueryCounts{Probes: 2, Good: 1, Dead: 1, Results: 2}, more: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := simrng.New(7)
			var q QueryCache
			q.Reset(SelRandom, rng, 1)
			if !tc.noLimit {
				q.Limit(tc.desired, tc.maxProbes)
			}
			for a := 2; a <= tc.candidates+1; a++ {
				q.Add(cache.Entry{Addr: cache.PeerID(a)})
			}
			for i, res := range tc.outcomes {
				e, ok := q.Next(tc.skip)
				if !ok || tc.skip != nil && tc.skip(e.Addr) {
					t.Fatalf("probe %d: Next = %+v, %v", i, e, ok)
				}
				switch res {
				case dead:
					q.Dead()
				case refused:
					q.Refused()
				default:
					q.Good(res)
				}
			}
			if got := q.Counts(); got != tc.want {
				t.Fatalf("Counts = %+v, want %+v", got, tc.want)
			}
			if sat, done := q.Done(); sat != tc.satisfied || done != tc.done {
				t.Fatalf("Done = %v, %v; want %v, %v", sat, done, tc.satisfied, tc.done)
			}
			before := *rng
			if _, ok := q.Next(tc.skip); ok != tc.more {
				t.Fatalf("one more Next handed out a probe: %v, want %v", ok, tc.more)
			}
			if q.Pending() != tc.pending {
				t.Fatalf("Pending = %d, want %d", q.Pending(), tc.pending)
			}
			if tc.maxProbes > 0 && !tc.more && *rng != before {
				t.Fatal("a Next past the probe cap drew from the RNG")
			}

			q.Reset(SelRandom, rng, 1)
			if got := q.Counts(); got != (QueryCounts{}) {
				t.Fatalf("Counts after Reset = %+v", got)
			}
			for a := cache.PeerID(2); a <= 5; a++ { // more than any cap above
				q.Add(cache.Entry{Addr: a})
				if _, ok := q.Next(nil); !ok {
					t.Fatalf("Reset kept the probe cap: probe %d refused", q.Counts().Probes+1)
				}
			}
		})
	}
}

// TestQueryCacheRejectsNonPositive pins the choice the type's comment
// states: zero is the empty-slot mark, so zero and negative addresses
// are refused loudly instead of being forgotten, and a refused call
// leaves the cache as it was.
func TestQueryCacheRejectsNonPositive(t *testing.T) {
	var q QueryCache
	q.Reset(SelMFS, nil, 1)
	q.Add(cache.Entry{Addr: 7})
	for _, a := range []cache.PeerID{0, -1, math.MinInt32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Add(%d) did not panic", a)
				}
			}()
			q.Add(cache.Entry{Addr: a})
		}()
		if q.Pending() != 1 || q.n != 2 || q.Add(cache.Entry{Addr: 7}) {
			t.Fatalf("after the refused Add(%d): %d pending, %d seen", a, q.Pending(), q.n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with origin 0 did not panic")
		}
	}()
	q.Reset(SelMFS, nil, 0)
}

// TestQueryCacheGrowthKeepsMembers adds enough addresses for five
// doublings, checking after each add that the load bound holds, and at
// the end that every member is still a member and nothing else is.
func TestQueryCacheGrowthKeepsMembers(t *testing.T) {
	const members = queryMinSlots / 2 << 5
	const self = cache.PeerID(1)
	var q QueryCache
	q.Reset(SelMFS, nil, self)
	r := simrng.New(3)
	want := map[cache.PeerID]bool{self: true}
	added := []cache.PeerID{self}
	for len(want) < members {
		a := cache.PeerID(r.Intn(1<<20) + 1)
		if r.Intn(8) == 0 {
			a += fabricatedBase
		}
		if q.Add(cache.Entry{Addr: a}) == want[a] {
			t.Fatalf("Add(%d) = %v with the address already added: %v", a, !want[a], want[a])
		}
		if !want[a] {
			want[a] = true
			added = append(added, a)
		}
		if n := len(q.tab); n&(n-1) != 0 || 2*q.n > n {
			t.Fatalf("%d members in %d slots", q.n, n)
		}
	}
	if len(q.tab) != queryMinSlots<<5 {
		t.Fatalf("table has %d slots after %d adds, want %d", len(q.tab), members, queryMinSlots<<5)
	}
	stored := 0
	for _, a := range q.tab {
		if a != 0 {
			stored++
			if !want[a] {
				t.Fatalf("table holds %d, never added", a)
			}
		}
	}
	if stored != members || q.n != members || q.Pending() != members-1 {
		t.Fatalf("stored %d, n %d, %d pending; want %d members, the origin not pending", stored, q.n, q.Pending(), members)
	}
	for _, a := range added {
		if q.Add(cache.Entry{Addr: a}) {
			t.Fatalf("member %d lost in growth", a)
		}
	}
}

// TestQueryCacheResetEqualsFresh feeds one add sequence to a fresh
// cache and to a reset one that had grown and been shed: Add's answers
// and the Next order must match.
func TestQueryCacheResetEqualsFresh(t *testing.T) {
	for _, sel := range allSelections {
		var used QueryCache
		used.Reset(sel, simrng.New(1), 1)
		for a := cache.PeerID(2); a <= 3*queryMinSlots; a++ {
			used.Add(cache.Entry{Addr: a})
		}
		slots := len(used.tab)
		used.Shed()
		used.Reset(sel, simrng.New(5), 2)
		if used.n != 1 || len(used.tab) != slots || used.Pending() != 0 {
			t.Fatalf("%v: reset left n=%d, %d slots (had %d), %d pending", sel, used.n, len(used.tab), slots, used.Pending())
		}
		var fresh QueryCache
		fresh.Reset(sel, simrng.New(5), 2)
		r := simrng.New(5)
		for i := 0; i < 4*queryMinSlots; i++ {
			e := cache.Entry{Addr: cache.PeerID(r.Intn(2*queryMinSlots) + 1), NumFiles: int32(r.Intn(9))}
			if got, want := used.Add(e), fresh.Add(e); got != want {
				t.Fatalf("%v: Add(%d) (#%d): reset cache says %v, fresh cache %v", sel, e.Addr, i, got, want)
			}
		}
		for {
			a, okA := used.Next(nil)
			b, okB := fresh.Next(nil)
			if a != b || okA != okB {
				t.Fatalf("%v: Next = %+v, %v after reset; %+v, %v fresh", sel, a, okA, b, okB)
			}
			if !okA {
				break
			}
		}
	}
}

// TestQueryCacheResetReuse pins what the simulator's query pool and the
// live node's scratch list rely on: once grown, a Reset cache allocates
// nothing for a query that fits.
func TestQueryCacheResetReuse(t *testing.T) {
	var q QueryCache
	rng := simrng.New(1)
	query := func() {
		q.Reset(SelRandom, rng, 1)
		for a := cache.PeerID(2); a <= 120; a++ {
			if !q.Add(cache.Entry{Addr: a}) {
				t.Fatalf("Add(%d) refused on an empty cache", a)
			}
		}
		for _, ok := q.Next(nil); ok; _, ok = q.Next(nil) {
		}
		q.Shed()
	}
	query()
	if allocs := testing.AllocsPerRun(20, query); allocs != 0 {
		t.Fatalf("a reused QueryCache allocated %.0f times per query", allocs)
	}
}

// probeStart64 is where a 64-bit PeerID started probing a table of the
// given length, kept as the reference for the narrowed hash.
func probeStart64(addr int64, slots int) int {
	return int(uint64(addr) * 0x9E3779B97F4A7C15 >> bits.LeadingZeros64(uint64(slots-1)))
}

// TestQueryCacheProbeStartAsBefore adds every ID a million-peer run can
// assign, and strides up to the last real one, to an empty table: the
// slot it lands in is where probing starts, and must be where the
// 64-bit hash started (cache's TestRealIDsHashAsBefore covers the tag).
// A fabricated address must land where its unsigned value hashes, not
// a sign-extended one.
func TestQueryCacheProbeStartAsBefore(t *testing.T) {
	for _, slots := range []int{queryMinSlots, 2 * MaxRetainedCandidates} {
		q := QueryCache{tab: make([]cache.PeerID, slots)}
		check := func(id cache.PeerID) {
			t.Helper()
			want := probeStart64(int64(uint32(id)), slots)
			if !q.see(id) || q.tab[want] != id {
				t.Fatalf("see(%d) in %d empty slots did not land in slot %d", id, slots, want)
			}
			q.tab[want], q.n = 0, 0
		}
		for id := cache.PeerID(1); id <= 1<<20; id++ {
			check(id)
		}
		for id := cache.PeerID(1<<20 + 1); id < fabricatedBase; id += 1<<18 - 3 {
			check(id)
		}
		for _, id := range []cache.PeerID{fabricatedBase - 1, fabricatedBase, math.MaxInt32 - 1, math.MaxInt32} {
			check(id)
		}
	}
}
