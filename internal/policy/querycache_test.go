package policy

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/cache"
	"repro/internal/simrng"
)

// fabricatedBase is where internal/core starts fabricated addresses
// (its fakeAddrBase; core imports this package, so the value is
// repeated here).
const fabricatedBase cache.PeerID = 1 << 30

// refQueryCache is the reference a QueryCache is compared against: a
// map of the addresses seen and a Selector fed each new one.
type refQueryCache struct {
	seen map[cache.PeerID]bool
	sel  *Selector
}

func (r *refQueryCache) Reset(sel Selection, rng *simrng.RNG, self cache.PeerID) {
	r.seen = map[cache.PeerID]bool{self: true}
	r.sel = NewSelector(sel, rng)
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
// result or the Pending count. At the end both are drained, so the
// whole Next order is compared.
func runQueryCacheScript(t *testing.T, q *QueryCache, sel Selection, seed uint64, script []byte) {
	t.Helper()
	pool := queryScriptAddrs
	rq, rr := simrng.New(seed), simrng.New(seed)
	ref := &refQueryCache{}
	q.Reset(sel, rq, pool[0])
	ref.Reset(sel, rr, pool[0])
	next := func(step int) bool {
		a, okA := q.Next()
		b, okB := ref.sel.Next()
		if a != b || okA != okB {
			t.Fatalf("step %d: Next = %+v, %v; reference %+v, %v", step, a, okA, b, okB)
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
			next(step)
		case 7:
			if arg%512 == 0 { // rare, or no script ever grows the table
				// Between queries: shed, then start the next one under a
				// policy and origin the script picks.
				sel = allSelections[int(op>>3)%len(allSelections)]
				q.Shed()
				q.Reset(sel, rq, addr)
				ref.Reset(sel, rr, addr)
			}
		}
		if got, want := q.Pending(), ref.sel.Len(); got != want {
			t.Fatalf("step %d: Pending = %d, reference %d", step, got, want)
		}
	}
	for next(len(script)) {
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
	if e, ok := q.Next(); !ok || e.Addr != 1 {
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
			a, okA := used.Next()
			b, okB := fresh.Next()
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
		for _, ok := q.Next(); ok; _, ok = q.Next() {
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
