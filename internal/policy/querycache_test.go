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
func (r *refQueryCache) Next(skip func(cache.PeerID) bool) (cache.PeerID, bool) {
	if r.maxProbes > 0 && r.counts.Probes >= r.maxProbes {
		return 0, false
	}
	addr, ok := r.sel.Next()
	for ok && skip != nil && skip(addr) {
		addr, ok = r.sel.Next()
	}
	if ok {
		r.counts.Probes++
	}
	return addr, ok
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
// consecutive peer IDs and the simulator's fabricated range, each
// within one block; the addresses either side of block edges, k*512-1
// and k*512, in both ranges; the largest address; and the first and
// last address of blocks whose keys all start the directory search at
// slot 0 of the initial directory, so long collision chains are
// routine. Between them they touch enough blocks to grow the directory
// past dirMinSlots twice.
var queryScriptAddrs = func() []cache.PeerID {
	// Built once: the fuzzer runs a script per input.
	var pool []cache.PeerID
	for a := cache.PeerID(1); a <= 300; a++ {
		pool = append(pool, a, fabricatedBase+a)
	}
	for k := cache.PeerID(1); k <= 24; k++ {
		edge := k << blockShift
		pool = append(pool, edge-1, edge)
		if k <= 4 {
			pool = append(pool, fabricatedBase+edge-1, fabricatedBase+edge)
		}
	}
	pool = append(pool, math.MaxInt32)
	for key := int64(1 << 12); len(pool) < 760; key++ {
		if probeStart64(key, dirMinSlots) == 0 {
			pool = append(pool, cache.PeerID(key<<blockShift), cache.PeerID(key<<blockShift|(1<<blockShift-1)))
		}
	}
	return pool
}()

// runQueryCacheScript decodes script into QueryCache calls (three bytes
// each: operation, then a 16-bit address choice), applies every call to
// q and to the reference, each drawing on its own RNG seeded with seed,
// and fails on the first observable difference: an Add answer, a Next
// result, the candidates a Next skipped, the Pending count, the
// counters or Done; and, once the script is done, the members of the
// seen set (AppendSeen). A Next that hands out a probe is followed by its
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
		case 0, 1, 2, 3, 4: // the most weight: scripts should grow the directory
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
			case arg%512 == 0: // rare, or no script ever grows the directory
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
	seen := q.AppendSeen(nil)
	slices.Sort(seen)
	var want []cache.PeerID
	for a := range ref.seen {
		want = append(want, a)
	}
	slices.Sort(want)
	if !slices.Equal(seen, want) {
		t.Fatalf("AppendSeen = %v, reference %v", seen, want)
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
	if addr, ok := q.Next(nil); !ok || addr != 1 {
		t.Fatalf("Next = %d, %v", addr, ok)
	}
	if q.Add(cache.Entry{Addr: 1}) || q.Pending() != 0 {
		t.Fatal("a returned candidate was added again")
	}
}

// TestQueryCacheMatchesMapReference runs a few thousand seeded scripts
// through one QueryCache, under every policy in turn, so every script
// after the first runs on recycled storage of whatever size its
// predecessors grew; the long ones grow the directory past its initial
// size more than once.
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
		grew = grew || len(q.dir) > 2*dirMinSlots
	}
	if !grew {
		t.Fatal("no script grew the directory past twice its initial size")
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
				addr, ok := q.Next(tc.skip)
				if !ok || tc.skip != nil && tc.skip(addr) {
					t.Fatalf("probe %d: Next = %d, %v", i, addr, ok)
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

// seenMembers lists the seen set's members, read back through the
// directory, and fails unless the directory and slab agree: a
// power-of-two directory at most half full, each slot naming its own
// slab block, every block named once, and no block empty.
func seenMembers(t *testing.T, q *QueryCache) []cache.PeerID {
	t.Helper()
	n := len(q.dir)
	if n&(n-1) != 0 || 2*len(q.blocks) > n {
		t.Fatalf("%d blocks under a directory of %d slots", len(q.blocks), n)
	}
	named := make([]bool, len(q.blocks))
	var members []cache.PeerID
	for _, slot := range q.dir {
		if slot == 0 {
			continue
		}
		key, i := uint32(slot>>32)-1, uint32(slot)
		if int(i) >= len(q.blocks) || named[i] {
			t.Fatalf("directory slot %#x: block %d of %d, named before: %v", slot, i, len(q.blocks), int(i) < len(named) && named[i])
		}
		named[i] = true
		before := len(members)
		for w, word := range q.blocks[i] {
			for ; word != 0; word &= word - 1 {
				members = append(members, cache.PeerID(key<<blockShift|uint32(w*64+bits.TrailingZeros64(word))))
			}
		}
		if len(members) == before {
			t.Fatalf("block %d (key %d) is empty", i, key)
		}
	}
	if slices.Contains(named, false) {
		t.Fatalf("a slab block has no directory slot: %v", named)
	}
	return members
}

// TestQueryCacheRejectsNonPositive pins the choice the type's comment
// states: the seen set holds positive addresses only, so zero and
// negative addresses are refused loudly instead of being forgotten, and
// a refused call leaves the cache as it was.
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
		if seen := seenMembers(t, &q); q.Pending() != 1 || !slices.Equal(seen, []cache.PeerID{1, 7}) || q.Add(cache.Entry{Addr: 7}) {
			t.Fatalf("after the refused Add(%d): %d pending, seen %v", a, q.Pending(), seen)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with origin 0 did not panic")
		}
	}()
	q.Reset(SelMFS, nil, 0)
}

// TestQueryCacheGrowthKeepsMembers adds addresses from 258 blocks, real
// and fabricated, until 256 of them are touched: five doublings of the
// directory. After each add the directory and slab must agree and the
// load bound hold; at the end every member must still be a member and
// nothing else be one.
func TestQueryCacheGrowthKeepsMembers(t *testing.T) {
	const blocks = dirMinSlots / 2 << 5
	const self = cache.PeerID(1)
	var q QueryCache
	q.Reset(SelMFS, nil, self)
	r := simrng.New(3)
	want := map[cache.PeerID]bool{self: true}
	added := []cache.PeerID{self}
	for len(q.blocks) < blocks {
		a := cache.PeerID(r.Intn(1<<16) + 1)
		if r.Intn(4) == 0 {
			a += fabricatedBase
		}
		if q.Add(cache.Entry{Addr: a}) == want[a] {
			t.Fatalf("Add(%d) = %v with the address already added: %v", a, !want[a], want[a])
		}
		if !want[a] {
			want[a] = true
			added = append(added, a)
		}
		if n := len(q.dir); n&(n-1) != 0 || 2*len(q.blocks) > n {
			t.Fatalf("%d blocks under %d directory slots", len(q.blocks), n)
		}
	}
	if len(q.dir) != dirMinSlots<<5 {
		t.Fatalf("directory has %d slots for %d blocks, want %d", len(q.dir), blocks, dirMinSlots<<5)
	}
	stored := seenMembers(t, &q)
	for _, a := range stored {
		if !want[a] {
			t.Fatalf("seen set holds %d, never added", a)
		}
	}
	if len(stored) != len(want) || q.Pending() != len(want)-1 {
		t.Fatalf("stored %d, %d pending; want %d members, the origin not pending", len(stored), q.Pending(), len(want))
	}
	for _, a := range added {
		if q.Add(cache.Entry{Addr: a}) {
			t.Fatalf("member %d lost in growth", a)
		}
	}
}

// TestQueryCacheResetEqualsFresh feeds one add sequence to a fresh
// cache and to a reset one that had grown its directory and been shed:
// Add's answers and the Next order must match.
func TestQueryCacheResetEqualsFresh(t *testing.T) {
	const span = 4 * dirMinSlots << blockShift // blocks enough for two doublings
	for _, sel := range allSelections {
		var used QueryCache
		used.Reset(sel, simrng.New(1), 1)
		for a := cache.PeerID(2); a <= span; a += 7 {
			used.Add(cache.Entry{Addr: a})
		}
		slots := len(used.dir)
		if slots <= dirMinSlots {
			t.Fatalf("%v: every seventh address up to %d did not grow the directory", sel, span)
		}
		used.Shed()
		used.Reset(sel, simrng.New(5), 2)
		if seen := seenMembers(t, &used); !slices.Equal(seen, []cache.PeerID{2}) || len(used.dir) != slots || used.Pending() != 0 {
			t.Fatalf("%v: reset left seen %v, %d slots (had %d), %d pending", sel, seen, len(used.dir), slots, used.Pending())
		}
		var fresh QueryCache
		fresh.Reset(sel, simrng.New(5), 2)
		r := simrng.New(5)
		for i := 0; i < 2*span; i++ {
			e := cache.Entry{Addr: cache.PeerID(r.Intn(2*span) + 1), NumFiles: int32(r.Intn(9))}
			if got, want := used.Add(e), fresh.Add(e); got != want {
				t.Fatalf("%v: Add(%d) (#%d): reset cache says %v, fresh cache %v", sel, e.Addr, i, got, want)
			}
		}
		for {
			a, okA := used.Next(nil)
			b, okB := fresh.Next(nil)
			if a != b || okA != okB {
				t.Fatalf("%v: Next = %d, %v after reset; %d, %v fresh", sel, a, okA, b, okB)
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

// probeStart64 is where a 64-bit multiplicative hash of key starts
// probing a table of the given length: the directory's reference.
func probeStart64(key int64, slots int) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> bits.LeadingZeros64(uint64(slots-1)))
}

// TestQueryCacheProbeStartAsBefore adds every ID a million-peer run can
// assign, and strides up to the last real one, to a query with an empty
// directory: the slot its block lands in is where the directory search
// starts, and must be where the 64-bit hash of the block key starts
// (cache's TestRealIDsHashAsBefore covers the link cache's tag). A
// fabricated address's key must be its unsigned value's top bits, not a
// sign-extended one's.
func TestQueryCacheProbeStartAsBefore(t *testing.T) {
	for _, slots := range []int{dirMinSlots, 512} {
		q := QueryCache{dir: make([]uint64, slots)}
		check := func(id cache.PeerID) {
			t.Helper()
			key := uint32(id) >> blockShift
			want := probeStart64(int64(key), slots)
			if !q.see(id) || q.dir[want] != uint64(key+1)<<32 {
				t.Fatalf("see(%d) in %d empty slots did not land in slot %d", id, slots, want)
			}
			q.dir[want], q.blocks = 0, q.blocks[:0]
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
