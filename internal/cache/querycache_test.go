package cache

import (
	"slices"
	"testing"

	"repro/internal/simrng"
)

// mapQueryCache is the map-backed QueryCache the open-addressed one
// replaced, kept as the reference the op scripts compare against.
type mapQueryCache struct {
	entries  []Entry
	consumed map[PeerID]bool
}

func (q *mapQueryCache) Add(e Entry) bool {
	if _, seen := q.consumed[e.Addr]; seen {
		return false
	}
	if q.consumed == nil {
		q.consumed = make(map[PeerID]bool)
	}
	q.consumed[e.Addr] = false
	q.entries = append(q.entries, e)
	return true
}

func (q *mapQueryCache) Seen(addr PeerID) bool {
	_, ok := q.consumed[addr]
	return ok
}

func (q *mapQueryCache) Consume(addr PeerID) {
	if _, ok := q.consumed[addr]; ok {
		q.consumed[addr] = true
	}
}

func (q *mapQueryCache) Pending() []Entry {
	out := make([]Entry, 0, len(q.entries))
	for _, e := range q.entries {
		if !q.consumed[e.Addr] {
			out = append(out, e)
		}
	}
	return out
}

func (q *mapQueryCache) PendingCount() int { return len(q.Pending()) }
func (q *mapQueryCache) Len() int          { return len(q.entries) }
func (q *mapQueryCache) Reset()            { *q = mapQueryCache{} }

// queryScriptAddrs is the address pool query-cache scripts draw from:
// enough addresses to grow the table past queryCacheMinSlots twice,
// mixing consecutive peer IDs, the simulator's fabricated range,
// negative values, and a run whose hashes all start probing at slot 0
// of the initial table, so long collision chains are routine.
func queryScriptAddrs() []PeerID {
	var pool []PeerID
	for a := PeerID(1); a <= 200; a++ {
		pool = append(pool, a, fabricatedBase+a, -a)
	}
	for a := PeerID(1 << 20); len(pool) < 700; a++ {
		if probeStart64(int64(a), queryCacheMinSlots) == 0 {
			pool = append(pool, a)
		}
	}
	return pool
}

// runQueryCacheScript decodes script into QueryCache calls (three
// bytes each: operation, then a 16-bit address choice), applies every
// call to one reused QueryCache and to the map-backed reference, and
// fails on the first observable difference. Pending() must agree entry
// for entry after every call: the live node's selector is fed in that
// order.
func runQueryCacheScript(t *testing.T, q *QueryCache, script []byte) {
	t.Helper()
	ref := &mapQueryCache{}
	pool := queryScriptAddrs()
	for step := 0; step+2 < len(script); step += 3 {
		op := script[step]
		arg := int(script[step+1])<<8 | int(script[step+2])
		addr := pool[arg%len(pool)]
		e := Entry{Addr: addr, TS: float64(step), NumFiles: int32(arg)}
		var a, b any
		switch op % 8 {
		case 0, 1, 2: // three times the weight: scripts should grow the table
			a, b = q.Add(e), ref.Add(e)
		case 3:
			a, b = q.Seen(addr), ref.Seen(addr)
		case 4, 5:
			q.Consume(addr)
			ref.Consume(addr)
		case 6:
			a, b = q.Seen(0), false // the sentinel is never a member
		case 7:
			if arg%512 == 0 { // rare, or no script ever grows the table
				q.Reset()
				ref.Reset()
			}
		}
		if a != b {
			t.Fatalf("step %d: op %d on %d: table=%v map=%v", step, op%8, addr, a, b)
		}
		if q.Len() != ref.Len() || q.PendingCount() != ref.PendingCount() {
			t.Fatalf("step %d: Len %d/%d PendingCount %d/%d (table/map)",
				step, q.Len(), ref.Len(), q.PendingCount(), ref.PendingCount())
		}
		// Pending is O(n); compare it on a sample of steps and at the end.
		if step%64 == 0 || step+5 >= len(script) {
			if got, want := q.Pending(), ref.Pending(); !slices.Equal(got, want) {
				t.Fatalf("step %d: Pending differs:\n table %v\n map   %v", step, got, want)
			}
		}
	}
}

// TestQueryCacheMatchesMapReference runs a few thousand seeded scripts
// through one QueryCache, Reset between scripts, so every script after
// the first runs on recycled storage of whatever size its predecessors
// grew; the long ones grow past the initial table more than once.
func TestQueryCacheMatchesMapReference(t *testing.T) {
	r := simrng.New(23)
	q := NewQueryCache()
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
		q.Reset()
		runQueryCacheScript(t, q, script)
		grew = grew || len(q.keys) > queryCacheMinSlots
	}
	if !grew {
		t.Fatal("no script grew the table past its initial size")
	}
}

func TestQueryCacheZeroPeerIDPanics(t *testing.T) {
	q := NewQueryCache()
	q.Add(Entry{Addr: 7})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Add of the zero PeerID did not panic")
			}
		}()
		q.Add(Entry{})
	}()
	// The refused call left the cache as it was, and the sentinel is
	// not a member even though every empty slot holds it.
	if q.Len() != 1 || q.Seen(0) || !q.Seen(7) {
		t.Fatalf("after the refused Add: Len=%d Seen(0)=%v Seen(7)=%v", q.Len(), q.Seen(0), q.Seen(7))
	}
	q.Consume(0)
	if q.PendingCount() != 1 {
		t.Fatal("Consume(0) consumed something")
	}
}

// TestQueryCacheResetReuse pins what the live node's scratch list
// relies on: a Reset cache behaves like a fresh one and, once grown,
// allocates nothing for a query that fits.
func TestQueryCacheResetReuse(t *testing.T) {
	q := NewQueryCache()
	fill := func() {
		for a := PeerID(1); a <= 120; a++ {
			if !q.Add(Entry{Addr: a}) {
				t.Fatalf("Add(%d) refused on an empty cache", a)
			}
			q.Consume(a)
		}
	}
	fill()
	q.Reset()
	if q.Len() != 0 || q.PendingCount() != 0 || q.Seen(1) || len(q.Pending()) != 0 {
		t.Fatal("Reset left candidates behind")
	}
	if allocs := testing.AllocsPerRun(20, func() { q.Reset(); fill() }); allocs != 0 {
		t.Fatalf("a reused QueryCache allocated %.0f times per query", allocs)
	}
}
