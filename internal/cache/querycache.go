package cache

import "math/bits"

// QueryCache is the per-query scratch space of the GUESS protocol: a
// theoretically unbounded set of candidate addresses accumulated from
// pong messages while a query runs. It tracks which candidates have
// been consumed (probed) or discovered dead, and is discarded when the
// query completes — entries in it are never maintained.
//
// Candidates are kept in arrival order and found through an
// open-addressed table (power-of-two length, linear probing, load at
// most 1/2) whose empty slots hold the zero PeerID, so the zero PeerID
// cannot be a candidate: Add panics on it. Reset empties the cache and
// keeps its storage, so one QueryCache can serve query after query
// without allocating. The zero value is an empty cache.
type QueryCache struct {
	entries  []Entry
	consumed []bool // parallel to entries

	// keys[i] is the address in slot i (0 = empty) and at[i] its index
	// in entries.
	keys []PeerID
	at   []int32
}

// queryCacheMinSlots holds the default 100-entry link cache, the least
// a live query starts with, without growing.
const queryCacheMinSlots = 256

// NewQueryCache returns an empty query cache.
func NewQueryCache() *QueryCache { return &QueryCache{} }

// Reset empties the cache, keeping its storage.
func (q *QueryCache) Reset() {
	q.entries = q.entries[:0]
	q.consumed = q.consumed[:0]
	clear(q.keys)
}

// slot returns the table slot holding addr, or the empty slot where it
// would go. The table must be non-empty.
func (q *QueryCache) slot(addr PeerID) int {
	// Probing starts at the top bits of a multiplicative hash, so runs
	// of consecutive IDs spread over the whole table.
	mask := len(q.keys) - 1
	i := int(uint64(uint32(addr)) * 0x9E3779B97F4A7C15 >> bits.LeadingZeros64(uint64(mask)))
	for q.keys[i] != addr && q.keys[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// index returns addr's position in entries, or -1 if it was never
// added.
func (q *QueryCache) index(addr PeerID) int {
	if addr == 0 || len(q.keys) == 0 {
		return -1
	}
	if i := q.slot(addr); q.keys[i] == addr {
		return int(q.at[i])
	}
	return -1
}

// grow doubles the table (or allocates the first one) and re-inserts
// every candidate.
func (q *QueryCache) grow() {
	n := max(2*len(q.keys), queryCacheMinSlots)
	q.keys = make([]PeerID, n)
	q.at = make([]int32, n)
	for j, e := range q.entries {
		i := q.slot(e.Addr)
		q.keys[i], q.at[i] = e.Addr, int32(j)
	}
}

// Add records a candidate if its address has not been seen during this
// query (pending, consumed, or otherwise). It reports whether the
// candidate was added.
func (q *QueryCache) Add(e Entry) bool {
	if e.Addr == 0 {
		panic("cache: the zero PeerID as a query candidate")
	}
	if 2*(len(q.entries)+1) > len(q.keys) {
		q.grow()
	}
	i := q.slot(e.Addr)
	if q.keys[i] == e.Addr {
		return false
	}
	q.keys[i], q.at[i] = e.Addr, int32(len(q.entries))
	q.entries = append(q.entries, e)
	q.consumed = append(q.consumed, false)
	return true
}

// Seen reports whether addr has ever been added.
func (q *QueryCache) Seen(addr PeerID) bool { return q.index(addr) >= 0 }

// Consume marks addr as probed so it is not returned again.
func (q *QueryCache) Consume(addr PeerID) {
	if j := q.index(addr); j >= 0 {
		q.consumed[j] = true
	}
}

// Pending returns the entries not yet consumed. The returned slice is
// freshly allocated.
func (q *QueryCache) Pending() []Entry {
	out := make([]Entry, 0, len(q.entries))
	for j, e := range q.entries {
		if !q.consumed[j] {
			out = append(out, e)
		}
	}
	return out
}

// PendingCount returns the number of unconsumed candidates.
func (q *QueryCache) PendingCount() int {
	n := 0
	for _, c := range q.consumed {
		if !c {
			n++
		}
	}
	return n
}

// Len returns the total number of candidates ever added.
func (q *QueryCache) Len() int { return len(q.entries) }
