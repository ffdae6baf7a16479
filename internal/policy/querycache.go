package policy

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/simrng"
)

// QueryCache is a query's cache of candidates, the paper's per-query
// scratch space: every address the query has heard of, from the link
// cache snapshot and from the pongs it received, each offered once to a
// QueryProbe Selector, which hands them back best first. What Next
// returns leaves the selector but stays seen, so no peer is probed
// twice by one query.
//
// The seen set is one open-addressed table: power-of-two length, linear
// probing, load at most 1/2. Zero marks an empty slot, so only positive
// addresses can be members; Add panics on anything else rather than
// lose it. The zero value must be Reset before use; Reset keeps the
// storage, so one QueryCache serves query after query without
// allocating.
type QueryCache struct {
	sel Selector
	tab []cache.PeerID
	n   int
}

const (
	// queryMinSlots holds the paper's default CacheSize of candidates, the
	// least a query starts with, without growing.
	queryMinSlots = 256
	// MaxRetainedCandidates bounds what Shed lets a finished query keep:
	// a seen table of 32 KiB and selector buffers of as many entries.
	// Reset clears the whole table, so without a bound one exhaustive
	// query (up to the whole population) would tax every later query
	// served by the same cache; above it the storage is dropped and the
	// next query grows its own.
	MaxRetainedCandidates = 2048
)

// Reset empties the cache for a new query whose candidates are ordered
// by sel (rng drives SelRandom). self, the querying peer, counts as
// seen, so it is never a candidate.
func (q *QueryCache) Reset(sel Selection, rng *simrng.RNG, self cache.PeerID) {
	q.sel.Reset(sel, rng)
	clear(q.tab)
	q.n = 0
	q.see(self)
}

// Add offers e as a candidate: if its address has not been seen during
// this query it goes to the selector. It reports whether e was new.
func (q *QueryCache) Add(e cache.Entry) bool {
	if !q.see(e.Addr) {
		return false
	}
	q.sel.Add(e)
	return true
}

// Next removes and returns the best pending candidate.
func (q *QueryCache) Next() (cache.Entry, bool) { return q.sel.Next() }

// Pending reports the number of candidates Next has yet to return.
func (q *QueryCache) Pending() int { return q.sel.Len() }

// Shed drops storage grown beyond MaxRetainedCandidates, so a cache
// kept for reuse after one exhaustive query does not carry that query's
// footprint into every later one. Call it between queries: the cache
// must be Reset before its next use.
func (q *QueryCache) Shed() {
	if len(q.tab) > 2*MaxRetainedCandidates {
		q.tab, q.n = nil, 0
	}
	q.sel.Shed(MaxRetainedCandidates)
}

// see inserts addr into the seen set, reporting whether it was absent.
func (q *QueryCache) see(addr cache.PeerID) bool {
	if addr <= 0 {
		panic(fmt.Sprintf("policy: non-positive address %d as a query candidate", addr))
	}
	if 2*(q.n+1) > len(q.tab) {
		q.grow()
	}
	// Probing starts at the top bits of a multiplicative hash, so runs
	// of consecutive IDs spread over the whole table.
	mask := len(q.tab) - 1
	for i := int(uint64(uint32(addr)) * 0x9E3779B97F4A7C15 >> bits.LeadingZeros64(uint64(mask))); ; i = (i + 1) & mask {
		switch q.tab[i] {
		case addr:
			return false
		case 0:
			q.tab[i] = addr
			q.n++
			return true
		}
	}
}

// grow doubles the table (or allocates the first one) and re-inserts
// the members.
func (q *QueryCache) grow() {
	old := q.tab
	q.tab = make([]cache.PeerID, max(2*len(old), queryMinSlots))
	q.n = 0
	for _, addr := range old {
		if addr != 0 {
			q.see(addr)
		}
	}
}
