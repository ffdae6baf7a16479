package policy

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/simrng"
)

// QueryCache is the record of one GUESS query, the one search loop
// that the simulator and the live node both drive. It holds the query's
// cache of candidates, the paper's per-query scratch space: every
// address the query has heard of, from the link cache snapshot and from
// the pongs it received, each offered once to a QueryProbe Selector,
// which hands them back best first. What Next returns leaves the
// selector but stays seen, so no peer is probed twice by one query.
// It also holds what the query has spent and gained, and its stop rule:
// the driver takes a probe from Next, reports how it ended through
// Good, Dead or Refused, and stops when Done says so.
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

	counts             QueryCounts
	desired, maxProbes int
}

// QueryCounts is what a query has spent and gained so far.
type QueryCounts struct {
	// Probes counts the candidates Next handed out. Each is then Good,
	// Dead or Refused, unless the driver abandoned it in flight.
	Probes, Good, Dead, Refused int
	// Results sums the results of the good probes.
	Results int
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

// Reset empties the record for a new query whose candidates are
// ordered by sel (rng drives SelRandom): no candidates, every counter
// zero, no probe cap, and no result count that satisfies it until Limit
// sets one, so the query runs until its candidates are exhausted. self,
// the querying peer, counts as seen, so it is never a candidate.
func (q *QueryCache) Reset(sel Selection, rng *simrng.RNG, self cache.PeerID) {
	q.sel.Reset(sel, rng)
	clear(q.tab)
	q.n = 0
	q.counts = QueryCounts{}
	q.desired, q.maxProbes = math.MaxInt, 0
	q.see(self)
}

// Limit sets the query's stop rule: it is satisfied once desired
// results have arrived, and Next hands out at most maxProbes probes
// (zero: no cap). Call it after Reset.
func (q *QueryCache) Limit(desired, maxProbes int) {
	q.desired, q.maxProbes = desired, maxProbes
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

// Next removes the best pending candidate that skip does not reject
// (nil rejects none) and hands it out as the query's next probe,
// counting it. Rejected candidates are drained as they come up: they
// stay seen and are not counted. Once the probe cap is reached Next
// returns nothing, and touches neither the candidates nor the RNG.
func (q *QueryCache) Next(skip func(cache.PeerID) bool) (cache.Entry, bool) {
	if q.capped() {
		return cache.Entry{}, false
	}
	for {
		e, ok := q.sel.Next()
		if !ok {
			return e, false
		}
		if skip == nil || !skip(e.Addr) {
			q.counts.Probes++
			return e, true
		}
	}
}

// Good records that the last probe was answered with results results.
func (q *QueryCache) Good(results int) {
	q.counts.Good++
	q.counts.Results += results
}

// Dead records that the last probe went unanswered.
func (q *QueryCache) Dead() { q.counts.Dead++ }

// Refused records that the last probe was refused by an overloaded
// peer.
func (q *QueryCache) Refused() { q.counts.Refused++ }

// Counts returns what the query has spent and gained so far.
func (q *QueryCache) Counts() QueryCounts { return q.counts }

// Done reports whether the query should stop: done once it is
// satisfied, its candidates are exhausted or its probe cap is reached,
// and satisfied when the desired results have arrived, which is checked
// first, so a query whose last candidate satisfied it is satisfied.
func (q *QueryCache) Done() (satisfied, done bool) {
	if q.counts.Results >= q.desired {
		return true, true
	}
	return false, q.sel.Len() == 0 || q.capped()
}

// capped reports whether the query has had all the probes its cap
// allows.
func (q *QueryCache) capped() bool { return q.maxProbes > 0 && q.counts.Probes >= q.maxProbes }

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
