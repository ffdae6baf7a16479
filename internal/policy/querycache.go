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
// The seen set is a sparse bitmap over the 32-bit address space. It is
// cut into blocks of 512 addresses, each one 64-byte cache line of bits;
// the blocks a query touches sit in a slab in the order they were first
// touched, and a small directory maps a block's key (its address's top
// bits) to its place in the slab. The directory is open-addressed:
// power-of-two length, linear probing, load at most 1/2, one packed
// uint64 per slot, zero marking an empty one. A membership test is one
// probe of the directory, which stays hot, and one bit test. Peer IDs
// are dense from 1 and fabricated addresses dense from 1<<30, so a query
// over a thousand peers touches a handful of blocks: few enough lines to
// stay in cache while a hundred other queries probe between two of its
// own. Only positive addresses can be members; Add panics on
// anything else rather than lose it. The zero value must be Reset
// before use; Reset keeps the storage, so one QueryCache serves query
// after query without allocating. It clears only the directory: a
// block is zeroed when a query first touches it.
//
// The block size was chosen on BenchmarkQueryCacheInterleaved (128
// queries in flight over 2 400 IDs; ns per step, median of ten
// interleaved 1 s runs, Intel Xeon, 2 vCPU). The first row, for
// comparison, is an open-addressed []PeerID seen set at most half full
// with candidates kept as whole cache.Entry values. Every block size
// beats it, and the sizes differ by less than their runs' interquartile
// spread, so a block is the one cache line.
//
//	seen set                            Random   MFS
//	open-addressed table, Entry values    274    965
//	blocks of  256 addresses (32 B)       188    629
//	blocks of  512 addresses (64 B)       200    612
//	blocks of 1024 addresses (128 B)      179    626
//	blocks of 2048 addresses (256 B)      185    587
type QueryCache struct {
	sel Selector
	// dir maps a block key to its slab index: slot = (key+1)<<32 | index.
	dir    []uint64
	blocks [][blockWords]uint64

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
	// blockShift makes a block of the seen set 1<<blockShift = 512
	// addresses, blockWords words: one 64-byte cache line.
	blockShift = 9
	blockWords = 1 << blockShift / 64
	// dirMinSlots is the directory a query starts with: room for 8
	// blocks, 4 096 addresses, without growing.
	dirMinSlots = 16
	// maxRetainedBlocks bounds the seen set Shed lets a finished query
	// keep: a slab of 256 blocks, a 16 KiB bitmap of 131 072 addresses,
	// and the directory that indexes it, at most 512 slots (4 KiB). Reset
	// clears the whole directory, so without a bound one exhaustive query
	// (up to the whole population) would tax every later query served by
	// the same cache; above it the storage is dropped and the next query
	// grows its own.
	maxRetainedBlocks = 256
	// MaxRetainedCandidates bounds the candidate buffers Shed lets a
	// finished query keep, for the same reason: room for 2 048
	// candidates, 8 KiB under SelRandom and 32 KiB under a scored policy.
	MaxRetainedCandidates = 2048
)

// Reset empties the record for a new query whose candidates are
// ordered by sel (rng drives SelRandom): no candidates, every counter
// zero, no probe cap, and no result count that satisfies it until Limit
// sets one, so the query runs until its candidates are exhausted. self,
// the querying peer, counts as seen, so it is never a candidate.
func (q *QueryCache) Reset(sel Selection, rng *simrng.RNG, self cache.PeerID) {
	q.sel.Reset(sel, rng)
	if q.dir == nil {
		q.dir = make([]uint64, dirMinSlots)
		q.blocks = make([][blockWords]uint64, 0, dirMinSlots/2)
	} else {
		clear(q.dir)
		q.blocks = q.blocks[:0]
	}
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
// (nil rejects none) and hands its address out as the query's next probe,
// counting it. Rejected candidates are drained as they come up: they
// stay seen and are not counted. Once the probe cap is reached Next
// returns nothing, and touches neither the candidates nor the RNG.
func (q *QueryCache) Next(skip func(cache.PeerID) bool) (cache.PeerID, bool) {
	if q.capped() {
		return 0, false
	}
	for {
		addr, ok := q.sel.Next()
		if !ok {
			return 0, false
		}
		if skip == nil || !skip(addr) {
			q.counts.Probes++
			return addr, true
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

// Shed drops storage grown beyond its bounds (maxRetainedBlocks,
// MaxRetainedCandidates), so a cache kept for reuse after one exhaustive
// query does not carry that query's footprint into every later one.
// Call it between queries: the cache must be Reset before its next use.
func (q *QueryCache) Shed() {
	if cap(q.blocks) > maxRetainedBlocks {
		q.dir, q.blocks = nil, nil
	}
	q.sel.Shed(MaxRetainedCandidates)
}

// AppendSeen appends the members of the seen set to dst, in no
// particular order: the querying peer, every candidate Add took and so
// every address Next has handed out. It walks the blocks' bits, so it
// costs the blocks the query touched, not the addresses it heard.
func (q *QueryCache) AppendSeen(dst []cache.PeerID) []cache.PeerID {
	for _, slot := range q.dir {
		if slot == 0 {
			continue
		}
		base := (uint32(slot>>32) - 1) << blockShift
		for w, word := range q.blocks[uint32(slot)] {
			for ; word != 0; word &= word - 1 {
				dst = append(dst, cache.PeerID(base+uint32(w)*64+uint32(bits.TrailingZeros64(word))))
			}
		}
	}
	return dst
}

// see inserts addr into the seen set, reporting whether it was absent.
func (q *QueryCache) see(addr cache.PeerID) bool {
	if addr <= 0 {
		panic(fmt.Sprintf("policy: non-positive address %d as a query candidate", addr))
	}
	u := uint32(addr)
	w := &q.block(u >> blockShift)[u/64%blockWords]
	bit := uint64(1) << (u % 64)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// block returns the block of the seen set with the given key, adding an
// empty one to the slab if the query has not touched it before.
func (q *QueryCache) block(key uint32) *[blockWords]uint64 {
	mask := len(q.dir) - 1
	for i := dirStart(key, mask); ; i = (i + 1) & mask {
		switch slot := q.dir[i]; {
		case slot>>32 == uint64(key)+1:
			return &q.blocks[uint32(slot)]
		case slot == 0:
			if 2*(len(q.blocks)+1) > len(q.dir) {
				q.growDir()
				return q.block(key)
			}
			q.dir[i] = (uint64(key)+1)<<32 | uint64(len(q.blocks))
			q.blocks = append(q.blocks, [blockWords]uint64{})
			return &q.blocks[len(q.blocks)-1]
		}
	}
}

// dirStart is the directory slot where the search for a block key
// starts: the top bits of a multiplicative hash, so runs of consecutive
// keys spread over the whole directory.
func dirStart(key uint32, mask int) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> bits.LeadingZeros64(uint64(mask)))
}

// growDir doubles the directory and re-inserts its slots; the slab is
// untouched.
func (q *QueryCache) growDir() {
	old := q.dir
	q.dir = make([]uint64, 2*len(old))
	mask := len(q.dir) - 1
	for _, slot := range old {
		if slot == 0 {
			continue
		}
		i := dirStart(uint32(slot>>32)-1, mask)
		for q.dir[i] != 0 {
			i = (i + 1) & mask
		}
		q.dir[i] = slot
	}
}
