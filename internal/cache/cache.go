// Package cache implements the bounded link cache of the GUESS
// protocol (the peer's "neighbor list") and the pointer format that it
// and the per-query query cache ("scratch space") hold. The query cache
// is policy.QueryCache, which keeps of a pointer only what its
// decisions read: the address, as a bit in a sparse block bitmap of
// the addresses seen and as a bare candidate in its selector (beside
// the score, under a scored policy).
//
// A cache entry is the paper's pointer format
// {IP address, TS, NumFiles, NumRes} plus a Direct flag recording
// whether NumRes comes from the owner's own experience (needed by the
// MR* policy, which distrusts third-party result counts).
package cache

import (
	"bytes"
	"fmt"
)

// PeerID is a peer's address. In the simulator it doubles as the
// unique, monotonically increasing peer identifier; addresses of dead
// peers are never reused, and fabricated addresses (used by malicious
// peers to poison caches) come from a disjoint range. It is 32 bits
// wide because every table of them (cache entries, queued events, seen
// sets) is sized by it; whoever numbers peers must stop at
// math.MaxInt32 rather than wrap, and anything hashing one converts
// through uint32 so that no ID sign-extends.
type PeerID int32

// Entry is a pointer to another peer, the unit stored in both caches.
// The fields are ordered to pack into 24 bytes.
type Entry struct {
	// Addr is the target peer's address.
	Addr PeerID
	// NumFiles is the number of files the target advertises.
	NumFiles int32
	// TS is the virtual time of the owner's last interaction with the
	// target (or the inherited timestamp, for entries learned from
	// pongs; the protocol forbids rewriting fields on insert).
	TS float64
	// NumRes is the number of results the target returned for the
	// owner's (or, if !Direct, some third party's) last query to it.
	NumRes int32
	// Direct records whether NumRes reflects the owner's own experience
	// with the target. Entries learned from pongs carry Direct=false
	// until the owner probes the target itself.
	Direct bool
}

// LinkCache is the bounded neighbor cache. It preserves insertion
// slots (stable indices are not guaranteed across removals) and
// rejects duplicate addresses. The zero value is unusable; call
// NewLinkCache.
//
// Small caches (capacity <= linearIndexMax, which covers the paper's
// default CacheSize) are fully flat: a one-byte tag per slot (the top
// byte of a multiplicative hash of the address) stands in for a hash
// map. A lookup is bytes.IndexByte over the tags (vectorised in the
// standard library on amd64 and arm64), and every tag hit is verified
// against entries[i].Addr, resuming after a false positive (a wrong
// address shares the tag once per 256 slots scanned). One byte per
// slot beside the 24-byte entry makes 25 bytes per cached pointer
// against roughly twice that with a map, the difference between a
// million-peer simulation fitting in memory or not, since link caches
// dominate the simulator's heap. Large caches (the paper's
// multi-thousand-entry sweeps) keep the map index.
type LinkCache struct {
	capacity int
	entries  []Entry
	// tags[i] is tagOf(entries[i].Addr); it is the flat lookup index
	// for small caches (nil when the map index is in use).
	tags []byte
	// index maps addresses to slots for large caches; nil for small
	// ones.
	index map[PeerID]int
}

// linearIndexMax is the largest capacity served by the tag index.
// BenchmarkAddRemoveCycle runs both indexes at every capacity; ns per
// cycle of the per-probe mutation mix (median of five, 2-vCPU 2.1 GHz
// Xeon VM, go1.24):
//
//	capacity    32   100   128   200   512
//	tags        16    27    31    47   114
//	map         21    34    25    47    58
//
// The scan grows with the capacity and a map probe does not: the two
// are level from 128 to 200, and at 512 the map is twice as fast. At
// and below the boundary the tags are kept for their size.
const linearIndexMax = 128

// tagOf is the one-byte fingerprint of addr kept in LinkCache.tags.
// Simulator addresses are small consecutive integers (and fabricated
// ones consecutive from 1<<30), so the tag is the top byte of a
// Fibonacci hash rather than any byte of the address itself.
func tagOf(addr PeerID) byte {
	return byte((uint64(uint32(addr)) * 0x9E3779B97F4A7C15) >> 56)
}

// NewLinkCache returns an empty link cache with the given capacity
// (the paper's CacheSize). It panics if capacity <= 0, which is always
// a configuration bug.
func NewLinkCache(capacity int) *LinkCache {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: non-positive link cache capacity %d", capacity))
	}
	c := &LinkCache{
		capacity: capacity,
		entries:  make([]Entry, 0, min(capacity, 256)),
	}
	if capacity <= linearIndexMax {
		c.tags = make([]byte, 0, capacity)
	} else {
		c.index = make(map[PeerID]int, min(capacity, 256))
	}
	return c
}

// find returns the unique slot whose entry has this address, else -1.
func (c *LinkCache) find(addr PeerID) int {
	if c.index != nil {
		if i, ok := c.index[addr]; ok {
			return i
		}
		return -1
	}
	tag := tagOf(addr)
	for from := 0; ; {
		i := bytes.IndexByte(c.tags[from:], tag)
		if i < 0 {
			return -1
		}
		i += from
		if c.entries[i].Addr == addr {
			return i
		}
		from = i + 1
	}
}

// Cap returns the cache's capacity.
func (c *LinkCache) Cap() int { return c.capacity }

// Len returns the number of entries currently held.
func (c *LinkCache) Len() int { return len(c.entries) }

// Full reports whether the cache is at capacity.
func (c *LinkCache) Full() bool { return len(c.entries) >= c.capacity }

// Has reports whether addr is present.
func (c *LinkCache) Has(addr PeerID) bool {
	return c.find(addr) >= 0
}

// Get returns the entry for addr, if present.
func (c *LinkCache) Get(addr PeerID) (Entry, bool) {
	i := c.find(addr)
	if i < 0 {
		return Entry{}, false
	}
	return c.entries[i], true
}

// Entries exposes the cache's backing slice for policy scans.
//
// Aliasing contract: the returned slice IS the cache's internal
// storage, not a copy. Callers must not grow or reorder it, and must
// not retain it across any mutation of the cache (Add, Remove,
// ReplaceAt, Clear) — the backing array may be reallocated, truncated,
// or have entries swapped into different slots. Mutating entry fields
// in place (e.g. TS updates) is allowed and is how Touch and SetNumRes
// work. Use AppendEntries for a stable snapshot that survives later
// cache mutations.
func (c *LinkCache) Entries() []Entry { return c.entries }

// AppendEntries appends a copy of the cache's entries to dst and
// returns the extended slice, for callers that need a snapshot
// surviving subsequent cache mutations. Passing dst[:0] reuses dst's
// storage.
func (c *LinkCache) AppendEntries(dst []Entry) []Entry {
	return append(dst, c.entries...)
}

// Add inserts e if there is room and the address is not already
// present. It reports whether the entry was inserted. Use ReplaceAt for
// policy-driven replacement when full.
func (c *LinkCache) Add(e Entry) bool {
	if c.Full() || c.Has(e.Addr) {
		return false
	}
	if c.index != nil {
		c.index[e.Addr] = len(c.entries)
	} else {
		c.tags = append(c.tags, tagOf(e.Addr))
	}
	if len(c.entries) == cap(c.entries) {
		c.grow()
	}
	c.entries = append(c.entries, e)
	return true
}

// grow doubles the backing array, stopping at the capacity: left to
// append, a 300-entry cache would end on 512 slots and a 1000-entry one
// well past 1000. Only caches above NewLinkCache's 256-entry start get
// here, so the tags, allocated whole, never grow.
func (c *LinkCache) grow() {
	grown := make([]Entry, len(c.entries), min(2*len(c.entries), c.capacity))
	copy(grown, c.entries)
	c.entries = grown
}

// ReplaceAt evicts the entry at index i and installs e in its place.
// It panics if i is out of range or e.Addr is already present at a
// different slot — both indicate a broken replacement policy.
func (c *LinkCache) ReplaceAt(i int, e Entry) {
	if i < 0 || i >= len(c.entries) {
		panic(fmt.Sprintf("cache: ReplaceAt(%d) with %d entries", i, len(c.entries)))
	}
	old := c.entries[i]
	if j := c.find(e.Addr); j >= 0 && j != i {
		panic(fmt.Sprintf("cache: ReplaceAt would duplicate addr %d", e.Addr))
	}
	if c.index != nil {
		delete(c.index, old.Addr)
		c.index[e.Addr] = i
	} else {
		c.tags[i] = tagOf(e.Addr)
	}
	c.entries[i] = e
}

// Remove deletes addr, reporting whether it was present. Removal is
// O(1) via swap-with-last, so entry order is not stable.
func (c *LinkCache) Remove(addr PeerID) bool {
	i := c.find(addr)
	if i < 0 {
		return false
	}
	last := len(c.entries) - 1
	moved := c.entries[last]
	c.entries[i] = moved
	c.entries = c.entries[:last]
	if c.index != nil {
		delete(c.index, addr)
		if i != last {
			c.index[moved.Addr] = i
		}
	} else {
		c.tags[i] = c.tags[last]
		c.tags = c.tags[:last]
	}
	return true
}

// Touch sets the TS field of addr's entry to now, if present. Per the
// protocol, TS is refreshed on every interaction regardless of which
// party initiated it.
func (c *LinkCache) Touch(addr PeerID, now float64) {
	if i := c.find(addr); i >= 0 {
		c.entries[i].TS = now
	}
}

// SetNumRes records the owner's direct experience: the target at addr
// just returned n results. It also marks the entry Direct.
func (c *LinkCache) SetNumRes(addr PeerID, n int32) {
	if i := c.find(addr); i >= 0 {
		c.entries[i].NumRes = n
		c.entries[i].Direct = true
	}
}

// Clear empties the cache while retaining its capacity and allocated
// storage, so simulators can recycle caches across peer generations
// (peer churn creates one cache per birth; a cleared cache behaves
// exactly like a fresh NewLinkCache of the same capacity).
func (c *LinkCache) Clear() {
	c.entries = c.entries[:0]
	c.tags = c.tags[:0]
	clear(c.index)
}

// checkInvariants panics if the index and the entries slice disagree.
// It is called from tests only.
func (c *LinkCache) checkInvariants() {
	if len(c.entries) > c.capacity {
		panic("cache: over capacity")
	}
	if c.index != nil {
		if len(c.index) != len(c.entries) {
			panic("cache: index size mismatch")
		}
	} else if len(c.tags) != len(c.entries) {
		panic("cache: tags size mismatch")
	}
	for i, e := range c.entries {
		if c.index == nil && c.tags[i] != tagOf(e.Addr) {
			panic("cache: stale tag")
		}
		if j := c.find(e.Addr); j != i {
			panic("cache: index points to wrong slot")
		}
	}
}
