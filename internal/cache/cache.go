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
// table. A lookup is bytes.IndexByte over the tags (vectorised in the
// standard library on amd64 and arm64), and every tag hit is verified
// against entries[i].Addr, resuming after a false positive (a wrong
// address shares the tag once per 256 slots scanned). One byte per
// slot beside the 24-byte entry makes 25 bytes per cached pointer,
// the difference between a million-peer simulation fitting in memory
// or not, since link caches dominate the simulator's heap. The scan
// grows with the capacity, so large caches (the paper's
// multi-thousand-entry sweeps) index their slots with a slotIndex
// instead.
type LinkCache struct {
	capacity int
	entries  []Entry
	// tags[i] is tagOf(entries[i].Addr); it is the lookup index of a
	// small cache, nil for a large one.
	tags []byte
	// slots is the lookup index of a large cache, nil for a small one.
	// A pointer keeps the header at 64 bytes: the simulator's peer
	// store holds one header per peer by value.
	slots *slotIndex
}

// slotIndex maps addresses to slots of a large cache. It is
// open-addressed: pos has a power-of-two length at least twice the
// entries' allocated length (so it is at most half full), an address
// probes linearly from its home, the top bits of the hash tagOf takes
// its byte from, and a position holds an address in its high 32 bits
// beside its slot plus one in the low 32, 0 when empty. With the
// address in the index, neither a lookup nor a deletion reads an
// entry. Deletion shifts the rest of the cluster back (no tombstones),
// so a lookup stops at the first empty position.
type slotIndex struct {
	pos []uint64
	// shift is 64 - log2(len(pos)): hash >> shift is an address's home.
	shift uint
}

// newSlotIndex returns an empty index with room for n entries.
func newSlotIndex(n int) *slotIndex {
	size, shift := 1, uint(64)
	for size < 2*n {
		size, shift = 2*size, shift-1
	}
	return &slotIndex{pos: make([]uint64, size), shift: shift}
}

// home is addr's first probe position.
func (s *slotIndex) home(addr PeerID) int {
	return int(fibHash(addr) >> s.shift)
}

// find returns the position holding addr, else -1.
func (s *slotIndex) find(addr PeerID) int {
	mask := len(s.pos) - 1
	for h := s.home(addr); ; h = (h + 1) & mask {
		v := s.pos[h]
		if v == 0 {
			return -1
		}
		if PeerID(v>>32) == addr {
			return h
		}
	}
}

// slot returns the slot position h names.
func (s *slotIndex) slot(h int) int { return int(uint32(s.pos[h])) - 1 }

// set makes position h name slot for addr.
func (s *slotIndex) set(h int, addr PeerID, slot int) {
	s.pos[h] = uint64(uint32(addr))<<32 | uint64(slot+1)
}

// insert records that slot holds addr, which the index must not hold.
func (s *slotIndex) insert(addr PeerID, slot int) {
	mask := len(s.pos) - 1
	h := s.home(addr)
	for s.pos[h] != 0 {
		h = (h + 1) & mask
	}
	s.set(h, addr, slot)
}

// remove empties position h and closes the gap: each later member of
// h's cluster that may sit at the hole (its home is not cyclically
// after the hole) moves there, leaving a hole where it was, until the
// cluster ends. Every lookup then still reaches its address without
// crossing an empty position.
func (s *slotIndex) remove(h int) {
	mask := len(s.pos) - 1
	for j := (h + 1) & mask; s.pos[j] != 0; j = (j + 1) & mask {
		if (j-s.home(PeerID(s.pos[j]>>32)))&mask >= (j-h)&mask {
			s.pos[h] = s.pos[j]
			h = j
		}
	}
	s.pos[h] = 0
}

// linearIndexMax is the largest capacity served by the tag index.
// BenchmarkAddRemoveCycle runs both indexes at every capacity, on one
// cache that stays in the CPU's caches; ns per cycle of the per-probe
// mutation mix (median of five, 2 vCPU, go1.24):
//
//	capacity   32  100  128  200  256  512  1000  2000  5000
//	tags       28   47   53   75   85  175   327   571   966
//	slots      41   38   44   36   42   45    48    27    21
//
// A simulation touches a different peer's cache at every probe, so
// what a lookup costs there is mostly memory misses, which the scan of
// a few contiguous tag lines hides better than a random index
// position. guess-sim at N=1000 with fig3's parameters (lifespan 0.2,
// four times the query rate, 200+600 s), wall seconds, median of three
// seeds, each index forced at every capacity:
//
//	capacity    200   256   320   400   500   1000
//	tags       4.36  4.83  5.54  6.04  6.16  8.21
//	slots      4.71  5.20  5.69  5.86  5.86  6.38
//
// (500 and 1000 are one or two runs.) The two are level at 320 and
// the slot index leads from 400 up, while the tags hold a cache in a
// fraction of the memory, so the tags serve up to 256 entries, and
// NewLinkCache allocates those caches whole; none of the paper's sweep
// points lies between 256 and 400.
const linearIndexMax = 256

// fibHash is the Fibonacci hash of addr, taken as its unsigned value.
// Simulator addresses are small consecutive integers (and fabricated
// ones consecutive from 1<<30), so both indexes take its top bits
// rather than any bits of the address itself.
func fibHash(addr PeerID) uint64 {
	return uint64(uint32(addr)) * 0x9E3779B97F4A7C15
}

// tagOf is the one-byte fingerprint of addr kept in LinkCache.tags:
// the top byte of its Fibonacci hash.
func tagOf(addr PeerID) byte {
	return byte(fibHash(addr) >> 56)
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
		entries:  make([]Entry, 0, min(capacity, linearIndexMax)),
	}
	if capacity <= linearIndexMax {
		c.tags = make([]byte, 0, capacity)
	} else {
		c.slots = newSlotIndex(cap(c.entries))
	}
	return c
}

// find returns the unique slot whose entry has this address, else -1.
func (c *LinkCache) find(addr PeerID) int {
	if c.slots != nil {
		if h := c.slots.find(addr); h >= 0 {
			return c.slots.slot(h)
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
// work. Copy it for a snapshot that survives later cache mutations.
func (c *LinkCache) Entries() []Entry { return c.entries }

// Add inserts e if there is room and the address is not already
// present. It reports whether the entry was inserted. Use ReplaceAt for
// policy-driven replacement when full.
func (c *LinkCache) Add(e Entry) bool {
	if c.Full() || c.Has(e.Addr) {
		return false
	}
	if len(c.entries) == cap(c.entries) {
		c.grow()
	}
	if c.slots != nil {
		c.slots.insert(e.Addr, len(c.entries))
	} else {
		c.tags = append(c.tags, tagOf(e.Addr))
	}
	c.entries = append(c.entries, e)
	return true
}

// grow doubles the backing array, stopping at the capacity: left to
// append, a 300-entry cache would end on 512 slots and a 1000-entry one
// well past 1000. The slot index is rebuilt to stay at most half full.
// Only caches above NewLinkCache's linearIndexMax-entry start get here,
// so the tags, allocated whole, never grow.
func (c *LinkCache) grow() {
	grown := make([]Entry, len(c.entries), min(2*len(c.entries), c.capacity))
	copy(grown, c.entries)
	c.entries = grown
	if 2*cap(grown) > len(c.slots.pos) {
		c.slots = newSlotIndex(cap(grown))
		for i, e := range grown {
			c.slots.insert(e.Addr, i)
		}
	}
}

// ReplaceAt evicts the entry at index i and installs e in its place.
// It panics if i is out of range or e.Addr is already present at a
// different slot — both indicate a broken replacement policy.
func (c *LinkCache) ReplaceAt(i int, e Entry) {
	if i < 0 || i >= len(c.entries) {
		panic(fmt.Sprintf("cache: ReplaceAt(%d) with %d entries", i, len(c.entries)))
	}
	if j := c.find(e.Addr); j >= 0 && j != i {
		panic(fmt.Sprintf("cache: ReplaceAt would duplicate addr %d", e.Addr))
	}
	if c.slots == nil {
		c.tags[i] = tagOf(e.Addr)
	} else if old := c.entries[i].Addr; old != e.Addr {
		c.slots.remove(c.slots.find(old))
		c.slots.insert(e.Addr, i)
	}
	c.entries[i] = e
}

// Remove deletes addr, reporting whether it was present. Removal is
// O(1) via swap-with-last, so entry order is not stable.
func (c *LinkCache) Remove(addr PeerID) bool {
	if c.slots != nil {
		return c.removeIndexed(addr)
	}
	i := c.find(addr)
	if i < 0 {
		return false
	}
	last := len(c.entries) - 1
	c.entries[i] = c.entries[last]
	c.entries = c.entries[:last]
	c.tags[i] = c.tags[last]
	c.tags = c.tags[:last]
	return true
}

// removeIndexed is Remove for a cache with a slot index.
func (c *LinkCache) removeIndexed(addr PeerID) bool {
	h := c.slots.find(addr)
	if h < 0 {
		return false
	}
	i, last := c.slots.slot(h), len(c.entries)-1
	c.slots.remove(h)
	if i != last {
		moved := c.entries[last]
		c.slots.set(c.slots.find(moved.Addr), moved.Addr, i)
		c.entries[i] = moved
	}
	c.entries = c.entries[:last]
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
	if c.slots != nil {
		clear(c.slots.pos)
	}
}

// checkInvariants panics if the index and the entries slice disagree.
// It is called from tests only.
func (c *LinkCache) checkInvariants() {
	if len(c.entries) > c.capacity {
		panic("cache: over capacity")
	}
	if c.slots != nil {
		if c.tags != nil {
			panic("cache: two indexes")
		}
		if 2*cap(c.entries) > len(c.slots.pos) || len(c.slots.pos) != 1<<(64-c.slots.shift) {
			panic("cache: slot index more than half full")
		}
		used := 0
		for _, v := range c.slots.pos {
			if v != 0 {
				used++
			}
		}
		if used != len(c.entries) {
			panic("cache: slot index size mismatch")
		}
	} else if len(c.tags) != len(c.entries) {
		panic("cache: tags size mismatch")
	}
	for i, e := range c.entries {
		if c.slots == nil && c.tags[i] != tagOf(e.Addr) {
			panic("cache: stale tag")
		}
		if j := c.find(e.Addr); j != i {
			panic("cache: index points to wrong slot")
		}
	}
}
