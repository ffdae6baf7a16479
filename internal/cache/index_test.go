package cache

import (
	"math"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/simrng"
)

// The two LinkCache indexes (one tag byte per slot, open-addressed slot
// index) must be indistinguishable through the API, down to which slot
// every entry occupies: policies index Entries() with RNG draws, so a
// different slot is a different simulation. NewLinkCache picks the
// index from the capacity; the tests build both at one capacity.

// newIndexed returns an empty cache of the given capacity with the
// chosen index, whatever NewLinkCache would have picked. A
// slot-indexed cache starts as NewLinkCache starts a large one, so its
// entries and index grow as it fills.
func newIndexed(capacity int, slots bool) *LinkCache {
	if !slots {
		return &LinkCache{capacity: capacity, entries: make([]Entry, 0, capacity), tags: make([]byte, 0, capacity)}
	}
	c := &LinkCache{capacity: capacity, entries: make([]Entry, 0, min(capacity, linearIndexMax))}
	c.slots = newSlotIndex(cap(c.entries))
	return c
}

// fabricatedBase is where internal/core starts fabricated addresses
// (its fakeAddrBase; core imports this package, so the value is
// repeated here).
const fabricatedBase PeerID = 1 << 30

// sameTag returns the first n positive addresses whose tag is tag.
func sameTag(tag byte, n int) []PeerID {
	out := make([]PeerID, 0, n)
	for a := PeerID(1); len(out) < n; a++ {
		if tagOf(a) == tag {
			out = append(out, a)
		}
	}
	return out
}

// homeBits is the log2 of the longest slot index sameHome's runs
// collide in.
const homeBits = 12

// sameHome returns the first n positive addresses whose hash has top
// bits top: in every slot index of up to 1<<homeBits positions they
// share one home, and so make one cluster. top = 0 homes them at the
// first position and top = 1<<homeBits-1 at the last, whose cluster
// wraps around to the first.
func sameHome(top uint64, n int) []PeerID {
	out := make([]PeerID, 0, n)
	for a := PeerID(1); len(out) < n; a++ {
		if fibHash(a)>>(64-homeBits) == top {
			out = append(out, a)
		}
	}
	return out
}

// scriptAddrs is the address pool op scripts draw from: more addresses
// than any scripted capacity, mixing the simulator's consecutive peer
// IDs, its fabricated range, a run that all share one tag byte, so
// false-positive tag hits are routine rather than 1-in-256, two runs
// that share a home in the slot index, one at each end of the table
// (so one cluster wraps into the other and backward-shift deletion
// moves entries across the end), and the last real ID and the last
// two values a PeerID holds.
func scriptAddrs() []PeerID {
	var pool []PeerID
	for a := PeerID(1); a <= maxScriptCapacity/2; a++ {
		pool = append(pool, a, fabricatedBase+a)
	}
	pool = append(pool, sameTag(tagOf(1), 24)...)
	pool = append(pool, sameHome(0, 24)...)
	pool = append(pool, sameHome(1<<homeBits-1, 24)...)
	return append(pool, fabricatedBase-1, math.MaxInt32-1, math.MaxInt32)
}

// scriptPool is scriptAddrs, computed once: every fuzz input needs it.
var scriptPool = sync.OnceValue(scriptAddrs)

// maxScriptCapacity is the largest capacity FuzzLinkCacheOps draws: four
// times linearIndexMax, and under len(scriptAddrs()), so scripts fill,
// evict and drain caches in both regimes.
const maxScriptCapacity = 4 * linearIndexMax

// bulkAdd is how many consecutive pool addresses op 9 adds, so that
// short scripts fill large caches.
const bulkAdd = 64

// runOpScript decodes script into LinkCache calls (four bytes each:
// operation, slot, then the address as a little-endian 16-bit index
// into scriptAddrs), applies every call to a tag-indexed and a
// slot-indexed cache of the same capacity, and fails on the first
// observable difference. Entries() must agree slot for slot after every
// call.
func runOpScript(t *testing.T, capacity int, script []byte) {
	t.Helper()
	tagged, slotted := newIndexed(capacity, false), newIndexed(capacity, true)
	pool := scriptPool()
	// replaceAt reports whether ReplaceAt panicked.
	replaceAt := func(c *LinkCache, i int, e Entry) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		c.ReplaceAt(i, e)
		return false
	}
	for step := 0; step+3 < len(script); step += 4 {
		op, slotArg := script[step], int(script[step+1])
		arg := int(script[step+2]) | int(script[step+3])<<8
		addr := pool[arg%len(pool)]
		e := Entry{Addr: addr, TS: float64(step), NumFiles: int32(arg)}
		var a, b any
		switch op % 10 {
		case 0, 1: // twice the weight: scripts should fill the cache
			a, b = tagged.Add(e), slotted.Add(e)
		case 2:
			a, b = tagged.Remove(addr), slotted.Remove(addr)
		case 3:
			// The slot has bytes of its own, so slot and address vary
			// independently: the script reaches both the in-place
			// replace and the duplicate panic.
			if tagged.Len() == 0 {
				continue
			}
			slot := (slotArg | int(op/10)<<8) % tagged.Len()
			wantPanic := tagged.Has(addr) && tagged.entries[slot].Addr != addr
			a, b = replaceAt(tagged, slot, e), replaceAt(slotted, slot, e)
			if a != wantPanic {
				t.Fatalf("step %d: ReplaceAt(%d, %d) panicked=%v, want %v", step, slot, addr, a, wantPanic)
			}
		case 4:
			tagged.Touch(addr, float64(step))
			slotted.Touch(addr, float64(step))
		case 5:
			tagged.SetNumRes(addr, int32(arg))
			slotted.SetNumRes(addr, int32(arg))
		case 6:
			a, b = tagged.Has(addr), slotted.Has(addr)
		case 7:
			ea, oka := tagged.Get(addr)
			eb, okb := slotted.Get(addr)
			a, b = oka, okb
			if ea != eb || (oka && ea.Addr != addr) {
				t.Fatalf("step %d: Get(%d) tags=%+v slots=%+v", step, addr, ea, eb)
			}
		case 8:
			if arg%16 == 0 { // rare, or no script ever fills the cache
				tagged.Clear()
				slotted.Clear()
			}
		case 9:
			for k := range bulkAdd {
				e.Addr = pool[(arg+k)%len(pool)]
				if x, y := tagged.Add(e), slotted.Add(e); x != y {
					t.Fatalf("step %d: bulk Add(%d) tags=%v slots=%v", step, e.Addr, x, y)
				}
			}
		}
		if a != b {
			t.Fatalf("step %d: op %d on %d: tags=%v slots=%v", step, op%10, addr, a, b)
		}
		tagged.checkInvariants()
		slotted.checkInvariants()
		if len(tagged.entries) != len(slotted.entries) {
			t.Fatalf("step %d: Len tags=%d slots=%d", step, len(tagged.entries), len(slotted.entries))
		}
		for i, e := range tagged.entries {
			if slotted.entries[i] != e {
				t.Fatalf("step %d: slot %d tags=%+v slots=%+v", step, i, e, slotted.entries[i])
			}
		}
	}
}

// TestLinkCacheIndexModel is the model-based test: long random scripts
// at capacities below the address pool's size, on both sides of
// linearIndexMax, where a large cache starts, so caches fill, grow,
// evict and drain.
func TestLinkCacheIndexModel(t *testing.T) {
	r := simrng.New(11)
	for _, capacity := range []int{1, 7, 32, 60, 200, linearIndexMax + 1, 600, maxScriptCapacity} {
		script := make([]byte, 4*20000)
		for i := range script {
			script[i] = byte(r.Intn(256))
		}
		runOpScript(t, capacity, script)
	}
}

// FuzzLinkCacheOps lets the fuzzer write the script, at capacities up
// to maxScriptCapacity.
func FuzzLinkCacheOps(f *testing.F) {
	f.Add(uint16(4), []byte{0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 3, 0, 1, 0, 2, 0, 2, 0, 6, 0, 2, 0, 7, 0, 3, 0, 8, 0, 0, 0})
	f.Add(uint16(60), []byte{0, 0, 48, 0, 0, 0, 49, 0, 0, 0, 50, 0, 3, 1, 49, 0, 12, 1, 49, 0, 2, 0, 48, 0, 7, 0, 50, 0})
	// A 300-entry cache filled past its first 256 entries by bulk adds
	// (the two same-home runs start at pool index 1048 and 1072), then
	// drained from the cluster that wraps (the first removal shifts an
	// entry back across the end) and refilled by replacement.
	f.Add(uint16(299), []byte{
		9, 0, 0x18, 0x04, 9, 0, 0, 0, 9, 0, 64, 0, 9, 0, 128, 0, 9, 0, 192, 0,
		2, 0, 0x30, 0x04, 2, 0, 0x20, 0x04, 2, 0, 0x19, 0x04, 3, 7, 0x21, 0x04, 3, 200, 0x1a, 0x04, 7, 0, 0x37, 0x04,
	})
	f.Fuzz(func(t *testing.T, capacity uint16, script []byte) {
		runOpScript(t, int(capacity)%maxScriptCapacity+1, script)
	})
}

// TestLinkCacheSharedTag fills a tag-indexed cache with 100 addresses
// that all have the same tag byte, the worst case for the scan: every
// lookup has to step over false positives to the one right slot, and
// absent addresses with that tag must fall off the end.
func TestLinkCacheSharedTag(t *testing.T) {
	const resident = 100
	addrs := sameTag(tagOf(fabricatedBase), resident+28)
	c := NewLinkCache(resident)
	if c.tags == nil {
		t.Fatal("capacity 100 did not select the tag index")
	}
	for i, a := range addrs[:resident] {
		if !c.Add(Entry{Addr: a, NumFiles: int32(i)}) {
			t.Fatalf("Add(%d) refused", a)
		}
	}
	c.checkInvariants()
	check := func() {
		t.Helper()
		for i, e := range c.Entries() {
			if got := c.find(e.Addr); got != i {
				t.Fatalf("find(%d) = %d, want slot %d", e.Addr, got, i)
			}
			if g, ok := c.Get(e.Addr); !ok || g != e {
				t.Fatalf("Get(%d) = %+v, %v; want %+v", e.Addr, g, ok, e)
			}
		}
		for _, a := range addrs[resident:] {
			if c.Has(a) || c.find(a) != -1 {
				t.Fatalf("absent address %d with the shared tag found", a)
			}
		}
	}
	check()
	if c.Add(Entry{Addr: addrs[resident-1]}) {
		t.Fatal("duplicate of the last slot's address accepted")
	}

	// Touch and SetNumRes reach the addressed entry and no other.
	last := addrs[resident-1]
	c.Touch(last, 7.5)
	c.SetNumRes(last, 3)
	for i, e := range c.Entries() {
		touched := e.TS == 7.5 && e.NumRes == 3 && e.Direct
		if touched != (i == resident-1) {
			t.Fatalf("slot %d after Touch/SetNumRes on the last slot: %+v", i, e)
		}
	}

	// Swap-with-last removal keeps every tag beside its entry.
	for _, a := range []PeerID{addrs[0], addrs[50], addrs[resident-1]} {
		if !c.Remove(a) || c.Has(a) {
			t.Fatalf("Remove(%d) failed", a)
		}
		c.checkInvariants()
		check()
	}

	// ReplaceAt still refuses to duplicate a resident address, and
	// accepts an absent one that shares its tag.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ReplaceAt duplicating an address did not panic")
			}
		}()
		c.ReplaceAt(0, Entry{Addr: c.Entries()[c.Len()-1].Addr})
	}()
	c.ReplaceAt(0, Entry{Addr: addrs[resident]})
	if c.find(addrs[resident]) != 0 {
		t.Fatal("replacement not found at its slot")
	}
	c.checkInvariants()
}

// TestEntryLayout pins the packed entry and the cache header: a field
// added or widened without thought moves a 32-entry cache out of the
// 768-byte size class, or grows every peer of the simulator.
func TestEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 24 {
		t.Fatalf("Entry is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(PeerID(0)); got != 4 {
		t.Fatalf("PeerID is %d bytes, want 4", got)
	}
	c := NewLinkCache(32)
	if got := cap(c.Entries()) * int(unsafe.Sizeof(Entry{})); got != 768 {
		t.Fatalf("a 32-entry cache's backing array is %d bytes, want 768", got)
	}
	// The simulator's peer store holds a LinkCache header per peer by
	// value, and DESIGN.md's memory table counts 64 bytes for it.
	if got := unsafe.Sizeof(LinkCache{}); got != 64 {
		t.Fatalf("LinkCache header is %d bytes, want 64", got)
	}
}

// TestLinkCacheGrowthStopsAtCapacity fills caches on both sides of
// NewLinkCache's linearIndexMax-entry starting allocation: the backing
// array never outgrows the capacity, slot order is insertion order, and
// a cleared cache refills without allocating.
func TestLinkCacheGrowthStopsAtCapacity(t *testing.T) {
	for _, capacity := range []int{5, 32, linearIndexMax, linearIndexMax + 1, 300, 1000, 5000} {
		c := NewLinkCache(capacity)
		fill := func() {
			for a := PeerID(1); int(a) <= capacity; a++ {
				if !c.Add(Entry{Addr: a}) {
					t.Fatalf("capacity %d: Add(%d) refused", capacity, a)
				}
				if cap(c.Entries()) > c.Cap() {
					t.Fatalf("capacity %d: backing array of %d entries after %d adds",
						capacity, cap(c.Entries()), a)
				}
			}
		}
		fill()
		c.checkInvariants()
		if !c.Full() || c.Add(Entry{Addr: PeerID(capacity + 1)}) {
			t.Fatalf("capacity %d: not full after %d adds", capacity, capacity)
		}
		for i, e := range c.Entries() {
			if e.Addr != PeerID(i+1) {
				t.Fatalf("capacity %d: slot %d holds %d", capacity, i, e.Addr)
			}
		}
		if c.tags != nil && cap(c.tags) != capacity {
			t.Fatalf("capacity %d: %d tag bytes", capacity, cap(c.tags))
		}
		if allocs := testing.AllocsPerRun(3, func() { c.Clear(); fill() }); allocs != 0 {
			t.Fatalf("capacity %d: Clear and refill allocated %v times", capacity, allocs)
		}
	}
}

// tagOf64 is the 64-bit formula the tag hash replaced, kept as the
// reference: a PeerID was an int64 and went into the multiply
// sign-extended.
func tagOf64(addr int64) byte {
	return byte((uint64(addr) * 0x9E3779B97F4A7C15) >> 56)
}

// eachRealID calls f with every ID a run of a million peers can assign,
// then with strides up to the last real ID.
func eachRealID(f func(PeerID)) {
	for id := PeerID(1); id <= 1<<20; id++ {
		f(id)
	}
	for id := PeerID(1<<20 + 1); id < fabricatedBase-1; id += 1<<18 - 3 {
		f(id)
	}
	f(fabricatedBase - 1)
}

// TestRealIDsHashAsBefore checks, rather than argues, that narrowing the
// ID left every real ID its tag (policy's TestQueryCacheProbeStartAsBefore
// does the same for the query cache's seen set).
func TestRealIDsHashAsBefore(t *testing.T) {
	eachRealID(func(id PeerID) {
		if got, want := tagOf(id), tagOf64(int64(id)); got != want {
			t.Fatalf("tagOf(%d) = %d, 64-bit formula %d", id, got, want)
		}
	})
	// A fabricated address hashes as its unsigned value, not sign-extended.
	for _, id := range []PeerID{fabricatedBase, math.MaxInt32, -1, math.MinInt32} {
		if got, want := tagOf(id), tagOf64(int64(uint32(id))); got != want {
			t.Fatalf("tagOf(%d) = %d, want %d", id, got, want)
		}
	}
}
